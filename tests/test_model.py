import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcopt.model import (
    AffineMap,
    BoxSupport,
    DiscreteSupport,
    IntegerBoxSupport,
    MultistageRobustLP,
    ScenarioPath,
    ScenarioPaths,
    StageBlock,
    StageDims,
    UncertaintySet,
    evaluate_coefficients,
    stage_vertices,
    validate,
)
from swcopt.builders import scenario_costs
from swcopt.inventory import inventory_benchmark, table_data
from swcopt.problem_io import problem_from_json, problem_to_json
from swcopt.sampling import draw_paths


def test_affine_map_constant_ignores_path():
    amap = AffineMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = amap(np.array([5.0, -7.0]))
    np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])


def test_affine_map_zero_scenario_returns_base():
    amap = AffineMap(np.array([1.0, 0.0]), ((0, np.array([2.0, 1.0])),))
    np.testing.assert_array_equal(amap(np.zeros(1)), [1.0, 0.0])


def test_affine_map_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        AffineMap(np.zeros((2, 2)), ((0, np.zeros(2)),))


def test_affine_eval_many_matches_single():
    rng = np.random.default_rng(0)
    amap = AffineMap(rng.normal(size=(3, 2)), ((1, rng.normal(size=(3, 2))), (0, rng.normal(size=(3, 2)))))
    xis = rng.normal(size=(5, 2))
    batch = amap.eval_many(xis)
    for k in range(5):
        np.testing.assert_allclose(batch[k], amap(xis[k]), atol=1e-14)


@given(
    st.floats(-1.0, 2.0),
    st.floats(-10, 10),
    st.floats(-10, 10),
)
@settings(max_examples=50, deadline=None)
def test_affine_evaluation_is_affine(alpha, xa, xb):
    amap = AffineMap(np.array([2.0, -1.0]), ((0, np.array([0.5, 3.0])),))
    mixed = amap(np.array([alpha * xa + (1 - alpha) * xb]))
    combo = alpha * amap(np.array([xa])) + (1 - alpha) * amap(np.array([xb]))
    np.testing.assert_allclose(mixed, combo, atol=1e-12)


def test_inventory_balance_rhs_follows_demand():
    # stage-2 inventory balance rhs is initial inventory minus the demand
    problem = inventory_benchmark(5)
    path = ScenarioPath.of([[52.5], [70.0], [87.5], [100.0]])
    _, _, h, _ = evaluate_coefficients(problem, path, 2)
    assert h[0] == pytest.approx(-52.5, abs=1e-12)


def test_zero_path_recovers_bases():
    problem = inventory_benchmark(5)
    path = ScenarioPath.of([[0.0]] * 4)
    for t in range(2, 6):
        blk = problem.stage_block(t)
        T, W, h, c = evaluate_coefficients(problem, path, t)
        np.testing.assert_array_equal(T, blk.T.base)
        np.testing.assert_array_equal(W, blk.W.base)
        np.testing.assert_array_equal(h, blk.h.base)
        np.testing.assert_array_equal(c, blk.c.base)


def test_evaluate_stage_out_of_range():
    problem = inventory_benchmark(2)
    path = ScenarioPath.of([[60.0]])
    with pytest.raises(ValueError):
        evaluate_coefficients(problem, path, 3)


def test_box_vertices_table_values():
    sup = BoxSupport(np.array([75.0]), 0.3)
    verts = sorted(v[0] for v in sup.vertices())
    assert verts == [pytest.approx(52.5), pytest.approx(97.5)]


def test_box_vertices_collapse_at_zero_radius():
    sup = BoxSupport(np.array([3.0, -1.0]), 0.0)
    verts = sup.vertices()
    assert len(verts) == 1
    np.testing.assert_array_equal(verts[0], [3.0, -1.0])


def test_discrete_vertices_verbatim():
    sup = DiscreteSupport(tuple(np.array([float(v)]) for v in (1, 2, 3, 4, 5)))
    assert [v[0] for v in sup.vertices()] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_integer_box_vertices_and_membership():
    sup = IntegerBoxSupport(np.array([70]), np.array([130]))
    assert sorted(v[0] for v in sup.vertices()) == [70.0, 130.0]
    assert sup.contains(np.array([101.0]))
    assert not sup.contains(np.array([100.5]))
    assert not sup.contains(np.array([131.0]))


def test_stage_vertices_of_benchmark_match_published_grid():
    problem = inventory_benchmark(5)
    data = table_data(5)
    for t in range(1, 5):
        verts = sorted(v[0] for v in stage_vertices(problem.uncertainty, t))
        nominal = data.demand_nominal[t - 1]
        assert verts[0] == pytest.approx(nominal * 0.7, abs=1e-9)
        assert verts[1] == pytest.approx(nominal * 1.3, abs=1e-9)
    # first three periods also read directly off the published table
    assert stage_vertices(problem.uncertainty, 1)[0][0] == pytest.approx(52.5)
    assert stage_vertices(problem.uncertainty, 2)[1][0] == pytest.approx(130.0)
    assert stage_vertices(problem.uncertainty, 3)[0][0] == pytest.approx(87.5)


def test_validate_accepts_benchmark():
    assert validate(inventory_benchmark(5)) == []
    assert validate(inventory_benchmark(2)) == []


def test_validate_reports_bad_shapes():
    problem = inventory_benchmark(2)
    blk = problem.stages[0]
    bad_blk = type(blk)(
        T=AffineMap(np.zeros((problem.dims.m[1], problem.dims.n[0] + 1))),
        W=blk.W, h=blk.h, c=blk.c, senses=blk.senses,
    )
    bad = type(problem)(
        dims=problem.dims, A=problem.A, h1=problem.h1, c1=problem.c1,
        senses1=problem.senses1, stages=(bad_blk,), uncertainty=problem.uncertainty,
        nonneg=problem.nonneg, var_names=problem.var_names,
    )
    msgs = validate(bad)
    assert any("stage 2" in m and "T" in m for m in msgs)


def test_validate_flags_anticipative_data():
    # stage-2 coefficients may depend on xi^1 only; component 1 is stage-2 data
    problem = inventory_benchmark(3)
    blk = problem.stages[0]
    bad_h = AffineMap(blk.h.base, blk.h.terms + ((1, np.zeros(blk.h.base.shape)),))
    bad_blk = type(blk)(T=blk.T, W=blk.W, h=bad_h, c=blk.c, senses=blk.senses)
    bad = type(problem)(
        dims=problem.dims, A=problem.A, h1=problem.h1, c1=problem.c1,
        senses1=problem.senses1, stages=(bad_blk, problem.stages[1]),
        uncertainty=problem.uncertainty, nonneg=problem.nonneg,
        var_names=problem.var_names,
    )
    msgs = validate(bad)
    assert any("nonanticipative" in m for m in msgs)


def test_stage_dims_invariants():
    with pytest.raises(ValueError):
        StageDims(1, (1,), (0,))
    with pytest.raises(ValueError):
        StageDims(2, (1, 0), (1, 1))


def test_scenario_path_flatten_and_prefix():
    p = ScenarioPath.of([[1.0, 2.0], [3.0]])
    np.testing.assert_array_equal(p.flat(), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(p.flat(1), [1.0, 2.0])
    assert p.prefix(1) == ((1.0, 2.0),)


def test_scenario_paths_container():
    views = [ScenarioPath.of([[1.0, 2.0], [3.0]]), ScenarioPath.of([[4.0, 5.0], [6.0]])]
    paths = ScenarioPaths.of(views)
    assert ScenarioPaths.of(paths) is paths
    assert paths.widths == (2, 1) and len(paths) == 2
    np.testing.assert_array_equal(paths.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert paths[1] == views[1] and paths[np.int64(-2)] == views[0]
    assert list(paths) == views
    assert paths[1:] == ScenarioPaths(np.array([[4.0, 5.0, 6.0]]), (2, 1))
    assert paths != ScenarioPaths(paths.values, (1, 2))
    with pytest.raises(ValueError):
        paths.values[0, 0] = 9.0


def test_scenario_paths_reject_ragged_input():
    with pytest.raises(ValueError, match="at least one"):
        ScenarioPaths.of([])
    with pytest.raises(ValueError, match="stage count"):
        ScenarioPaths.of([ScenarioPath.of([[1.0]]), ScenarioPath.of([[1.0], [2.0]])])
    with pytest.raises(ValueError, match="stage dimensions"):
        ScenarioPaths.of([ScenarioPath.of([[1.0], [2.0]]), ScenarioPath.of([[1.0, 0.0], [2.0]])])
    with pytest.raises(ValueError, match="widths"):
        ScenarioPaths(np.zeros((3, 2)), (1, 2))


def test_problem_json_round_trip():
    problem = inventory_benchmark(5)
    doc = problem_to_json(problem)
    back = problem_from_json(doc)
    assert validate(back) == []
    assert back.dims == problem.dims
    np.testing.assert_array_equal(back.A, problem.A)
    for t in range(2, 6):
        a, b = problem.stage_block(t), back.stage_block(t)
        np.testing.assert_array_equal(a.T.base, b.T.base)
        np.testing.assert_array_equal(a.h.base, b.h.base)
        assert a.senses == b.senses
        assert a.h.terms[0][0] == b.h.terms[0][0]
        np.testing.assert_array_equal(a.h.terms[0][1], b.h.terms[0][1])
    assert problem_to_json(back) == doc


def test_integer_variant_round_trip():
    problem = inventory_benchmark(5, "integer")
    back = problem_from_json(problem_to_json(problem))
    assert isinstance(back.uncertainty.stages[0], IntegerBoxSupport)
    assert back.uncertainty.stages[0].lower[0] == 53
    assert back.uncertainty.stages[0].upper[0] == 97


def test_writing_to_the_source_arrays_leaves_the_model_unchanged():
    # the model copies its coefficient arrays, so its basis pools, which
    # outlive every call, cannot go stale through the caller's arrays
    base = inventory_benchmark(3)
    blk = base.stage_block(2)
    T, W, h, hterm, c = (blk.T.base.copy(), blk.W.base.copy(), blk.h.base.copy(),
                         blk.h.terms[0][1].copy(), blk.c.base.copy())
    A, h1, c1 = base.A.copy(), base.h1.copy(), base.c1.copy()
    nominal = base.uncertainty.stages[0].nominal.copy()
    lower, upper = np.array([50]), np.array([90])
    stages = (StageBlock(AffineMap(T), AffineMap(W), AffineMap(h, ((0, hterm),)), AffineMap(c),
                         blk.senses), *base.stages[1:])
    supports = (BoxSupport(nominal, 0.5), IntegerBoxSupport(lower, upper))
    problem = MultistageRobustLP(base.dims, A, h1, c1, base.senses1, stages,
                                 UncertaintySet(supports), base.nonneg)
    paths = draw_paths(problem.uncertainty, 200, [3, 1])
    x1 = np.array([70.0, 70.0, 70.0])
    costs = scenario_costs(problem, paths, x1=x1)
    for arr in (T, W, h, hterm, c, A, h1, c1, nominal, lower, upper):
        arr *= 2
    np.testing.assert_array_equal(scenario_costs(problem, paths, x1=x1), costs)
    assert draw_paths(problem.uncertainty, 200, [3, 1]) == paths
    for arr in (problem.A, problem.h1, problem.c1, problem.stage_block(2).W.base,
                problem.stage_block(2).h.terms[0][1], supports[1].lower, supports[1].upper):
        assert not arr.flags.writeable


def test_scenario_paths_view_the_callers_array():
    # a validation batch is not copied: the paths are a read-only view
    values = np.zeros((4, 2))
    paths = ScenarioPaths(values, (1, 1))
    assert np.shares_memory(paths.values, values) and not paths.values.flags.writeable
    assert values.flags.writeable
