import dataclasses

import numpy as np
import pytest

from oracles import nested_minmax_value, random_discrete_problem
from swcopt import builders
from swcopt.builders import (
    build_deterministic,
    build_swc,
    exact_value,
    relaxed_grouping,
    scenario_costs,
    solve_swc_paths,
    sws_value,
    swct_value,
    vertex_paths,
)
from swcopt.inventory import InventoryData, build_coc, inventory_benchmark, table_data
from swcopt.lp import SolveResult, SolverError, Status, get_solver
from swcopt.model import AffineMap, DiscreteSupport, ScenarioPath, UncertaintySet
from swcopt.sampling import build_prefix_tree, draw_paths

SOLVE = get_solver("highs")


def toy_two_stage():
    """Order-up toy: order q at unit cost, hold at 2, backlog at 3,
    demand in {3, 7}; commitment state pinned to zero."""
    data = InventoryData(
        stages=2,
        backlog_cost=3.0,
        order_cost=1.0,
        holding_cost=2.0,
        initial_inventory=0.0,
        order_lower=(0.0,),
        order_upper=(10.0,),
        cum_lower=(0.0,),
        cum_upper=(0.0,),
        demand_level=0.0,
        demand_nominal=(5.0,),
    )
    support = DiscreteSupport((np.array([3.0]), np.array([7.0])))
    return build_coc(data, supports=(support,))


def test_single_path_swc_collapses_to_deterministic():
    problem = inventory_benchmark(5)
    path = draw_paths(problem.uncertainty, 1, seed=3)[0]
    value, _, _, _ = solve_swc_paths(problem, [path])
    det = SOLVE(build_deterministic(problem, path))
    assert value == pytest.approx(det.objective, abs=1e-7)


def test_two_stage_toy_matches_grid_oracle():
    problem = toy_two_stage()
    paths = [ScenarioPath.of([[3.0]]), ScenarioPath.of([[7.0]])]
    value, _, _, _ = solve_swc_paths(problem, paths)
    # brute force over the order quantity: recourse cost is closed form
    q = np.linspace(0.0, 10.0, 200001)
    worst = np.maximum.reduce(
        [np.maximum(2.0 * (q - xi), 3.0 * (xi - q)) for xi in (3.0, 7.0)]
    )
    grid_min = float(np.min(q + worst))
    assert value == pytest.approx(grid_min, abs=1e-4)
    assert value == pytest.approx(10.2, abs=1e-7)


def _discrete_three_stage():
    base = random_discrete_problem(np.random.default_rng(8), 3)
    support = DiscreteSupport(tuple(np.array([float(v)]) for v in (1, 2, 3, 4, 5)))
    return dataclasses.replace(base, uncertainty=UncertaintySet((support, support)))


def test_fig1_paths_share_three_first_stage_blocks():
    problem = _discrete_three_stage()
    paths = [ScenarioPath.of([[a], [b]]) for a, b in ((3, 4), (5, 2), (2, 1), (5, 5))]
    lp, vmap = build_swc(problem, build_prefix_tree(paths))
    assert len(vmap.stage_blocks(2)) == 3
    assert len(vmap.stage_blocks(3)) == 4


def test_adding_scenarios_never_improves():
    problem = inventory_benchmark(5)
    paths = draw_paths(problem.uncertainty, 24, seed=17)
    v_small, _, _, _ = solve_swc_paths(problem, paths[:8])
    v_big, _, _, _ = solve_swc_paths(problem, paths)
    assert v_big >= v_small - 1e-7


def test_sampled_swc_stays_below_exact_ro():
    problem = inventory_benchmark(5)
    ro = exact_value(problem, "ro")
    for seed in range(4):
        paths = draw_paths(problem.uncertainty, 40, seed=seed)
        value, _, _, _ = solve_swc_paths(problem, paths)
        assert value <= ro + 1e-6


def test_full_support_swc_equals_nested_recursion():
    for i in range(6):
        H = 2 + (i % 2)
        problem = random_discrete_problem(np.random.default_rng(400 + i), H)
        lp, _ = build_swc(problem, build_prefix_tree(vertex_paths(problem.uncertainty)))
        res = SOLVE(lp)
        nested = nested_minmax_value(problem, "builtin")
        assert res.objective == pytest.approx(nested, abs=1e-6)


def test_feasible_pairs_mix_convexly():
    problem = inventory_benchmark(2)
    scenarios = draw_paths(problem.uncertainty, 12, seed=21)
    v_a, x1_a, g_a, _ = solve_swc_paths(problem, scenarios)
    # a second feasible pair: different first stage, budget from its own costs
    x1_b = np.array([80.0, 80.0, 60.0])
    g_b = float(np.max(scenario_costs(problem, scenarios, "highs", x1=x1_b))) + 1e-6
    from swcopt.validation import certificate_feasible

    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        x1 = lam * x1_a + (1 - lam) * x1_b
        g = lam * g_a + (1 - lam) * g_b
        for path in scenarios:
            assert certificate_feasible(problem, x1, g, path)


def test_sws_single_path_is_its_minimum():
    problem = inventory_benchmark(5)
    path = draw_paths(problem.uncertainty, 1, seed=9)[0]
    value, worst = sws_value(problem, [path])
    det = SOLVE(build_deterministic(problem, path))
    assert worst == 0
    assert value == pytest.approx(det.objective, abs=1e-7)


def test_sws_published_value_and_subset_bound():
    problem = inventory_benchmark(5)
    verts = vertex_paths(problem.uncertainty)
    full, worst = sws_value(problem, verts)
    assert full == pytest.approx(1831.891109, abs=1e-3)
    sampled = draw_paths(problem.uncertainty, 30, seed=2)
    sub, _ = sws_value(problem, sampled)
    assert sub <= full + 1e-6
    # the binding path is the all-low corner
    assert verts[worst].stages[0][0] == pytest.approx(52.5)


def test_swct_single_nominal_sample_is_deterministic_value():
    problem = inventory_benchmark(5)
    uns = problem.uncertainty
    nominal_path = ScenarioPath.of([uns.nominal(t) for t in range(1, 5)])
    value = swct_value(problem, [uns.nominal(1)])
    det = SOLVE(build_deterministic(problem, nominal_path))
    assert value == pytest.approx(det.objective, abs=1e-7)


def test_swct_sampled_below_vertex_set():
    problem = inventory_benchmark(5)
    verts = [v for v in problem.uncertainty.vertices(1)]
    v_vertex = swct_value(problem, verts)
    rng = np.random.default_rng(12)
    xi1s = [np.array([rng.uniform(52.5, 97.5)]) for _ in range(20)]
    v_sampled = swct_value(problem, xi1s)
    assert v_sampled <= v_vertex + 1e-6


def test_exact_modes_published_values():
    problem = inventory_benchmark(5)
    assert exact_value(problem, "ro") == pytest.approx(2207.554108, abs=1e-3)
    assert exact_value(problem, "rws") == pytest.approx(1831.891109, abs=1e-3)
    assert exact_value(problem, "rt") == pytest.approx(1831.891109, abs=1e-3)


def test_degenerate_box_collapses_all_modes():
    data = dataclasses.replace(table_data(5), demand_level=0.0)
    problem = build_coc(data)
    nominal_path = ScenarioPath.of([[v] for v in data.demand_nominal])
    det = SOLVE(build_deterministic(problem, nominal_path)).objective
    for mode in ("ro", "rws", "rt"):
        assert exact_value(problem, mode) == pytest.approx(det, abs=1e-7)


def test_leaf_cap_enforced(monkeypatch):
    monkeypatch.setattr(builders, "LEAF_CAP", 8)
    problem = inventory_benchmark(5)
    with pytest.raises(ValueError, match="above the cap 8"):
        exact_value(problem, "ro")


def test_exact_value_checks_the_vertex_assumption():
    # an uncertain cost over a box support: its worst case need not be a vertex
    problem = inventory_benchmark(3)
    assert not any(m.terms for b in problem.stages for m in (b.T, b.W, b.c))
    blk = problem.stage_block(2)
    c = AffineMap(blk.c.base, ((0, np.full(blk.c.shape, 0.01)),))
    uncertain = dataclasses.replace(
        problem, stages=(dataclasses.replace(blk, c=c), *problem.stages[1:]))
    for mode in ("ro", "rws", "rt"):
        with pytest.raises(ValueError, match="vertices"):
            exact_value(uncertain, mode)
    # the same uncertain cost over discrete supports: vertices are the whole support
    support = DiscreteSupport((np.array([60.0]), np.array([90.0])))
    discrete = dataclasses.replace(
        uncertain, uncertainty=UncertaintySet((support,) * uncertain.uncertainty.n_stages))
    assert exact_value(discrete, "ro") >= exact_value(discrete, "rws") - 1e-7


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        exact_value(inventory_benchmark(2), "nope")


def test_relaxed_grouping_keeps_duplicates_together():
    paths = [
        ScenarioPath.of([[1.0], [2.0]]),
        ScenarioPath.of([[1.0], [3.0]]),
        ScenarioPath.of([[1.0], [2.0]]),
    ]
    g = relaxed_grouping(paths)
    # two distinct full paths; the shared prefix does not merge them
    assert g.node_counts() == (2, 2)
    assert list(g.path_to_node[0]) == list(g.path_to_node[2])
    assert list(g.path_to_node[0]) != list(g.path_to_node[1])


def test_relaxed_value_between_sws_and_swc():
    # dropping the sharing can only lower the certificate value
    problem = inventory_benchmark(5, "integer")
    paths = draw_paths(problem.uncertainty, 25, seed=4)
    swc, _, _, _ = solve_swc_paths(problem, paths)
    lp, _ = build_swc(problem, relaxed_grouping(paths))
    relaxed = SOLVE(lp).objective
    sws, _ = sws_value(problem, paths)
    assert sws <= relaxed + 1e-7
    assert relaxed <= swc + 1e-7


def _scripted_solver(statuses, bases=True):
    """Stub solver: answers each solve with the next status (x = 0 when
    optimal, with bases on the basis of every row's slack, so that it
    reports a basis as HiGHS does), and records every LP it got."""
    seen = []

    def solve(lp):
        seen.append(lp)
        status = statuses[len(seen) - 1]
        if status is Status.OPTIMAL:
            basis = np.arange(-lp.nrows, 0) if bases else None
            return SolveResult(status, 5.0, np.zeros(lp.ncols), basis=basis)
        return SolveResult(status, None, None)

    return solve, seen


def assert_zero_rhs_of(zero, lp):
    """zero is lp with every right-hand side 0."""
    assert not zero.rhs.any()
    for field in ("ncols", "lower", "upper", "obj", "indptr", "indices", "data", "senses"):
        assert np.array_equal(getattr(zero, field), getattr(lp, field))


def test_scenario_costs_bisects_a_nonoptimal_stack():
    # a solver that reports no basis: path 0 alone (the seed) is optimal
    # without one, so the other paths go to one stack, which is split in
    # halves when it is not optimal; no LP at b = 0 is solved
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 3, seed=[1, 0])
    x1 = np.array([50.0, 60.0, 0.0])
    solve, seen = _scripted_solver([Status.OPTIMAL, Status.INFEASIBLE, Status.INFEASIBLE,
                                    Status.UNBOUNDED], bases=False)
    costs = scenario_costs(problem, paths, solve, x1=x1)
    assert costs[0] == float(problem.c1 @ x1)  # the cost of the stub's x = 0
    assert costs[1] == np.inf and costs[2] == -np.inf
    # path 0, the stack of paths 1 and 2, path 1, path 2
    rows = seen[0].nrows
    assert [lp.nrows for lp in seen] == [rows, 2 * rows, rows, rows]


def test_scenario_costs_stacks_the_rest_after_a_refused_basis():
    # with bases, path 0 is solved alone (the seed).  It is infeasible, so
    # its LP at b = 0 (the same matrix and costs, every right-hand side 0)
    # is solved; the stub's all-slack basis gives y'b = 0, not the stub's
    # value 5, and is refused.  So the other paths go to one stack, which
    # is split in halves when it is not optimal, as without bases
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 3, seed=[1, 0])
    x1 = np.array([50.0, 60.0, 0.0])
    solve, seen = _scripted_solver([Status.INFEASIBLE, Status.OPTIMAL, Status.UNBOUNDED,
                                    Status.UNBOUNDED, Status.OPTIMAL])
    costs = scenario_costs(problem, paths, solve, x1=x1)
    assert costs.tolist() == [np.inf, -np.inf, float(problem.c1 @ x1)]
    rows = seen[0].nrows
    assert [lp.nrows for lp in seen] == [rows, rows, 2 * rows, rows, rows]
    assert_zero_rhs_of(seen[1], seen[0])
    assert [lp.ncols for lp in seen[2:]] == [2 * seen[0].ncols] + [seen[0].ncols] * 2


def test_scenario_costs_stacks_the_rest_after_a_seed_without_basis():
    # path 0 (the seed) is infeasible and its LP at b = 0 is optimal without
    # a basis: the other paths go to one stack, split as above, and path 1's
    # infeasibility gets no LP at b = 0
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 3, seed=[1, 0])
    solve, seen = _scripted_solver([Status.INFEASIBLE, Status.OPTIMAL, Status.INFEASIBLE,
                                    Status.INFEASIBLE, Status.UNBOUNDED], bases=False)
    costs = scenario_costs(problem, paths, solve, x1=np.array([50.0, 60.0, 0.0]))
    assert costs[0] == costs[1] == np.inf and costs[2] == -np.inf
    rows = seen[0].nrows
    assert [lp.nrows for lp in seen] == [rows, rows, 2 * rows, rows, rows]
    assert_zero_rhs_of(seen[1], seen[0])
    assert seen[3].ncols == seen[0].ncols and seen[3].rhs.any()


def test_scenario_costs_iteration_limit_is_a_solver_error():
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 2, seed=[1, 0])
    solve, _ = _scripted_solver([Status.ITERATION_LIMIT] * 3)
    with pytest.raises(SolverError, match="iteration_limit"):
        scenario_costs(problem, paths, solve)


def test_scenario_costs_builtin_matches_highs():
    # 300 paths in one stack: 300 independent blocks for the builtin simplex
    problem = inventory_benchmark(5)
    paths = draw_paths(problem.uncertainty, 300, [1, 1])
    x1 = np.array([70.0, 70.0, 70.0])
    builtin = scenario_costs(problem, paths, "builtin", x1=x1)
    highs = scenario_costs(problem, paths, "highs", x1=x1)
    np.testing.assert_allclose(builtin, highs, rtol=1e-9, atol=0)
