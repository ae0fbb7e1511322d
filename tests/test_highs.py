"""solve_highs, scipy's bundled HiGHS called directly, against
linprog(method="highs"), and GrowingLP's warm and cold routes."""
import sys
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize._highspy
from scipy import sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import assert_basis_gives_x, linprog_highs, random_lp
from swcopt import lp as lp_module
from swcopt.builders import solve_swc_paths, sws_value, swct_value
from swcopt.inventory import inventory_benchmark
from swcopt.lp import (GrowingLP, LPBuilder, LPInstance, SolverError, Status, _colwise,
                       get_solver, solve_highs)
from swcopt.sampling import draw_paths
from swcopt.simplex import solve_builtin
from swcopt.validation import empirical_violation
from test_simplex import small_lps


def assert_same_as_linprog(lp):
    """Equal status and iterations, and bit-equal x and objective."""
    try:
        status, objective, x, iterations = linprog_highs(lp)
    except SolverError:
        with pytest.raises(SolverError):
            solve_highs(lp)
        return None
    res = solve_highs(lp)
    assert res.status is status
    assert res.iterations == iterations
    if status is Status.OPTIMAL:
        assert res.objective == objective
        assert np.array_equal(res.x, x)
    else:
        assert res.objective is None and res.x is None
    return status


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_direct_call_matches_linprog(lp):
    # <=, = and >= rows, free, fixed and bounded columns, no rows at all,
    # repeated columns in a row and explicit zeros
    assert_same_as_linprog(lp)


def test_random_lps_of_every_status_match_linprog():
    rng = np.random.default_rng(2024)
    seen = {assert_same_as_linprog(random_lp(rng)) for _ in range(200)}
    assert {Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED} <= seen


@pytest.fixture(scope="module")
def integer_instance_lps():
    # the LPs one benchmark instance with bounds solves; the recording
    # solver is not solve_highs, so the core master is re-solved whole.
    # Three more validations run through a solver that reports no basis,
    # so that block-diagonal stacks of 299 paths, one per validation after
    # a one-path seed, are compared too.  sws_value and swct_value price on
    # the basis pools the core method's anticipative pass and the first
    # validation left on the problem, so they solve no seed path
    problem = inventory_benchmark(5, "integer")
    paths = draw_paths(problem.uncertainty, 1884, [11, 0])
    lps = []

    def record(lp):
        lps.append(lp)
        return solve_highs(lp)

    _, x1, gamma, _ = solve_swc_paths(problem, paths, record)
    empirical_violation(problem, x1, gamma, L=1, N=300, seed=[11, 1], solver=record)
    for k in (1, 2, 3):
        empirical_violation(problem, x1, gamma, L=1, N=300, seed=[11, k],
                            solver=lambda lp: replace(record(lp), basis=None))
    sws_value(problem, paths, record)
    swct_value(problem, paths.values[:, :1], record)
    return lps


def test_every_lp_of_an_integer_instance_matches_linprog(integer_instance_lps):
    lps = integer_instance_lps
    # the last core master has about 3,400 rows with its cuts, each stack 6,578
    assert len(lps) >= 18 and sum(3000 < lp.nrows < 6000 for lp in lps) >= 1
    assert sum(lp.nrows > 6000 for lp in lps) == 3
    # a tail past its bounds is infeasible, and its LP at b = 0 is solved
    # next
    assert any(not lp.rhs.any() for lp in lps)
    statuses = [assert_same_as_linprog(lp) for lp in lps]
    assert set(statuses) == {Status.OPTIMAL, Status.INFEASIBLE}


def assert_same_colwise(lp):
    """_colwise's arrays are bit for bit the column-wise matrix and row
    bounds of to_scipy's parts stacked by scipy, as linprog stacks them."""
    A_ub, b_ub, A_eq, b_eq = lp.to_scipy()
    parts = [A for A in (A_ub, A_eq) if A is not None]
    A = sparse.vstack(parts, format="csc") if parts else sparse.csc_matrix((0, lp.ncols))
    start, index, value, row_lower, row_upper = _colwise(lp)
    assert np.array_equal(start, A.indptr) and np.array_equal(index, A.indices)
    assert value.tobytes() == A.data.astype(float).tobytes()
    assert row_lower.tobytes() == np.concatenate([np.full(len(b_ub), -np.inf), b_eq]).tobytes()
    assert row_upper.tobytes() == np.concatenate([b_ub, b_eq]).tobytes()


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_colwise_arrays_match_scipy(lp):
    # repeated columns in a row are summed in scipy's order, explicit zeros kept
    assert_same_colwise(lp)


def test_colwise_arrays_match_scipy_on_an_integer_instance(integer_instance_lps):
    for lp in integer_instance_lps:
        assert_same_colwise(lp)


def _two_columns():
    b = LPBuilder()
    b.add_var(0.0, 4.0, -1.0)
    b.add_var(-np.inf, np.inf, 1.0)
    b.add_row([0, 1], [1.0, -1.0], "<=", 1.0)
    b.add_row([1], [1.0], ">=", 0.5)
    b.add_row([0, 1], [2.0, 1.0], "=", 3.0)
    return b.build()


@pytest.mark.parametrize("field", ["obj", "data", "rhs"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_inputs_linprog_rejects_still_raise(field, value):
    lp = _two_columns()
    values = getattr(lp, field).copy()
    values[0] = value
    lp = replace(lp, **{field: values})
    with pytest.raises(ValueError):
        linprog_highs(lp)
    with pytest.raises(ValueError, match="inf or nan"):
        solve_highs(lp)


def test_an_lp_without_columns_raises():
    lp = LPBuilder().build()
    with pytest.raises(ValueError):
        linprog_highs(lp)
    with pytest.raises(ValueError, match="column"):
        solve_highs(lp)


@pytest.mark.parametrize("lower, upper", [(2.0, 1.0), (np.inf, np.inf), (-np.inf, -np.inf)])
def test_impossible_bounds_are_infeasible_on_both(lower, upper):
    # linprog does not refuse them: HiGHS reports crossed bounds infeasible
    # and an infinite bound on the wrong side a model error
    lp = _two_columns()
    lp = replace(lp, lower=np.array([lower, -np.inf]), upper=np.array([upper, np.inf]))
    assert assert_same_as_linprog(lp) is Status.INFEASIBLE


def test_nan_bounds_raise():
    # linprog would read a nan bound as no bound
    lp = _two_columns()
    with pytest.raises(ValueError, match="nan"):
        solve_highs(replace(lp, upper=np.array([np.nan, np.inf])))


def test_an_lp_refuses_unknown_and_missing_row_senses():
    # unchecked, min x s.t. x => 1 solved to 0 on HiGHS (read as <=) and to 1
    # on the builtin simplex (read as >=)
    one = dict(ncols=1, lower=np.zeros(1), upper=np.full(1, np.inf), obj=np.ones(1),
               indptr=np.array([0, 1]), indices=np.array([0]), data=np.ones(1), rhs=np.ones(1))
    with pytest.raises(ValueError, match="unknown row sense '=>'"):
        LPInstance(senses=("=>",), **one)
    with pytest.raises(ValueError, match="0 row senses for 1 rows"):
        LPInstance(senses=(), **one)
    senses = np.array([">="])
    lp = LPInstance(senses=senses, **one)
    assert lp.senses.dtype == "<U2" and not lp.senses.flags.writeable and senses.flags.writeable
    assert solve_highs(lp).objective == solve_builtin(lp).objective == 1.0


def test_a_scipy_without_the_binding_names_the_version_it_needs(monkeypatch):
    monkeypatch.delattr(scipy.optimize._highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(SolverError, match=f"scipy >= {lp_module.HIGHS_SCIPY}"):
        solve_highs(_two_columns())


def test_a_binding_without_basic_variables_is_named(monkeypatch):
    core = types.SimpleNamespace(_Highs=type("_Highs", (), {"addRows": None}))
    monkeypatch.setattr(scipy.optimize._highspy, "_core", core)
    with pytest.raises(SolverError, match=r"_Highs\.getBasicVariables; found scipy"):
        solve_highs(_two_columns())


def test_optimal_results_carry_the_basis_that_gives_x():
    # <=, = and >= rows, free, boxed and shifted columns, empty rows of each sense
    rng = np.random.default_rng(2025)
    optimal = 0
    for k in range(300):
        lp = random_lp(rng, empty_rows=k % 3)
        res = solve_highs(lp)
        if res.status is Status.OPTIMAL:
            assert_basis_gives_x(lp, res)
            optimal += 1
        else:
            assert res.basis is None
    assert optimal > 50


@pytest.mark.parametrize("value", [0.0, 1e-10])
def test_a_matrix_without_entries_has_every_slack_basic(value):
    # HiGHS drops entries up to 1e-9 and keeps none here
    b = LPBuilder()
    b.add_var(0.0, 2.0, -1.0)
    b.add_var(-np.inf, np.inf, 0.0)
    b.add_row([], [], "<=", 1.0)
    b.add_row([0], [value], "=", 0.0)
    res = solve_highs(b.build())
    np.testing.assert_array_equal(res.basis, [-2, -1])
    assert_basis_gives_x(b.build(), res)


@st.composite
def lps_and_cuts(draw):
    """An LP and blocks of <= rows over its columns, each block of one width."""
    lp = draw(small_lps())
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        q, w = draw(st.integers(1, 3)), draw(st.integers(1, lp.ncols))
        cols = np.array([draw(st.permutations(range(lp.ncols)))[:w] for _ in range(q)])
        vals = np.array(draw(st.lists(st.floats(-5, 5), min_size=q * w, max_size=q * w)))
        rhs = np.array(draw(st.lists(st.floats(-5, 5), min_size=q, max_size=q)))
        blocks.append((cols, vals.reshape(q, w), rhs))
    return lp, blocks


def _one_row_lp(lower=None, upper=None, obj=None):
    """Six columns, free unless lower or upper ({column: bound}) says
    otherwise, with costs obj ({column: cost}) and the single row x0 <= 0."""
    b = LPBuilder()
    for j in range(6):
        b.add_var((lower or {}).get(j, -np.inf), (upper or {}).get(j, np.inf),
                  (obj or {}).get(j, 0.0))
    b.add_row([0], [1.0], "<=", 0.0)
    return b.build()


def _unbounded_lp():
    """Five free columns, cost 1 on x3, and the single row 34 x4 <= 0."""
    b = LPBuilder()
    for j in range(5):
        b.add_var(-np.inf, np.inf, 1.0 if j == 3 else 0.0)
    b.add_row([4], [34.0], "<=", 0.0)
    return b.build()


@settings(max_examples=150, deadline=None)
@given(lps_and_cuts())
# unbounded, then unbounded again (x3 and x4 go to -inf together): a warm
# run after the first, not optimal, one reported 0.0 optimal
@example((_unbounded_lp(),
          [(np.array([[0, 1], [3, 4]]), np.array([[0.0, 0.0], [-3.0, 1e-5]]), np.zeros(2))]))
# unbounded, then infeasible: the warm run repeated the unbounded status
@example((_one_row_lp(obj={5: 1.0}),
          [(np.array([[0]]), np.array([[-2.0]]), np.array([-1.1920929e-07]))]))
# unbounded twice: the second warm run ended with HiGHS's model status unknown
@example((_one_row_lp(lower={4: -2.0}, upper={3: -1.0}, obj={4: -1.0}),
          [(np.array([[3, 4]]), np.array([[-1.0, -0.03125]]), np.array([0.0])),
           (np.array([[0, 1], [0, 1], [3, 4]]), np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -0.5]]),
            np.zeros(3))]))
def test_warm_rows_agree_with_cold_solves(case):
    lp, blocks = case
    warm, cold = GrowingLP(lp, solve_highs), GrowingLP(lp, lambda lp: solve_highs(lp))
    first, whole = warm.solve(), cold.solve()
    assert first.status is whole.status and first.iterations == whole.iterations
    if first.status is Status.OPTIMAL:
        assert first.objective == whole.objective and np.array_equal(first.x, whole.x)
    for block in blocks:
        warm.add_rows(*block)
        cold.add_rows(*block)
        res, oracle = warm.solve(), cold.solve()
        assert warm.nrows == cold.nrows == cold._lp.nrows
        assert res.status is oracle.status
        if oracle.status is Status.OPTIMAL:
            scale = max(1.0, abs(oracle.objective))
            assert abs(res.objective - oracle.objective) <= 1e-7 * scale
            assert cold._lp.max_violation(res.x) <= 1e-7 * scale


def test_a_wrapped_solve_highs_keeps_the_warm_route(monkeypatch):
    # the benchmark's tracer replaces solve_highs in place in every module
    calls = []
    original = lp_module.solve_highs

    def wrapper(lp):
        calls.append(lp)
        return original(lp)

    monkeypatch.setattr(lp_module, "solve_highs", wrapper)
    lp = _two_columns()
    block = (np.array([[0]]), np.array([[1.0]]), np.array([1.0]))  # x0 <= 1, binding
    warm = GrowingLP(lp, get_solver("highs"))
    warm.add_rows(*block)
    assert warm.solve().objective == pytest.approx(0.0, abs=1e-9) and not calls
    cold = GrowingLP(lp, lambda lp: wrapper(lp))
    cold.add_rows(*block)
    assert cold.solve().objective == pytest.approx(0.0, abs=1e-9)
    assert len(calls) == 1 and calls[0].nrows == lp.nrows + 1
