import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import assert_basis_gives_x, oracle_solve, random_lp
from swcopt.builders import _separable_blocks, build_swc, relaxed_grouping, vertex_paths
from swcopt.inventory import inventory_benchmark
from swcopt.lp import LPBuilder, LPInstance, Status, solve_highs
from swcopt.sampling import build_prefix_tree
from swcopt.simplex import (
    BuiltinSizeLimitError,
    _blocks,
    _solve_block,
    _standardize,
    solve_builtin,
)


def _lp(rows, c, bounds, senses, rhs):
    b = LPBuilder()
    for j, (lo, hi) in enumerate(bounds):
        b.add_var(lo, hi, c[j], f"v{j}")
    for coefs, s, r in zip(rows, senses, rhs):
        cols = [j for j, v in enumerate(coefs) if v != 0]
        b.add_row(cols, [coefs[j] for j in cols], s, r)
    return b.build()


def test_single_variable_maximization():
    lp = _lp([[1.0]], [-1.0], [(0, np.inf)], ["<="], [3.0])
    res = solve_builtin(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)


def test_two_by_two_vertex():
    lp = _lp(
        [[1.0, 2.0], [3.0, 1.0]],
        [1.0, 1.0],
        [(0, np.inf), (0, np.inf)],
        [">=", ">="],
        [4.0, 6.0],
    )
    res = solve_builtin(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(2.8, abs=1e-9)
    np.testing.assert_allclose(res.x, [1.6, 1.2], atol=1e-9)


def test_conflicting_bounds_infeasible():
    lp = _lp([[1.0], [1.0]], [0.0], [(0, np.inf)], [">=", "<="], [1.0, 0.0])
    assert solve_builtin(lp).status is Status.INFEASIBLE


def test_unbounded_direction_detected():
    lp = _lp([[1.0, -1.0]], [-1.0, 0.0], [(0, np.inf), (0, np.inf)], ["<="], [1.0])
    assert solve_builtin(lp).status is Status.UNBOUNDED


def test_free_and_boxed_variables():
    # min x + y with x free, y in [1, 2], x + y >= 0.5
    lp = _lp([[1.0, 1.0]], [1.0, 1.0], [(-np.inf, np.inf), (1.0, 2.0)], [">="], [0.5])
    res = solve_builtin(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(0.5, abs=1e-9)


def test_negative_lower_bound_shift():
    lp = _lp([[1.0]], [1.0], [(-2.0, np.inf)], [">="], [-5.0])
    res = solve_builtin(lp)
    assert res.objective == pytest.approx(-2.0, abs=1e-9)
    assert res.x[0] == pytest.approx(-2.0, abs=1e-9)


def test_equality_rows_and_redundancy():
    # duplicated equality row exercises the redundant-row purge after phase 1
    lp = _lp(
        [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
        [1.0, 2.0],
        [(0, np.inf), (0, np.inf)],
        ["=", "=", "<="],
        [2.0, 2.0, 0.5],
    )
    res = solve_builtin(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(2.75, abs=1e-9)


def test_empty_row_handling():
    b = LPBuilder()
    b.add_var(0, np.inf, 1.0, "x")
    b.add_row([], [], "<=", 1.0)   # trivially true, dropped
    b.add_row([0], [1.0], ">=", 2.0)
    assert solve_builtin(b.build()).objective == pytest.approx(2.0, abs=1e-9)
    b2 = LPBuilder()
    b2.add_var(0, np.inf, 1.0, "x")
    b2.add_row([], [], ">=", 1.0)  # trivially false
    assert solve_builtin(b2.build()).status is Status.INFEASIBLE


def test_determinism_identical_runs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lp = random_lp(rng, 6, 6)
        r1 = solve_builtin(lp)
        r2 = solve_builtin(lp)
        assert r1.status is r2.status
        assert r1.iterations == r2.iterations
        if r1.status is Status.OPTIMAL:
            np.testing.assert_array_equal(r1.x, r2.x)


def test_agrees_with_enumeration_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        lp = random_lp(rng, 6, 6)
        status, value = oracle_solve(lp)
        res = solve_builtin(lp)
        assert res.status.value == status
        if status == "optimal":
            assert res.objective == pytest.approx(value, abs=1e-8)
            assert lp.max_violation(res.x) <= 1e-8
            checked += 1
    assert checked >= 5


def test_optimal_results_carry_the_basis_that_gives_x():
    # <=, = and >= rows, free, boxed and shifted columns, empty rows of each
    # sense, and stacks of independent blocks
    rng = np.random.default_rng(2025)
    optimal = 0
    for k in range(200):
        lp = random_lp(rng, 6, 6, empty_rows=k % 3)
        if k % 4 == 3:
            lp = _stack([lp, random_lp(rng, 6, 6, empty_rows=1)])
        res = solve_builtin(lp)
        if res.status is Status.OPTIMAL:
            assert_basis_gives_x(lp, res)
            optimal += 1
        else:
            assert res.basis is None
    assert optimal > 30


def test_a_dependent_row_dropped_by_the_solve_has_its_slack_basic():
    # the second row is twice the first: phase 1 leaves its artificial in the
    # basis at zero level, and the row is dropped
    lp = _lp([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]], [1.0, 2.0], [(0, np.inf), (0, np.inf)],
             ["=", "=", "<="], [1.0, 2.0, 3.0])
    res = solve_builtin(lp)
    assert res.status is Status.OPTIMAL and {-1, -2} & set(res.basis.tolist())
    assert_basis_gives_x(lp, res)


def test_agrees_with_highs():
    rng = np.random.default_rng(99)
    for _ in range(40):
        lp = random_lp(rng, 7, 7)
        rb, rh = solve_builtin(lp), solve_highs(lp)
        assert rb.status is rh.status
        if rb.status is Status.OPTIMAL:
            assert rb.objective == pytest.approx(rh.objective, abs=1e-7)


def test_weak_duality_smoke():
    # any feasible point the test supplies upper-bounds the reported minimum
    lp = _lp(
        [[2.0, 1.0], [1.0, 3.0]],
        [3.0, 4.0],
        [(0, np.inf), (0, np.inf)],
        [">=", ">="],
        [4.0, 6.0],
    )
    res = solve_builtin(lp)
    for point in ([4.0, 4.0], [2.0, 2.0], [0.0, 4.5]):
        x = np.array(point)
        if lp.max_violation(x) <= 1e-12:
            assert res.objective <= lp.obj @ x + 1e-9


def test_size_limit_refusal_and_force():
    b = LPBuilder()
    for j in range(30):
        b.add_var(0, np.inf, 1.0, f"v{j}")
    for i in range(20):
        b.add_row([i], [1.0], ">=", 1.0)
    unlinked = b.build()
    b.add_row(list(range(30)), [1.0] * 30, ">=", 0.0)  # links the 30 blocks into one
    lp = b.build()
    with pytest.raises(BuiltinSizeLimitError):
        solve_builtin(lp, size_limit=10)
    res = solve_builtin(lp, size_limit=10, force=True)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(20.0, abs=1e-9)
    # the limit applies per independent block: 20 one-row blocks, 10 empty columns
    res = solve_builtin(unlinked, size_limit=10)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(20.0, abs=1e-9)


def test_size_limit_refused_before_dense_arrays():
    # one block: x_i + x_{i+1} >= 1 for i < 5000; dense, the standard form is 400 MB
    m = 5000
    lp = LPInstance(
        ncols=m + 1, lower=np.zeros(m + 1), upper=np.full(m + 1, np.inf), obj=np.ones(m + 1),
        indptr=np.arange(0, 2 * m + 1, 2), indices=(np.arange(m)[:, None] + [0, 1]).ravel(),
        data=np.ones(2 * m), senses=(">=",) * m, rhs=np.ones(m),
    )
    tracemalloc.start()
    try:
        with pytest.raises(BuiltinSizeLimitError, match="5000 rows"):
            solve_builtin(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


def test_iteration_limit_status():
    lp = _lp(
        [[1.0, 2.0], [3.0, 1.0]],
        [1.0, 1.0],
        [(0, np.inf), (0, np.inf)],
        [">=", ">="],
        [4.0, 6.0],
    )
    res = solve_builtin(lp, max_iter=1)
    assert res.status is Status.ITERATION_LIMIT
    assert res.objective is None


# ---------------------------------------------------------------------------
# differential tests: the array-built standard form against the row-wise one


def _same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _rowwise_x(old, z: np.ndarray) -> np.ndarray:
    """The original variables of a standard-form point, by the oracle's recovery lists."""
    return np.array([const + sum(coef * z[col] for col, coef in refs)
                     for const, refs in old.recover], dtype=float)


def assert_same_standard_form(lp: LPInstance) -> None:
    old, new = oracles._standardize(lp), _standardize(lp)
    assert (new is None) == (old is None)
    if old is None:
        return
    _same_bytes(new.dense(slice(None), slice(None)), old.A, "A")
    _same_bytes(new.b, old.b, "b")
    _same_bytes(new.c, old.c, "c")
    _same_bytes(new.slack_plus, old.slack_plus, "slack_plus")
    n = old.A.shape[1]
    rng = np.random.default_rng(n)
    z = np.where(rng.random(n) < 0.3, 0.0, rng.random(n) * 10)
    _same_bytes(new.original(z), _rowwise_x(old, z), "x")


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 0.1]) | st.floats(-50, 50)
_RHS = _VALUES | st.sampled_from([1e-12, -1e-12, 2e-12, -2e-12])


@st.composite
def small_lps(draw):
    """All four bound kinds, empty and cancelling rows, repeated columns in a
    row, explicit zeros and signed zero right-hand sides."""
    b = LPBuilder()
    n = draw(st.integers(1, 6))
    for _ in range(n):
        kind = draw(st.sampled_from(("free", "lower", "upper", "boxed")))
        lo = draw(_VALUES)
        hi = lo + draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 10))
        b.add_var(lo if kind in ("lower", "boxed") else -np.inf,
                  hi if kind in ("upper", "boxed") else np.inf, draw(_VALUES))
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.lists(st.integers(0, n - 1), max_size=5))
        vals = draw(st.lists(_VALUES, min_size=len(cols), max_size=len(cols)))
        b.add_row(cols, vals, draw(st.sampled_from(("<=", "=", ">="))), draw(_RHS))
    return b.build()


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_standard_form_matches_rowwise_oracle(lp):
    assert_same_standard_form(lp)


@pytest.mark.parametrize("sense", ["<=", "=", ">="])
@pytest.mark.parametrize("rhs", [-2.0, 0.0, -0.0])
def test_standard_form_signed_rhs(sense, rhs):
    # a plain row, an empty row, a cancelling repeated column, an explicit zero
    for cols, vals in (([0, 1], [1.0, -2.0]), ([], []), ([0, 0], [1.0, -1.0]), ([1], [0.0])):
        b = LPBuilder()
        b.add_var(-1.0, np.inf, 1.0)
        b.add_var(-np.inf, 3.0, -1.0)
        b.add_row(cols, vals, sense, rhs)
        b.add_row([0, 1], [2.0, 1.0], ">=", -1.0)
        assert_same_standard_form(b.build())


@pytest.fixture(scope="module")
def reference_lps():
    problem = inventory_benchmark(5)
    paths = vertex_paths(problem.uncertainty)
    return {"ro": build_swc(problem, build_prefix_tree(paths))[0],
            "rt": build_swc(problem, relaxed_grouping(paths))[0],
            "rws": _separable_blocks(problem, paths, None)[0]}


@pytest.mark.parametrize("mode", ["ro", "rt", "rws"])
def test_reference_lps_standard_form(reference_lps, mode):
    assert_same_standard_form(reference_lps[mode])


@pytest.mark.parametrize("mode", ["ro", "rt"])
def test_one_block_reference_solves_match_rowwise_path(reference_lps, mode):
    # one block: the same dense solve as the row-wise standard form feeds it
    lp = reference_lps[mode]
    assert len(_blocks(_standardize(lp).A)) == 1
    old = oracles._standardize(lp)
    status, z, iterations, _ = _solve_block(old.A, old.b, old.c, old.slack_plus, 1e-9, None)
    res = solve_builtin(lp)
    assert res.status is status is Status.OPTIMAL and res.iterations == iterations
    _same_bytes(res.x, _rowwise_x(old, z), "x")


def _stack(lps):
    """The block-diagonal LP of independent LPs."""
    offsets = np.cumsum([0] + [lp.ncols for lp in lps])
    nnz = np.cumsum([0] + [lp.indptr[-1] for lp in lps])
    cat = np.concatenate
    return LPInstance(
        ncols=int(offsets[-1]),
        lower=cat([lp.lower for lp in lps]), upper=cat([lp.upper for lp in lps]),
        obj=cat([lp.obj for lp in lps]),
        indptr=cat([[0]] + [lp.indptr[1:] + k for lp, k in zip(lps, nnz)]),
        indices=cat([lp.indices + k for lp, k in zip(lps, offsets)]),
        data=cat([lp.data for lp in lps]),
        senses=cat([lp.senses for lp in lps]), rhs=cat([lp.rhs for lp in lps]),
    )


def _check_stack(lps) -> str:
    stack = solve_builtin(_stack(lps))
    solo = [solve_builtin(lp) for lp in lps]
    oracle = [oracle_solve(lp) for lp in lps]
    assert [r.status.value for r in solo] == [s for s, _ in oracle]
    want = next((s for s in ("infeasible", "unbounded") if s in dict(oracle)), "optimal")
    assert stack.status.value == want
    if want == "optimal":
        # each block is the same dense solve as its LP alone
        assert stack.iterations == sum(r.iterations for r in solo)
        _same_bytes(stack.x, np.concatenate([r.x for r in solo]), "x")
        assert stack.objective == pytest.approx(sum(v for _, v in oracle), abs=1e-7)
    return want


def test_stacked_blocks_agree_with_oracle():
    rng = np.random.default_rng(11)
    seen = {_check_stack([random_lp(rng, 6, 6) for _ in range(3)]) for _ in range(40)}
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_stack_of_infeasible_and_unbounded_block_is_infeasible():
    rng = np.random.default_rng(5)
    found = {}
    while len(found) < 2:
        lp = random_lp(rng, 6, 6)
        found.setdefault(oracle_solve(lp)[0], lp)
        found.pop("optimal", None)
    pair = [found["unbounded"], found["infeasible"]]
    assert _check_stack(pair) == _check_stack(pair[::-1]) == "infeasible"


def test_stack_status_order():
    # an empty column with negative cost: unbounded at iteration 0
    unbounded = _lp([[0.0, 1.0]], [-1.0, 0.0], [(0, np.inf), (0, np.inf)], ["<="], [1.0])
    needs_two = _lp([[1.0, 2.0], [3.0, 1.0]], [1.0, 1.0], [(0, np.inf), (0, np.inf)],
                    [">=", ">="], [4.0, 6.0])
    infeasible = _lp([[-1.0]], [0.0], [(0, np.inf)], [">="], [1.0])  # proved at iteration 0
    assert solve_builtin(unbounded).status is Status.UNBOUNDED
    assert solve_builtin(infeasible, max_iter=1).status is Status.INFEASIBLE
    for blocks, want in (([unbounded, needs_two], Status.ITERATION_LIMIT),
                         ([needs_two, unbounded, infeasible], Status.INFEASIBLE)):
        for order in (blocks, blocks[::-1]):
            res = solve_builtin(_stack(order), max_iter=1)
            assert res.status is want and res.x is None
