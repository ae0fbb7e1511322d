"""Differential tests: scenario_costs with its certified basis pool against
the stacked-solve oracle (oracles.scenario_costs), which solves every path.

The gate everywhere: identical violation indicators (cost > gamma +
VIOLATION_TOL) and costs within 1e-9 relative, with the same infinite
costs for infeasible and unbounded paths.
"""
import copy
import logging
import pickle
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swcopt import builders
from swcopt.builders import POOL_TOL, scenario_costs, solve_swc_paths, vertex_paths
from swcopt.complexity import sample_complexity
from swcopt.inventory import BENCHMARK_N0, inventory_benchmark
from swcopt.lp import SolveResult, Status, get_solver, solve_highs
from swcopt.model import (EQ, GE, LE, AffineMap, BoxSupport, DiscreteSupport, MultistageRobustLP,
                          ScenarioPaths, StageBlock, StageDims, UncertaintySet)
from swcopt.sampling import draw_paths
from swcopt.validation import VIOLATION_TOL


def assert_matches_oracle(costs, oracle, gamma):
    assert costs.shape == oracle.shape
    np.testing.assert_array_equal(costs > gamma + VIOLATION_TOL, oracle > gamma + VIOLATION_TOL)
    inf = np.isinf(oracle)
    np.testing.assert_array_equal(costs[inf], oracle[inf])
    err = np.abs(costs[~inf] - oracle[~inf]) / np.maximum(1.0, np.abs(oracle[~inf]))
    assert np.all(err <= 1e-9), float(np.max(err))


def pool_record(caplog):
    records = [r for r in caplog.records if r.name == "swcopt.builders"
               and hasattr(r, "scenario_costs")]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    return records[0].scenario_costs


@contextmanager
def pool_records():
    """The scenario_costs records logged inside the block, without caplog,
    which hypothesis's tests cannot take."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.addFilter(lambda r: hasattr(r, "scenario_costs"))
    handler.emit = lambda r: records.append(r.scenario_costs)
    logger = logging.getLogger("swcopt.builders")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def constant_recourse_problem(rng, H, free, degenerate, discrete):
    """Random model whose T, W and c are constant and whose h is affine in
    the uncertainty.  Every row holds at a reference decision x_bar for the
    nominal uncertainty; rows with a zero margin are tight there, and rows
    with a zero right-hand side and no uncertainty make degenerate
    vertices.  Costs are nonnegative on nonnegative variables and zero on
    free ones, so no path is unbounded."""
    n = [int(rng.integers(1, 4)) for _ in range(H)]
    m = [int(rng.integers(1, 4)) for _ in range(H)]
    d = [int(rng.integers(1, 3)) for _ in range(H - 1)]
    nonneg = [tuple(bool(v) for v in ~(free & (rng.random(nt) < 0.4))) for nt in n]
    x_bar = [np.where(sign, rng.integers(0, 3, nt), rng.integers(-2, 3, nt)).astype(float)
             for nt, sign in zip(n, nonneg)]
    if discrete:
        supports = [DiscreteSupport(tuple(rng.integers(0, 4, (3, k)).astype(float)))
                    for k in d]
    else:
        supports = [BoxSupport(rng.uniform(0.5, 2.0, k), 0.5) for k in d]
    nominal = np.concatenate([s.center() for s in supports])

    def rows(mt, act, revealed):
        senses = tuple(rng.choice([LE, EQ, GE], mt).tolist())
        margin = rng.integers(0, 3, mt) * np.where(np.array(senses) == EQ, 0, 1)
        if degenerate:
            margin[rng.random(mt) < 0.5] = 0
        margin = np.where(np.array(senses) == LE, margin, -margin)
        terms = [(k, rng.uniform(-1.0, 1.0, mt) * (rng.random(mt) < 0.5))
                 for k in range(revealed)]
        shift = sum(arr * nominal[k] for k, arr in terms)
        base = act + margin - shift
        if degenerate:  # constant zero rows
            zero = (rng.random(mt) < 0.3) & (act == 0)
            base[zero] = 0.0
            terms = [(k, np.where(zero, 0.0, arr)) for k, arr in terms]
        return senses, AffineMap(base, tuple(terms))

    A = rng.integers(-1, 3, (m[0], n[0])).astype(float)
    senses1, h1 = rows(m[0], A @ x_bar[0], 0)
    blocks = []
    for t in range(2, H + 1):
        T = rng.integers(-1, 2, (m[t - 1], n[t - 2])).astype(float)
        W = rng.integers(-1, 3, (m[t - 1], n[t - 1])).astype(float)
        senses, h = rows(m[t - 1], T @ x_bar[t - 2] + W @ x_bar[t - 1], sum(d[: t - 1]))
        c = np.where(nonneg[t - 1], rng.integers(0, 4, n[t - 1]), 0).astype(float)
        blocks.append(StageBlock(AffineMap(T), AffineMap(W), h, AffineMap(c), senses))
    c1 = np.where(nonneg[0], rng.integers(0, 4, n[0]), 0).astype(float)
    problem = MultistageRobustLP(StageDims(H, tuple(n), tuple(m)), A, h1.base, c1, senses1,
                                 tuple(blocks), UncertaintySet(tuple(supports)), tuple(nonneg))
    return problem, x_bar[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    N=st.integers(33, 120),
    free=st.booleans(),
    degenerate=st.booleans(),
    discrete=st.booleans(),
    fixed=st.sampled_from(["none", "reference", "perturbed"]),
)
def test_random_constant_recourse_models_match_oracle(seed, H, N, free, degenerate, discrete,
                                                      fixed):
    rng = np.random.default_rng(seed)
    problem, x_bar = constant_recourse_problem(rng, H, free, degenerate, discrete)
    # a perturbed first stage leaves some paths infeasible
    x1 = {"none": None, "reference": x_bar,
          "perturbed": x_bar + rng.integers(-2, 3, x_bar.size)}[fixed]
    paths = draw_paths(problem.uncertainty, N, [seed, 1])
    oracle = oracles.scenario_costs(problem, paths, x1=x1)
    with pool_records() as records:
        costs = scenario_costs(problem, paths, x1=x1)
    finite = oracle[np.isfinite(oracle)]
    gamma = float(np.median(finite)) if finite.size else 0.0
    assert_matches_oracle(costs, oracle, gamma)
    # the solver sees only seeds and the paths walks leave behind
    stats = records[-1]
    assert stats["solves"] == stats["seeds"] + stats["fallback"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    free=st.booleans(),
    degenerate=st.booleans(),
    discrete=st.booleans(),
)
def test_rows_by_paths_match_the_oracle_layout(seed, H, free, degenerate, discrete):
    # the pricing layer's right-hand sides, one column per path, are the
    # oracle's rows bit for bit, for x1 free, a fixed x1 and one state per
    # path entering at every stage s, and so are their tolerances; pricing
    # on them gives the oracle's violation indicators
    rng = np.random.default_rng(seed)
    problem, x_bar = constant_recourse_problem(rng, H, free, degenerate, discrete)
    paths = draw_paths(problem.uncertainty, 60, [seed, 1])
    X, n = paths.values, problem.dims.n
    cases = [(None, 2), (x_bar, 2)]
    cases += [(rng.integers(-3, 4, (len(X), n[s - 2])).astype(float), s) for s in range(2, H + 1)]
    for state, s in cases:
        B = builders._path_rhs(problem, X, state, s)
        want = oracles.path_rhs(problem, X, state, s)
        assert B.flags.c_contiguous
        np.testing.assert_array_equal(B, want.T)
        np.testing.assert_array_equal(builders._rhs_tol(B), oracles.rhs_tol(want))
    for x1 in (None, x_bar, x_bar + rng.integers(-2, 3, x_bar.size)):
        costs = scenario_costs(problem, paths, x1=x1)
        oracle = oracles.scenario_costs(problem, paths, x1=x1)
        finite = oracle[np.isfinite(oracle)]
        for gamma in np.quantile(finite, [0.1, 0.5, 0.9]) if finite.size else [0.0]:
            assert_matches_oracle(costs, oracle, float(gamma))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    free=st.booleans(),
    degenerate=st.booleans(),
    discrete=st.booleans(),
)
def test_warm_pools_match_cold_copies(seed, H, free, degenerate, discrete):
    # one problem priced call after call, at x1 free and at fixed x1 that
    # leave some paths infeasible, against a copy that carries no pools
    rng = np.random.default_rng(seed)
    problem, x_bar = constant_recourse_problem(rng, H, free, degenerate, discrete)
    fixed = [x_bar, None, x_bar + rng.integers(-2, 3, x_bar.size), x_bar,
             x_bar + rng.integers(-1, 2, x_bar.size), None]
    kept = {}  # the pools' bases after the last call on each LP
    for call, x1 in enumerate(fixed):
        paths = draw_paths(problem.uncertainty, 40, [seed, call])
        with pool_records() as records:
            warm = scenario_costs(problem, paths, x1=x1)
        cold = scenario_costs(copy.copy(problem), paths, x1=x1)
        finite = cold[np.isfinite(cold)]
        assert_matches_oracle(warm, cold, float(np.median(finite)) if finite.size else 0.0)
        key = x1 is None
        assert records[-1]["warm"] == kept.get(key, 0)
        kept[key] = records[-1]["kept"]


def test_validation_batches_warm_match_cold(fixed_solutions):
    # the benchmark's validation: both solutions on one problem, batch after
    # batch, priced as on a fresh copy; warm calls need no solve
    problem, solutions = fixed_solutions
    for seed in ([41, 1], [42, 1]):
        paths = draw_paths(problem.uncertainty, 2000, seed)
        for x1, gamma in solutions.values():
            with pool_records() as records:
                warm = scenario_costs(problem, paths, x1=x1)
            assert_matches_oracle(warm, scenario_costs(copy.copy(problem), paths, x1=x1), gamma)
            assert records[-1]["warm"] > 0 and records[-1]["rejected"] == 0
    assert records[-1]["solves"] == 0


def test_a_pickled_or_copied_problem_carries_no_pools():
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 100, [2, 1])
    x1 = np.array([70.0, 70.0, 70.0])
    costs = scenario_costs(problem, paths, x1=x1)
    assert problem.pools
    for clone in (pickle.loads(pickle.dumps(problem)), copy.copy(problem), copy.deepcopy(problem)):
        assert clone.pools == {}
        with pool_records() as records:
            np.testing.assert_allclose(scenario_costs(clone, paths, x1=x1), costs, rtol=1e-9)
        assert records[-1]["warm"] == 0 and records[-1]["seeds"] == 1
    assert problem.pools


def test_pools_are_per_solver():
    # the builtin simplex never prices on HiGHS's bases, nor HiGHS on its;
    # a solver that reports no basis leaves HiGHS's pools pooling
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 200, [5, 1])
    x1 = np.array([70.0, 70.0, 70.0])
    with pool_records() as records:
        highs = scenario_costs(problem, paths, "highs", x1=x1)
        builtin = scenario_costs(problem, paths, "builtin", x1=x1)
        bare = scenario_costs(problem, paths, lambda lp: replace(solve_highs(lp), basis=None),
                              x1=x1)
        again = scenario_costs(problem, paths, "highs", x1=x1)
        builtin_again = scenario_costs(problem, paths, "builtin", x1=x1)
    first, cold_builtin, no_bases, warm, warm_builtin = records
    assert first["warm"] == cold_builtin["warm"] == no_bases["warm"] == 0
    assert cold_builtin["seeds"] == 1 and no_bases["solved"] == 200
    assert warm["warm"] == first["kept"] and warm["solves"] == 0 and warm["certified"] == 200
    assert warm_builtin["warm"] == cold_builtin["kept"] and warm_builtin["solves"] == 0
    assert len(problem.pools) == 3
    assert get_solver("highs") in problem.pools and get_solver("builtin") in problem.pools
    for costs in (builtin, bare, again, builtin_again):
        np.testing.assert_allclose(costs, highs, rtol=1e-9)


def test_a_batch_takes_one_solve():
    # 2000 paths at a fixed x1: the seed is the only solve; walks from its
    # basis find every other basis the batch needs
    problem = inventory_benchmark(5)
    paths = draw_paths(problem.uncertainty, 2000, [5, 1])
    x1 = np.array([70.0, 70.0, 70.0])
    calls = []

    def solve(lp):
        calls.append(lp.nrows)
        return solve_highs(lp)

    with pool_records() as records:
        costs = scenario_costs(problem, paths, solve, x1=x1)
    oracle = oracles.scenario_costs(problem, paths, x1=x1)
    assert np.all(np.isfinite(oracle))
    assert np.all(np.abs(costs - oracle) <= 1e-9 * np.abs(oracle))
    assert len(calls) == records[-1]["solves"] == 1
    assert records[-1]["fallback"] == 0 and records[-1]["pivots"] > 0


def test_uncertain_recourse_matrix_gets_no_pool(caplog):
    problem = inventory_benchmark(3)
    blk = problem.stage_block(2)
    W = AffineMap(blk.W.base, ((0, np.full(blk.W.shape, 0.001)),))
    uncertain = MultistageRobustLP(problem.dims, problem.A, problem.h1, problem.c1,
                                   problem.senses1,
                                   (StageBlock(blk.T, W, blk.h, blk.c, blk.senses),
                                    *problem.stages[1:]),
                                   problem.uncertainty, problem.nonneg)
    paths = draw_paths(uncertain.uncertainty, 100, [2, 1])
    x1 = np.array([70.0, 70.0, 70.0])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        costs = scenario_costs(uncertain, paths, x1=x1)
    stats = pool_record(caplog)
    assert stats["solved"] == 100 and stats["certified"] == 0 and stats["kept"] == 0
    # without a pool the loop is the oracle's chunked solve
    np.testing.assert_array_equal(costs, oracles.scenario_costs(uncertain, paths, x1=x1))


@pytest.fixture(scope="module", params=["continuous", "integer"])
def fixed_solutions(request):
    """The benchmark's two fixed solutions: SwC at N = 63 from training
    stream [63, 4], and the RO vertex-tree solution."""
    problem = inventory_benchmark(5, request.param)
    train = draw_paths(problem.uncertainty, sample_complexity(0.3, 0.001, BENCHMARK_N0), [63, 4])
    swc = solve_swc_paths(problem, train)
    ro = solve_swc_paths(problem, vertex_paths(problem.uncertainty))
    return problem, {"swc63": swc[1:3], "ro": ro[1:3]}


@pytest.mark.parametrize("solution", ["swc63", "ro"])
@pytest.mark.parametrize("seed", [[5, 1], [7001, 1]])
def test_benchmark_solutions_match_oracle(fixed_solutions, solution, seed, caplog):
    problem, solutions = fixed_solutions
    x1, gamma = solutions[solution]
    paths = draw_paths(problem.uncertainty, 2000, seed)
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        costs = scenario_costs(problem, paths, x1=x1)
    assert_matches_oracle(costs, oracles.scenario_costs(problem, paths, x1=x1), gamma)
    stats = pool_record(caplog)
    assert stats["certified"] > 1800 and stats["rejected"] == 0


def test_wait_and_see_costs_match_oracle():
    # x1 free: the whole deterministic LP, first-stage rows included
    problem = inventory_benchmark(5, "integer")
    paths = draw_paths(problem.uncertainty, 300, [3, 0])
    oracle = oracles.scenario_costs(problem, paths)
    assert_matches_oracle(scenario_costs(problem, paths), oracle, float(np.median(oracle)))


def infeasible_tail_problem():
    """Two stages: x1 >= 0 at unit cost, then y >= xi - x1 and y <= xi at
    unit cost; a path with xi < 0 has no recourse."""
    support = DiscreteSupport(tuple(np.array([v]) for v in (-1.0, 1.0, 2.0, 3.0)))
    stage = StageBlock(T=AffineMap(np.array([[1.0], [0.0]])), W=AffineMap(np.array([[1.0], [1.0]])),
                       h=AffineMap(np.zeros(2), ((0, np.ones(2)),)), c=AffineMap(np.ones(1)),
                       senses=(GE, LE))
    return MultistageRobustLP(StageDims(2, (1, 1), (1, 2)), np.ones((1, 1)), np.zeros(1),
                              np.ones(1), (GE,), (stage,), UncertaintySet((support,)))


def test_debug_record_counts_an_infeasible_path(caplog):
    problem = infeasible_tail_problem()
    xi = np.array([1.0, 2.0, 3.0] * 13 + [-1.0])[:, None]  # 39 feasible paths, then one not
    paths = ScenarioPaths(xi, (1,))
    x1 = np.array([0.5])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        costs = scenario_costs(problem, paths, x1=x1)
    np.testing.assert_array_equal(costs[:-1], 0.5 + np.maximum(0.0, xi[:-1, 0] - 0.5))
    assert costs[-1] == np.inf
    stats = pool_record(caplog)
    # path 0 seeds the pool, whose basis prices every other feasible path.
    # The infeasible path's walk ends, after one pivot, on a row with no
    # entering column, whose ray separates the path: no solve proves it
    # infeasible
    assert stats == {"paths": 40, "solved": 1, "certified": 39, "kept": 1, "rays": 1,
                     "rejected": 0, "solves": 1, "seeds": 1, "fallback": 0, "pivots": 1,
                     "failed": {}, "warm": 0}
    assert ("40 paths, 1 solved, 39 certified, 1 bases kept, 1 rays, 0 rejected, 1 solves "
            "(1 seeds, 0 fallback), 1 pivots") in caplog.records[-1].getMessage()


def assert_rays_are_farkas(problem, paths, x1, costs):
    """Every ray y the pool of the call's LP keeps has y'A <= 0 on the
    sign-constrained columns and y'A = 0 on the free ones (within
    POOL_TOL), separates (y'b above its tolerance) at least one path the
    call found infeasible, and separates no path it found feasible.
    Returns the number of rays."""
    pool = problem.pools[get_solver("highs")][None if x1 is None else 2]["optimal"]
    B = builders._path_rhs(problem, paths.values, None if x1 is None else np.asarray(x1, float))
    tol = builders._rhs_tol(B)  # B holds one column per path
    signed, free = pool.bounded & ~pool.fixed, ~pool.bounded & ~pool.fixed
    for y in pool.rays:
        a = y @ pool.A
        assert np.all(a[signed] <= POOL_TOL) and np.all(np.abs(a[free]) <= POOL_TOL)
        separated = y @ B > tol
        assert separated[costs == np.inf].any() and np.all(costs[separated] == np.inf)
    return len(pool.rays)


@pytest.mark.parametrize("x1", [[0.0, 0.0, 0.0], [120.0, 94.0, 0.0], [200.0, 200.0, 200.0]],
                         ids=["zero", "mixed", "high"])
def test_an_all_infeasible_batch_takes_two_solves(x1):
    # the seed path is infeasible, so its LP at b = 0 seeds the pool; the
    # seed path's walk from that basis ends on a Farkas row whose ray
    # separates every path of the batch
    problem = inventory_benchmark(5)
    paths = draw_paths(problem.uncertainty, 2000, [5, 1])
    with pool_records() as records:
        costs = scenario_costs(problem, paths, x1=np.array(x1))
    assert np.all(costs == np.inf)
    assert records[-1]["solves"] == records[-1]["seeds"] == 2 and records[-1]["fallback"] == 0
    assert assert_rays_are_farkas(problem, paths, x1, costs) >= 1
    head = ScenarioPaths(paths.values[:50], paths.widths)
    assert np.all(oracles.scenario_costs(problem, head, x1=np.array(x1)) == np.inf)


def test_rays_of_random_models_are_farkas_certificates():
    # the sweep's models (tools/sweep.py) on their first 60 seeds, at x1
    # free and at the perturbed x1, whose paths are often infeasible
    rays = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        problem, x_bar = constant_recourse_problem(rng, int(rng.integers(2, 5)), bool(seed & 1),
                                                   bool(seed & 2), bool(seed & 4))
        perturbed = x_bar + rng.integers(-2, 3, x_bar.size)
        paths = draw_paths(problem.uncertainty, 200, [seed, 1])
        # a fresh pool for each LP, so every ray comes from these paths' walks
        for x1 in (None, perturbed):
            fresh = copy.copy(problem)
            rays += assert_rays_are_farkas(fresh, paths, x1, scenario_costs(fresh, paths, x1=x1))
    assert rays >= 40  # 52 when written


def test_a_solver_without_bases_stacks_every_other_path_at_once(caplog):
    # the seed's result carries no basis, so no pool can fill: the other
    # 1999 paths go to the solver as one stack of at most CHUNK_ROWS rows
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 2000, [5, 1])
    x1 = np.array([70.0, 70.0, 70.0])
    calls = []

    def solve(lp):
        calls.append(lp.nrows)
        return replace(solve_highs(lp), basis=None)

    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        costs = scenario_costs(problem, paths, solve, x1=x1)
    stats = pool_record(caplog)
    assert stats["solves"] == len(calls) == 2 and stats["solved"] == 2000
    assert calls[1] == 1999 * calls[0]
    np.testing.assert_allclose(costs, scenario_costs(problem, paths, x1=x1), rtol=1e-9)


def test_an_infeasible_seed_path_feeds_bases_and_a_ray(caplog):
    # every tenth path is infeasible, path 0 among them: path 0's LP at b = 0
    # seeds the pool, path 0's walk from it finds a ray that separates every
    # other infeasible path, and the other walks find the bases that price
    # every feasible one.
    problem = infeasible_tail_problem()
    xi = np.resize([-1.0, 1.0, 2.0, 3.0, 2.0, 1.0, 3.0, 2.0, 1.0, 3.0], 2000)
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        costs = scenario_costs(problem, ScenarioPaths(xi[:, None], (1,)), x1=np.array([0.5]))
    np.testing.assert_array_equal(costs, np.where(xi < 0, np.inf, xi))
    stats = pool_record(caplog)
    # path 0 and its LP at b = 0 seed the pool, and no walk needs a solve
    assert stats["solves"] == stats["seeds"] == 2 and stats["fallback"] == 0
    assert stats["rays"] == 1
    assert stats["solved"] == 1 and stats["certified"] == 1999
    assert stats["failed"] == {"infeasible": 1} and stats["rejected"] == 0


def test_sparse_infeasible_paths_match_oracle(caplog):
    # 1% of the paths infeasible at x1, scattered; the oracle solves each
    # path alone after its one failed stack
    problem = infeasible_tail_problem()
    rng = np.random.default_rng(0)
    xi = rng.choice([1.0, 2.0, 3.0], 1000)
    xi[rng.choice(1000, 10, replace=False)] = -1.0
    paths, x1 = ScenarioPaths(xi[:, None], (1,)), np.array([0.5])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        costs = scenario_costs(problem, paths, x1=x1)
    oracle = oracles.scenario_costs(problem, paths, x1=x1)
    assert np.count_nonzero(oracle == np.inf) == 10
    assert_matches_oracle(costs, oracle, 1.0)
    # path 0's solve seeds the pool; the walk of the first infeasible path
    # finds a ray that separates every other one
    assert pool_record(caplog)["solves"] == 1


def test_zero_solutions_fail_the_self_check(caplog):
    # a solver that reports x = 0 as optimal, with the basis HiGHS ends on:
    # the basis is sound, but its y'b does not reproduce the zero cost.  At
    # this x1 every path's recourse is feasible, so HiGHS has a basis for it.
    # The seed's basis is refused, so the other 39 paths are solved in one
    # stack, not one solve each
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 40, seed=[1, 0])
    x1 = np.array([70.0, 70.0, 70.0])

    def solve(lp):
        return SolveResult(Status.OPTIMAL, 0.0, np.zeros(lp.ncols), basis=solve_highs(lp).basis)

    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        costs = scenario_costs(problem, paths, solve, x1=x1)
    np.testing.assert_array_equal(costs, float(problem.c1 @ x1))
    stats = pool_record(caplog)
    assert stats["kept"] == 0 and stats["rejected"] == 1 and stats["solved"] == 40
    assert stats["solves"] == 2 and stats["seeds"] == 1 and stats["fallback"] == 0
