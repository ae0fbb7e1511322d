"""Differential tests: generation over leaves and the L-shaped core method
in builders._solve_grouping, which solves every certificate LP
(solve_swc_paths, swct_value, exact_value's RO and RT), against the
monolithic solve of the whole build_swc LP (the oracle).

The gate everywhere: the value within 1e-7 relative of the oracle's, a
result vector of the full LP's size that is feasible for it (max_violation
<= 1e-7) at objective gamma, and the budget met on every training path
(certificate_feasible).  x1 may differ from the oracle's where the LP has
alternative optima; the budget check is the one that must hold then.
"""
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcopt import builders
from swcopt.builders import (_core_nodes, _solve_grouping, build_swc, exact_value, hybrid_paths,
                             relaxed_grouping, scenario_costs, solve_swc_paths, swct_value,
                             vertex_paths)
from swcopt.inventory import inventory_benchmark
from swcopt.lp import GrowingLP, SolverError, get_solver, require_optimal, solve_highs
from swcopt.model import (GE, AffineMap, DiscreteSupport, MultistageRobustLP, StageBlock,
                          StageDims, UncertaintySet)
from swcopt.sampling import build_prefix_tree, draw_paths
from swcopt.validation import VIOLATION_TOL, certificate_feasible
from test_assembly import assert_same_lp
from test_pool import constant_recourse_problem

HIGHS = get_solver("highs")


def solve_record(caplog):
    records = [r for r in caplog.records if r.name == "swcopt.builders"
               and hasattr(r, "solve_swc")]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    return records[0].solve_swc


def monolithic(problem, paths, grouping=build_prefix_tree):
    lp, _ = build_swc(problem, grouping(paths))
    return lp, require_optimal(HIGHS(lp), "oracle")


def assert_matches_monolithic(problem, paths, solver="highs", grouping=build_prefix_tree,
                              method="generated"):
    """The method's result on the certificate LP of grouping(paths) against
    the oracle; returns the result and its stats."""
    lp, oracle = monolithic(problem, paths, grouping)
    logger = logging.getLogger("swcopt.builders")
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        res = _solve_grouping(problem, grouping(paths), get_solver(solver))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    stats = [r.solve_swc for r in records if hasattr(r, "solve_swc")][-1]
    assert stats["method"] == method
    gamma, x1 = res.x[0], res.x[1 : 1 + problem.dims.n[0]]
    assert abs(res.objective - oracle.objective) <= 1e-7 * max(1.0, abs(oracle.objective))
    assert res.objective == gamma
    assert len(res.x) == lp.ncols
    assert lp.max_violation(res.x) <= 1e-7
    assert lp.obj @ res.x == gamma
    worst = int(np.argmax(scenario_costs(problem, paths, x1=x1)))
    assert certificate_feasible(problem, x1, gamma, paths[worst])
    return res, stats


def expected_method(tree) -> str:
    """The method _solve_grouping should pick for a constant-recourse tree,
    counted from the paths: "core" when some non-leaf node below the root
    has one distinct leaf below it, while the tree shares a prefix."""
    counts = tree.node_counts()
    if counts[0] == counts[-1]:
        return "generated"
    leaf = tree.path_to_node[:, -1]
    for level in range(tree.n_stages - 1):
        pairs = np.unique(np.column_stack([tree.path_to_node[:, level], leaf]), axis=0)
        if np.any(np.bincount(pairs[:, 0]) == 1):
            return "core"
    return "monolithic"


def uncertain_recourse(problem, scale=0.05):
    """The model with stage 2's W moved by scale times the first uncertainty
    component, so that scenario_costs prices no path from a basis pool."""
    blk = problem.stage_block(2)
    W = AffineMap(blk.W.base, ((0, np.full(blk.W.shape, scale)),))
    return MultistageRobustLP(problem.dims, problem.A, problem.h1, problem.c1, problem.senses1,
                              (StageBlock(blk.T, W, blk.h, blk.c, blk.senses),
                               *problem.stages[1:]),
                              problem.uncertainty, problem.nonneg)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    N=st.integers(9, 80),
    free=st.booleans(),
    degenerate=st.booleans(),
    constant=st.booleans(),
)
def test_random_unshared_models_match_monolithic(seed, H, N, free, degenerate, constant):
    rng = np.random.default_rng(seed)
    problem, _ = constant_recourse_problem(rng, H, free, degenerate, discrete=False)
    if not constant:
        problem = uncertain_recourse(problem)
    paths = draw_paths(problem.uncertainty, N, [seed, 0])
    counts = build_prefix_tree(paths).node_counts()
    assert counts[0] == counts[-1]  # box draws share no prefix
    try:
        monolithic(problem, paths)
    except SolverError:
        with pytest.raises(SolverError):
            solve_swc_paths(problem, paths)
        return
    assert_matches_monolithic(problem, paths)


@pytest.mark.parametrize("variant", ["continuous", "integer"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_stage_inventory_matches_monolithic(variant, seed):
    # one uncertainty stage: every tree is unshared, duplicate draws share a leaf
    problem = inventory_benchmark(2, variant)
    assert_matches_monolithic(problem, draw_paths(problem.uncertainty, 200, [seed, 0]))


@pytest.mark.parametrize("N", [63, 1884])
@pytest.mark.parametrize("seed", [[11, 0], [1001, 0], [63, 4]])
def test_five_stage_continuous_matches_monolithic(N, seed):
    problem = inventory_benchmark(5)
    _, stats = assert_matches_monolithic(problem, draw_paths(problem.uncertainty, N, seed))
    assert stats["leaves"] < 100


def test_builtin_masters_match_monolithic():
    problem = inventory_benchmark(5)
    assert_matches_monolithic(problem, draw_paths(problem.uncertainty, 63, [63, 4]), "builtin")


def test_shared_prefixes_take_the_core_method(caplog):
    # generation over single paths stops at 1593.24 here: leaves below one
    # stage-1 node share certificates, which per-path pricing ignores
    problem = inventory_benchmark(5, "integer")
    paths = draw_paths(problem.uncertainty, 1884, [11, 0])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        value, _, _, res = solve_swc_paths(problem, paths)
    assert value == pytest.approx(1644.23, abs=5e-3)
    tree = build_prefix_tree(paths)
    lp, _ = build_swc(problem, tree)
    stats = solve_record(caplog)
    assert stats["method"] == "core" and stats["leaves"] == tree.node_counts()[-1]
    assert stats["iterations"] == res.iterations > 0
    assert len(stats["master_iterations"]) == stats["rounds"]
    assert sum(stats["master_iterations"]) == res.iterations
    # 45 shared stage-1 nodes, a few hundred shared stage-2 nodes
    assert stats["core"][0] == 45 and 0 < stats["core"][1] < tree.node_counts()[1]
    assert stats["optimality_cuts"] > 0 and stats["feasibility_cuts"] > 0
    assert stats["solved"] + stats["certified"] == stats["rounds"] * tree.node_counts()[-1]
    assert stats["rows"] < lp.nrows / 4 and stats["cols"] < lp.ncols / 4
    record = [r for r in caplog.records if hasattr(r, "solve_swc")][0]
    assert record.getMessage() == (
        f"solve_swc: core, {stats['rounds']} rounds, {stats['leaves']} leaves, "
        f"master {stats['rows']} x {stats['cols']}, {res.iterations} iterations, "
        f"core nodes {stats['core']}, cuts {stats['optimality_cuts']} optimality + "
        f"{stats['feasibility_cuts']} feasibility, {stats['dropped']} dropped, "
        f"tails {stats['solved']} solved + {stats['certified']} certified, "
        f"{stats['pivots']} pivots, {stats['fallback_solves']} fallback solves")
    # the sums cover the rounds' pricing, not the anticipative pass before them
    pricing = [r.scenario_costs for r in caplog.records if hasattr(r, "scenario_costs")][1:]
    assert stats["pivots"] == sum(r["pivots"] for r in pricing) > 0
    assert stats["fallback_solves"] == sum(r["fallback"] for r in pricing) == 0
    assert stats["warm"] == sum(r["warm"] for r in pricing) > 0
    assert len(res.x) == lp.ncols


@pytest.mark.parametrize("case, method", [("unshared", "generated"), ("ro", "monolithic"),
                                          ("uncertain", "monolithic")])
def test_routing(case, method, caplog):
    integer = inventory_benchmark(5, "integer")
    continuous = inventory_benchmark(5)
    problem, grouping = {
        "unshared": (continuous, build_prefix_tree(draw_paths(continuous.uncertainty, 189,
                                                              [11, 0]))),
        "ro": (integer, build_prefix_tree(vertex_paths(integer.uncertainty))),
        "uncertain": (uncertain_recourse(integer, 1e-4),
                      build_prefix_tree(draw_paths(integer.uncertainty, 189, [11, 0]))),
    }[case]
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        res = _solve_grouping(problem, grouping, HIGHS)
    assert solve_record(caplog)["method"] == method
    lp, _ = build_swc(problem, grouping)
    oracle = require_optimal(HIGHS(lp))
    assert abs(res.objective - oracle.objective) <= 1e-7 * abs(oracle.objective)


CORE_CASES = pytest.mark.parametrize("H, N, route", [
    pytest.param(H, N, route, id=f"{H}-{N}" + ("-cold" if route == "cold" else ""))
    for route in ("warm", "cold") for H, N in [(3, 189), (4, 189), (5, 1884)]])
CORE_SEEDS = pytest.mark.parametrize("seed", [[11, 0], [1001, 0], [63, 4]])


@CORE_CASES
@CORE_SEEDS
def test_integer_core_matches_monolithic(H, N, seed, route):
    # warm: one HiGHS model gains each round's cuts; cold: a solver that is
    # not solve_highs, so every master is solved whole
    problem = inventory_benchmark(H, "integer")
    solver = "highs" if route == "warm" else (lambda lp: solve_highs(lp))
    _, stats = assert_matches_monolithic(problem, draw_paths(problem.uncertainty, N, seed),
                                         solver, method="core")
    if H >= 4:  # the first master leaves commitment states past their bounds
        assert stats["feasibility_cuts"] > 0


@CORE_CASES
@CORE_SEEDS
def test_filtered_core_drops_dominated_cuts(H, N, seed, route):
    # each round adds only the tightest cut of each group with the same
    # columns and duals; the master gains exactly the kept cuts
    problem = inventory_benchmark(H, "integer")
    solver = "highs" if route == "warm" else (lambda lp: solve_highs(lp))
    paths = draw_paths(problem.uncertainty, N, seed)
    _, stats = assert_matches_monolithic(problem, paths, solver, method="core")
    assert stats["dropped"] > 0
    core = _core_nodes(build_prefix_tree(paths))
    structural = problem.dims.m[0] + sum(int(c.sum()) * m for c, m in zip(core, problem.dims.m[1:]))
    assert stats["rows"] == structural + stats["optimality_cuts"] + stats["feasibility_cuts"]


def record_rounds(monkeypatch, keep_all):
    """Patch the core method to record, per master solve, the rows added
    after it with the group keys _tightest got for them; with keep_all,
    _tightest keeps every cut, as the method did before the filter."""
    rounds, keys = [], []
    tightest, add_rows, solve = builders._tightest, GrowingLP.add_rows, GrowingLP.solve

    def record_keys(k, rhs):
        keys.append(k)
        return np.arange(len(rhs)) if keep_all else tightest(k, rhs)

    def record_rows(self, cols, vals, rhs):
        rounds[-1].append((cols, vals, rhs, keys[-1]))
        add_rows(self, cols, vals, rhs)

    def record_solve(self):
        rounds.append([])
        return solve(self)

    monkeypatch.setattr(builders, "_tightest", record_keys)
    monkeypatch.setattr(GrowingLP, "add_rows", record_rows)
    monkeypatch.setattr(GrowingLP, "solve", record_solve)
    return rounds


def test_a_round_keeps_one_cut_per_group(monkeypatch):
    # round 1 of the filtered and of the unfiltered method cut off the same
    # first master.  Unfiltered, cuts with equal keys (deepest core node,
    # pooled basis) have equal columns and coefficients; filtered, the
    # round adds just the tightest of each group, and both solves are exact
    problem = inventory_benchmark(4, "integer")
    paths = draw_paths(problem.uncertainty, 189, [11, 0])
    first, stats = {}, {}
    for keep_all in (True, False):
        with monkeypatch.context() as m:
            rounds = record_rounds(m, keep_all)
            _, stats[keep_all] = assert_matches_monolithic(problem, paths, method="core")
        assert len(rounds) == stats[keep_all]["rounds"]
        first[keep_all] = rounds[0]
    every, kept = first[True], first[False]
    assert stats[True]["dropped"] == 0 < stats[False]["dropped"]
    assert len(kept) == len(every) >= 2  # one call per depth and kind of cut
    dropped = 0
    for (cols, vals, rhs, keys), (kcols, kvals, krhs, _) in zip(every, kept):
        groups = {}
        for i, key in enumerate(map(tuple, keys.tolist())):
            groups.setdefault(key, []).append(i)
        tightest = []
        for rows in groups.values():
            assert (cols[rows] == cols[rows[0]]).all() and (vals[rows] == vals[rows[0]]).all()
            tightest.append(rows[int(np.argmin(rhs[rows]))])
        tightest.sort()
        dropped += len(rhs) - len(tightest)
        np.testing.assert_array_equal(kcols, cols[tightest])
        np.testing.assert_array_equal(kvals, vals[tightest])
        np.testing.assert_array_equal(krhs, rhs[tightest])
    assert dropped > 0


def test_tightest_keeps_the_least_rhs_of_each_key():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 3, (200, 2))
    rhs = rng.integers(0, 5, 200).astype(float)  # ties: the first index wins
    expected = {}
    for i, key in enumerate(map(tuple, keys.tolist())):
        if key not in expected or rhs[i] < rhs[expected[key]]:
            expected[key] = i
    np.testing.assert_array_equal(builders._tightest(keys, rhs), sorted(expected.values()))


def test_builtin_core_matches_monolithic():
    # masters, tail stacks and phase-1 solves on the builtin simplex
    problem = inventory_benchmark(5, "integer")
    _, stats = assert_matches_monolithic(problem, draw_paths(problem.uncertainty, 63, [63, 4]),
                                         "builtin", method="core")
    assert stats["rounds"] >= 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(3, 4),
    N=st.integers(4, 30),
    free=st.booleans(),
    degenerate=st.booleans(),
)
def test_random_shared_models_match_monolithic(seed, H, N, free, degenerate):
    # discrete supports of three points per stage, so prefixes are shared;
    # the random right-hand sides leave some tails infeasible at a master
    rng = np.random.default_rng(seed)
    problem, _ = constant_recourse_problem(rng, H, free, degenerate, discrete=True)
    paths = draw_paths(problem.uncertainty, N, [seed, 0])
    try:
        monolithic(problem, paths)
    except SolverError:
        with pytest.raises(SolverError):
            solve_swc_paths(problem, paths)
        return
    assert_matches_monolithic(problem, paths, method=expected_method(build_prefix_tree(paths)))


@pytest.mark.parametrize("k, counts", [(0, (181, 404, 4)), (1, (179, 393, 4)),
                                       (2, (150, 404, 4))], ids=["3000", "3001", "3002"])
def test_fresh_integer_solves_keep_their_cut_counts(k, counts):
    # optimality cuts, feasibility cuts and rounds of the core method on a
    # fresh problem, pinned; feasibility cuts from the pool's Farkas rays
    # take as many as those from bases of an elastic phase 1 did
    problem = inventory_benchmark(5, "integer")
    paths = draw_paths(problem.uncertainty, 1884, [3000 + k, 0])
    _, stats = assert_matches_monolithic(problem, paths, method="core")
    assert (stats["optimality_cuts"], stats["feasibility_cuts"], stats["rounds"]) == counts


def test_random_shared_models_meet_infeasible_tails():
    # four-stage random models on a dozen paths: several take the core
    # method with feasibility cuts
    seen = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        problem, _ = constant_recourse_problem(rng, 4, False, False, discrete=True)
        paths = draw_paths(problem.uncertainty, 12, [seed, 0])
        if expected_method(build_prefix_tree(paths)) != "core":
            continue
        try:
            monolithic(problem, paths)
        except SolverError:
            continue
        _, stats = assert_matches_monolithic(problem, paths, method="core")
        seen += stats["feasibility_cuts"] > 0
    assert seen >= 3


def test_reach_at_eps_0_001():
    # N(0.001, 0.001, 4) = 18838 paths; the whole LP has 433,278 rows
    problem = inventory_benchmark(5)
    paths = draw_paths(problem.uncertainty, 18838, [11, 0])
    _, x1, gamma, res = solve_swc_paths(problem, paths)
    assert len(res.x) == 1 + 3 + 18838 * 15
    assert np.all(scenario_costs(problem, paths, x1=x1) <= gamma + VIOLATION_TOL)


def test_debug_record_of_a_generated_solve(caplog):
    problem = inventory_benchmark(5)
    paths = draw_paths(problem.uncertainty, 63, [63, 4])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        value, x1, gamma, res = solve_swc_paths(problem, paths)
    assert value == gamma == res.objective
    np.testing.assert_array_equal(res.x[1:4], x1)
    stats = solve_record(caplog)
    # a master's size depends only on its leaf count, and any subset of these paths is unshared
    master, _ = build_swc(problem, build_prefix_tree(paths[: stats["leaves"]]))
    assert stats["method"] == "generated" and stats["rounds"] >= 2
    assert 8 < stats["leaves"] <= 8 + 20 * (stats["rounds"] - 1)
    assert (stats["rows"], stats["cols"]) == (master.nrows, master.ncols)
    assert stats["iterations"] == res.iterations > 0
    # every round prices every path, by a solve or on the kept basis pool
    assert stats["solved"] + stats["certified"] == stats["rounds"] * len(paths)
    record = [r for r in caplog.records if hasattr(r, "solve_swc")][0]
    assert record.getMessage() == (
        f"solve_swc: generated, {stats['rounds']} rounds, {stats['leaves']} leaves, "
        f"master {master.nrows} x {master.ncols}, {res.iterations} iterations, "
        f"pricing {stats['solved']} solved + {stats['certified']} certified, "
        f"{stats['pivots']} pivots, {stats['fallback_solves']} fallback solves")
    pricing = [r.scenario_costs for r in caplog.records if hasattr(r, "scenario_costs")]
    assert stats["pivots"] == sum(r["pivots"] for r in pricing) > 0
    assert stats["fallback_solves"] == sum(r["fallback"] for r in pricing) == 0
    assert stats["warm"] == sum(r["warm"] for r in pricing) > 0


@pytest.mark.parametrize("variant, hybrid", [("continuous", False), ("integer", True)])
@pytest.mark.parametrize("seed", [[11, 0], [3001, 0]])
def test_generation_keeps_one_basis_pool_across_rounds(variant, hybrid, seed, caplog):
    # the rounds' recourse LPs differ only in b(xi, x1), so the bases that
    # round 1's seed and walks leave in the pool price the same leaves in
    # later rounds, and later walks start from round 1's seed
    problem = inventory_benchmark(5, variant)
    paths = draw_paths(problem.uncertainty, 600 if hybrid else 1884, seed)
    if hybrid:  # swct's tree: integer draws repeat and share a leaf
        paths = hybrid_paths(problem.uncertainty, paths.values[:, :1])
    tree = build_prefix_tree(paths)
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        res = _solve_grouping(problem, tree, HIGHS)
    stats = solve_record(caplog)
    rounds = [r.scenario_costs for r in caplog.records if hasattr(r, "scenario_costs")]
    assert stats["method"] == "generated" and len(rounds) == stats["rounds"] >= 2
    assert all(r["solves"] < rounds[0]["solves"] for r in rounds[1:])
    assert stats["solved"] == sum(r["solved"] for r in rounds)
    assert stats["certified"] == sum(r["certified"] for r in rounds)
    _, oracle = monolithic(problem, paths)
    assert abs(res.objective - oracle.objective) <= 1e-9 * abs(oracle.objective)
    x1, expected = res.x[1 : 1 + problem.dims.n[0]], oracle.x[1 : 1 + problem.dims.n[0]]
    assert np.all(np.abs(x1 - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("solver", ["highs", "builtin"])
def test_rt_reference_matches_monolithic(solver):
    # the relaxed grouping keeps one leaf per stage-1 node by construction
    problem = inventory_benchmark(5)
    res, _ = assert_matches_monolithic(problem, vertex_paths(problem.uncertainty), solver,
                                       relaxed_grouping)
    assert exact_value(problem, "rt", solver) == res.objective


@pytest.mark.parametrize("variant", ["continuous", "integer"])
@pytest.mark.parametrize("seed", [[11, 0], [1001, 0], [63, 4]])
def test_swct_matches_monolithic(variant, seed):
    # the hybrid tree's tail is fixed, so it shares no prefix; integer
    # draws repeat and share a leaf
    problem = inventory_benchmark(5, variant)
    xi1s = draw_paths(problem.uncertainty, 600, seed).values[:, :1]
    res, _ = assert_matches_monolithic(problem, hybrid_paths(problem.uncertainty, xi1s))
    assert swct_value(problem, xi1s) == res.objective


def test_ro_reference_takes_the_monolithic_solve(caplog):
    # the five-stage vertex tree shares its stage-1 prefixes: one solve of the whole LP
    problem = inventory_benchmark(5)
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        value = exact_value(problem, "ro")
    lp, oracle = monolithic(problem, vertex_paths(problem.uncertainty))
    stats = solve_record(caplog)
    assert stats["method"] == "monolithic" and stats["rounds"] == 1
    assert (stats["rows"], stats["cols"]) == (lp.nrows, lp.ncols)
    assert value == oracle.objective


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), H=st.integers(2, 4), N=st.integers(1, 40),
       kind=st.sampled_from(["box", "box hybrid", "discrete hybrid"]))
def test_unshared_prefix_tree_is_the_relaxed_grouping(seed, H, N, kind):
    # _generate builds its masters from relaxed_grouping: for leaves with no
    # shared prefix it is the same LP as the prefix tree's, field for field;
    # repeated discrete draws share a leaf in both
    rng = np.random.default_rng(seed)
    problem, _ = constant_recourse_problem(rng, H, False, False, discrete=kind.startswith("d"))
    paths = draw_paths(problem.uncertainty, N, [seed, 0])
    if kind.endswith("hybrid"):
        paths = hybrid_paths(problem.uncertainty, paths.values[:, : paths.widths[0]])
    counts = build_prefix_tree(paths).node_counts()
    assert counts[0] == counts[-1]
    tree_lp, tree_map = build_swc(problem, build_prefix_tree(paths))
    relaxed_lp, relaxed_map = build_swc(problem, relaxed_grouping(paths))
    assert_same_lp(relaxed_lp, tree_lp)
    assert (relaxed_map.gamma, relaxed_map.x1, relaxed_map.widths) == (
        tree_map.gamma, tree_map.x1, tree_map.widths)
    for a, b in zip(relaxed_map.starts, tree_map.starts):
        np.testing.assert_array_equal(a, b)


def unbounded_leaf_problem():
    """Two stages: x1 >= 0 at unit cost, then y >= 1 - x1 with y >= 0 at
    cost xi; a path with xi < 0 has unbounded recourse."""
    support = DiscreteSupport(tuple(np.array([v]) for v in (-1.0, 1.0, 2.0)))
    stage = StageBlock(T=AffineMap(np.ones((1, 1))), W=AffineMap(np.ones((1, 1))),
                       h=AffineMap(np.ones(1)), c=AffineMap(np.zeros(1), ((0, np.ones(1)),)),
                       senses=(GE,))
    return MultistageRobustLP(StageDims(2, (1, 1), (1, 1)), np.ones((1, 1)), np.zeros(1),
                              np.ones(1), (GE,), (stage,), UncertaintySet((support,)))


def test_unbounded_recourse_falls_back_to_the_whole_lp(caplog):
    problem = unbounded_leaf_problem()
    paths = draw_paths(problem.uncertainty, 30, [0, 0])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        value, x1, _, res = solve_swc_paths(problem, paths)
    lp, _ = build_swc(problem, build_prefix_tree(paths))
    assert solve_record(caplog)["method"] == "monolithic"
    assert value == pytest.approx(1.0) and x1 == pytest.approx([1.0])
    assert len(res.x) == lp.ncols and lp.max_violation(res.x) <= 1e-9
    assert solve_record(caplog)["fallback"] == "unbounded tail"
    record = [r for r in caplog.records if hasattr(r, "solve_swc")][0]
    assert record.getMessage().endswith(", fallback unbounded tail")


@pytest.mark.parametrize("seed", [10, 37])
def test_degenerate_tails_price_on_the_solvers_bases(seed, caplog):
    # degenerate vertices: bases rebuilt from the vertex alone were rejected
    # here, as dual infeasible, and the core method solved the tails' dual
    # LPs; the bases the solver ends on all pass the pool's checks
    problem, _ = constant_recourse_problem(np.random.default_rng(seed), 4, free=False,
                                           degenerate=True, discrete=True)
    paths = draw_paths(problem.uncertainty, 12, [seed, 0])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        assert_matches_monolithic(problem, paths, method="core")
    records = [r for r in caplog.records if hasattr(r, "scenario_costs") or hasattr(r, "solve_swc")]
    solve = records[: [hasattr(r, "solve_swc") for r in records].index(True)]
    assert len(solve) >= 4
    assert [r.scenario_costs["rejected"] for r in solve] == [0] * len(solve)


def test_a_solver_without_bases_solves_shared_trees_whole(caplog):
    # as the external solver: no basis, so no pool and no cut.  The core method
    # gives up after its anticipative pass (a one-leaf seed, then the rest in
    # one stack), and the whole LP is the third solve
    problem = inventory_benchmark(4, "integer")
    paths = draw_paths(problem.uncertainty, 189, [11, 0])
    calls = []

    def solve(lp):
        calls.append(lp)
        return replace(solve_highs(lp), basis=None)

    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        value = solve_swc_paths(problem, paths, solve)[0]
    stats = solve_record(caplog)
    assert stats["method"] == "monolithic" and stats["fallback"] == "no pooled dual"
    assert len(calls) == 3
    assert value == pytest.approx(solve_swc_paths(problem, paths)[0], rel=1e-9)


def test_a_solver_without_bases_stacks_whole_pricing_passes(caplog):
    # generation over leaves shares its pools across rounds, and with them the
    # finding that the solver reports no basis: round 1 prices with a
    # one-leaf seed and two stacks, later rounds stack the most leaves from
    # the start
    problem = inventory_benchmark(5)
    paths = draw_paths(problem.uncertainty, 1884, [11, 0])

    def solve(lp):
        return replace(solve_highs(lp), basis=None)

    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        value = solve_swc_paths(problem, paths, solve)[0]
    stats = solve_record(caplog)
    rounds = [r.scenario_costs["solves"] for r in caplog.records if hasattr(r, "scenario_costs")]
    assert stats["method"] == "generated" and len(rounds) == stats["rounds"] >= 2
    assert rounds == [3] + [2] * (len(rounds) - 1)
    assert value == pytest.approx(solve_swc_paths(problem, paths)[0], rel=1e-9)
