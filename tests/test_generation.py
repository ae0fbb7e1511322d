"""Differential tests: solve_swc_paths' generation over leaves against the
monolithic solve of the whole build_swc LP (the oracle).

The gate everywhere: the value within 1e-7 relative of the oracle's, a
result vector of the full LP's size that is feasible for it (max_violation
<= 1e-7) at objective gamma, and the budget met on every training path
(certificate_feasible).  x1 may differ from the oracle's where the LP has
alternative optima; the budget check is the one that must hold then.
"""
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcopt.builders import build_swc, scenario_costs, solve_swc_paths
from swcopt.inventory import inventory_benchmark
from swcopt.lp import SolverError, get_solver, require_optimal
from swcopt.model import (GE, AffineMap, DiscreteSupport, MultistageRobustLP, StageBlock,
                          StageDims, UncertaintySet)
from swcopt.sampling import build_prefix_tree, draw_paths
from swcopt.validation import VIOLATION_TOL, certificate_feasible
from test_pool import constant_recourse_problem

HIGHS = get_solver("highs")


def solve_record(caplog):
    records = [r for r in caplog.records if r.name == "swcopt.builders"
               and hasattr(r, "solve_swc")]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    return records[0].solve_swc


def monolithic(problem, paths):
    lp, _ = build_swc(problem, build_prefix_tree(paths))
    return lp, require_optimal(HIGHS(lp), "oracle")


def assert_matches_monolithic(problem, paths, solver="highs"):
    """Generation's result against the oracle; returns generation's stats."""
    lp, oracle = monolithic(problem, paths)
    logger = logging.getLogger("swcopt.builders")
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        value, x1, gamma, res = solve_swc_paths(problem, paths, solver)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    stats = [r.solve_swc for r in records if hasattr(r, "solve_swc")][-1]
    assert stats["method"] == "generated"
    assert abs(value - oracle.objective) <= 1e-7 * max(1.0, abs(oracle.objective))
    assert value == gamma == res.objective
    assert len(res.x) == lp.ncols
    assert lp.max_violation(res.x) <= 1e-7
    assert lp.obj @ res.x == gamma
    np.testing.assert_array_equal(res.x[1 : 1 + len(x1)], x1)
    worst = int(np.argmax(scenario_costs(problem, paths, x1=x1)))
    assert certificate_feasible(problem, x1, gamma, paths[worst])
    return stats


def uncertain_recourse(problem):
    """The model with stage 2's W moved by the first uncertainty component,
    so that scenario_costs prices no path from a basis pool."""
    blk = problem.stage_block(2)
    W = AffineMap(blk.W.base, ((0, np.full(blk.W.shape, 0.05)),))
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
    stats = assert_matches_monolithic(problem, draw_paths(problem.uncertainty, N, seed))
    assert stats["leaves"] < 100


def test_builtin_masters_match_monolithic():
    problem = inventory_benchmark(5)
    assert_matches_monolithic(problem, draw_paths(problem.uncertainty, 63, [63, 4]), "builtin")


def test_shared_prefixes_take_the_monolithic_solve(caplog):
    # generation over single paths stops at 1593.24 here: leaves below one
    # stage-1 node share certificates, which per-path pricing ignores
    problem = inventory_benchmark(5, "integer")
    paths = draw_paths(problem.uncertainty, 1884, [11, 0])
    with caplog.at_level(logging.DEBUG, logger="swcopt.builders"):
        value, _, _, res = solve_swc_paths(problem, paths)
    assert value == pytest.approx(1644.23, abs=5e-3)
    tree = build_prefix_tree(paths)
    lp, _ = build_swc(problem, tree)
    assert solve_record(caplog) == {"method": "monolithic", "rounds": 1,
                                    "leaves": tree.node_counts()[-1], "rows": lp.nrows,
                                    "cols": lp.ncols, "iterations": res.iterations}
    assert len(res.x) == lp.ncols


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
        _, _, _, res = solve_swc_paths(problem, paths)
    stats = solve_record(caplog)
    # a master's size depends only on its leaf count, and any subset of these paths is unshared
    master, _ = build_swc(problem, build_prefix_tree(paths[: stats["leaves"]]))
    assert stats["method"] == "generated" and stats["rounds"] >= 2
    assert 8 < stats["leaves"] <= 8 + 20 * (stats["rounds"] - 1)
    assert (stats["rows"], stats["cols"]) == (master.nrows, master.ncols)
    assert stats["iterations"] == res.iterations > 0
    record = [r for r in caplog.records if hasattr(r, "solve_swc")][0]
    assert record.getMessage() == (
        f"solve_swc_paths: generated, {stats['rounds']} rounds, {stats['leaves']} leaves, "
        f"master {master.nrows} x {master.ncols}, {res.iterations} iterations")


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
