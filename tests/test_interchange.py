import sys

import numpy as np
import pytest

from oracles import random_lp
from swcopt.builders import build_swc, scenario_costs
from swcopt.inventory import inventory_benchmark
from swcopt.interchange import (
    ENV_SOLVER,
    ExternalSolverFailedError,
    ExternalSolverNotFoundError,
    SolutionParseError,
    parse_interchange,
    parse_solution,
    solve_external,
    write_interchange,
    write_solution,
)
from swcopt.lp import LPBuilder, Status, solve_highs
from swcopt.sampling import build_prefix_tree, draw_paths
from swcopt.simplex import solve_builtin

WORKER_CMD = f"{sys.executable} -m swcopt.external_worker"


def _sample_lp():
    b = LPBuilder()
    x = b.add_var(0, np.inf, 1.0, "x")
    y = b.add_var(0, np.inf, 1.0, "y")
    b.add_row([x, y], [1.0, 2.0], ">=", 4.0, "demand")
    b.add_row([x, y], [3.0, 1.0], ">=", 6.0, "supply")
    return b.build()


def test_round_trip_is_byte_identical():
    lp = _sample_lp()
    text = write_interchange(lp)
    again = write_interchange(parse_interchange(text))
    assert text == again


def test_round_trip_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(25):
        lp = random_lp(rng, 6, 5)
        text = write_interchange(lp)
        back = parse_interchange(text)
        assert write_interchange(back) == text
        r1, r2 = solve_builtin(lp), solve_builtin(back)
        assert r1.status is r2.status
        if r1.status is Status.OPTIMAL:
            assert r1.objective == pytest.approx(r2.objective, abs=1e-10)


def test_constraint_section_row_count():
    text = write_interchange(_sample_lp())
    body = text.split("Subject To")[1].split("Bounds")[0]
    assert len([ln for ln in body.splitlines() if ln.strip()]) == 2


def test_free_variable_declared_free():
    b = LPBuilder()
    b.add_var(-np.inf, np.inf, 1.0, "s")
    b.add_row([0], [1.0], ">=", -3.0)
    text = write_interchange(b.build())
    assert " s free" in text
    back = parse_interchange(text)
    assert np.isneginf(back.lower[0]) and np.isposinf(back.upper[0])


def test_write_to_path(tmp_path):
    dest = tmp_path / "model.lp"
    write_interchange(_sample_lp(), dest)
    assert parse_interchange(dest.read_text()).nrows == 2


def test_maximize_rejected():
    with pytest.raises(ValueError, match="minimize"):
        parse_interchange("Maximize\n obj: + 1.0 x\nEnd\n")


def test_solution_round_trip():
    lp = _sample_lp()
    res = solve_builtin(lp)
    text = write_solution(res, lp)
    back = parse_solution(text, lp)
    assert back.status is Status.OPTIMAL
    assert back.objective == pytest.approx(res.objective, abs=1e-12)
    np.testing.assert_allclose(back.x, res.x, atol=1e-12)


def test_solution_parser_rejects_garbage():
    lp = _sample_lp()
    with pytest.raises(SolutionParseError):
        parse_solution("nonsense\n", lp)
    with pytest.raises(SolutionParseError):
        parse_solution("status optimal\nobjective 1.0\nunknown_var 3\n", lp)
    infeasible = parse_solution("status infeasible\n", lp)
    assert infeasible.status is Status.INFEASIBLE


def block_diagonal(lps):
    """One LP whose k-th block of columns and rows is lps[k], with its
    columns renamed b{k}_<name> so that names stay unique."""
    b = LPBuilder()
    for k, lp in enumerate(lps):
        first = b.ncols
        for j in range(lp.ncols):
            b.add_var(lp.lower[j], lp.upper[j], lp.obj[j], f"b{k}_{lp.names[j]}")
        for i in range(lp.nrows):
            cols, vals = lp.row(i)
            b.add_row(cols + first, vals, lp.senses[i], lp.rhs[i])
    return b.build()


def test_external_agreement_with_builtin():
    # 30 random LPs; the optimal ones go to the worker as one block-diagonal
    # LP, whose optimum is optimal in every block, the others one by one
    rng = np.random.default_rng(5150)
    lps = [random_lp(rng, 5, 4) for _ in range(30)]
    results = [solve_builtin(lp) for lp in lps]
    for lp, rb in zip(lps, results):
        if rb.status is not Status.OPTIMAL:
            assert solve_external(lp, WORKER_CMD).status is rb.status
    optimal = [(lp, rb) for lp, rb in zip(lps, results) if rb.status is Status.OPTIMAL]
    assert len(optimal) == 16
    rx = solve_external(block_diagonal([lp for lp, _ in optimal]), WORKER_CMD)
    assert rx.status is Status.OPTIMAL
    first = 0
    for lp, rb in optimal:
        block = rx.x[first : first + lp.ncols]
        assert lp.obj @ block == pytest.approx(rb.objective, abs=1e-6)
        first += lp.ncols


def test_external_infeasible_status():
    b = LPBuilder()
    b.add_var(0, np.inf, 0.0, "x")
    b.add_row([0], [1.0], ">=", 1.0)
    b.add_row([0], [1.0], "<=", 0.0)
    res = solve_external(b.build(), WORKER_CMD)
    assert res.status is Status.INFEASIBLE


def test_external_missing_binary():
    with pytest.raises(ExternalSolverNotFoundError):
        solve_external(_sample_lp(), "/nonexistent/solver-binary")


def test_external_unconfigured(monkeypatch):
    monkeypatch.delenv(ENV_SOLVER, raising=False)
    with pytest.raises(ExternalSolverNotFoundError):
        solve_external(_sample_lp(), None)


def test_external_env_variable(monkeypatch):
    monkeypatch.setenv(ENV_SOLVER, WORKER_CMD)
    res = solve_external(_sample_lp(), None)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(2.8, abs=1e-8)


def test_external_nonzero_exit():
    with pytest.raises(ExternalSolverFailedError):
        solve_external(_sample_lp(), f"{sys.executable} -c 'import sys; sys.exit(9)' --")


def test_duplicate_column_names_rejected():
    b = LPBuilder()
    b.add_var(0, np.inf, 1.0, "x")
    b.add_var(0, np.inf, 1.0, "x")
    b.add_row([0, 1], [1.0, 1.0], ">=", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        write_interchange(b.build())


def test_external_stacked_costs_match_highs():
    # stacked per-path LPs keep one first stage per path through the file
    problem = inventory_benchmark(3)
    paths = draw_paths(problem.uncertainty, 5, seed=[1, 0])
    highs = scenario_costs(problem, paths, "highs")
    external = scenario_costs(problem, paths, f"external:{WORKER_CMD}")
    np.testing.assert_allclose(external, highs, rtol=0, atol=1e-6)


def test_builder_lps_solve_externally_as_on_highs():
    # the builders name no columns, so the file names them x0, x1, ... and the
    # solution is matched back by those names
    problem = inventory_benchmark(5)
    lp, _ = build_swc(problem, build_prefix_tree(draw_paths(problem.uncertainty, 63, [63, 0])))
    assert lp.names == () and "x0" in write_interchange(lp)
    rx, rh = solve_external(lp, WORKER_CMD), solve_highs(lp)
    assert rx.status is rh.status is Status.OPTIMAL
    assert rx.objective == rh.objective
    np.testing.assert_array_equal(rx.x, rh.x)
