import itertools

import numpy as np
import pytest

from swcopt import validation
from swcopt.builders import exact_value, solve_swc_paths, vertex_paths
from swcopt.inventory import inventory_benchmark
from swcopt.lp import SolverError, get_solver
from swcopt.model import ScenarioPath
from swcopt.sampling import draw_paths
from swcopt.validation import (
    VIOLATION_TOL,
    certificate_feasible,
    empirical_violation,
    optimality_gap,
    run_experiment,
    rvpi,
)
from test_builders import toy_two_stage


@pytest.fixture(scope="module")
def ro_solution():
    problem = inventory_benchmark(5)
    paths = vertex_paths(problem.uncertainty)
    value, x1, gamma, _ = solve_swc_paths(problem, paths)
    return problem, paths, x1, gamma


def test_worst_case_solution_covers_every_vertex(ro_solution):
    problem, paths, x1, gamma = ro_solution
    for path in paths:
        assert certificate_feasible(problem, x1, gamma, path)


def test_unattainable_budget_is_always_violated(ro_solution):
    problem, paths, x1, _ = ro_solution
    for path in paths[:4]:
        assert not certificate_feasible(problem, x1, -1e9, path)


def test_certificate_rejects_infeasible_first_stage():
    problem = inventory_benchmark(2)
    bad_x1 = np.array([10.0, 0.0, 60.0])  # cost row x_c >= d*x_o violated
    with pytest.raises(ValueError, match="first-stage"):
        certificate_feasible(problem, bad_x1, 1e6, ScenarioPath.of([[60.0]]))
    # a <= row: the cumulative order bound s_co1 <= 94
    with pytest.raises(ValueError, match=r"first-stage row 3 by 6\.00e\+00"):
        certificate_feasible(problem, np.array([60.0, 60.0, 100.0]), 1e6,
                             ScenarioPath.of([[60.0]]))
    assert certificate_feasible(problem, np.array([60.0, 60.0, 94.0]), 1e6,
                                ScenarioPath.of([[60.0]]))


def test_toy_certificate_against_enumeration():
    # closed-form recourse: feasible iff q + max(2(q-xi), 3(xi-q)) <= gamma
    problem = toy_two_stage()
    for q, gamma, xi in itertools.product((3.0, 5.4, 8.0), (6.0, 10.2, 14.0), (3.0, 7.0)):
        x1 = np.array([q, q, 0.0])
        cost = q + max(2.0 * (q - xi), 3.0 * (xi - q))
        expected = cost <= gamma + VIOLATION_TOL
        got = certificate_feasible(problem, x1, gamma, ScenarioPath.of([[xi]]))
        assert got == expected, (q, gamma, xi, cost)


def test_empirical_violation_extremes(ro_solution):
    problem, _, x1, gamma = ro_solution
    # gamma above the worst vertex cost: nothing violates
    assert empirical_violation(problem, x1, gamma + 1.0, L=4, N=25, seed=3) == 0.0
    # an unattainable budget: everything violates
    assert empirical_violation(problem, x1, -1e9, L=4, N=25, seed=3) == 1.0


def test_empirical_violation_monotone_in_budget():
    problem = inventory_benchmark(2)
    paths = draw_paths(problem.uncertainty, 20, seed=5)
    _, x1, gamma, _ = solve_swc_paths(problem, paths)
    vals = [
        empirical_violation(problem, x1, g, L=10, N=40, seed=11)
        for g in (gamma - 5.0, gamma, gamma + 5.0, gamma + 50.0)
    ]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_gap_examples():
    assert optimality_gap(5.0, 5.0) == 0.0
    assert optimality_gap(2100.0, 2000.0) == pytest.approx(0.05, abs=1e-12)
    assert optimality_gap(1831.891109, 2207.554108) == pytest.approx(-0.170171593, abs=1e-9)
    with pytest.raises(ValueError):
        optimality_gap(1.0, 0.0)


def test_rvpi_published_value():
    assert rvpi(inventory_benchmark(5)) == pytest.approx(375.66299, abs=1e-2)


def test_rvpi_zero_without_uncertainty():
    import dataclasses

    from swcopt.inventory import build_coc, table_data

    problem = build_coc(dataclasses.replace(table_data(5), demand_level=0.0))
    assert rvpi(problem) == pytest.approx(0.0, abs=1e-6)


def test_rvpi_toy_matches_minimax_minus_maximin():
    problem = toy_two_stage()
    # brute force on the order grid with closed-form recourse
    q = np.linspace(0.0, 10.0, 100001)
    pens = {xi: np.maximum(2.0 * (q - xi), 3.0 * (xi - q)) for xi in (3.0, 7.0)}
    minimax = np.min(q + np.maximum(pens[3.0], pens[7.0]))
    maximin = max(np.min(q + pens[xi]) for xi in (3.0, 7.0))
    assert rvpi(problem) == pytest.approx(float(minimax - maximin), abs=1e-4)


def test_run_experiment_report_consistency(tmp_path):
    problem = inventory_benchmark(2)
    report = run_experiment(
        problem, [0.3], 0.001, 4, base_seed=50, solver="highs",
        n0=4, L=3, compute_bounds=True,
    )
    rows = report.rows_for(0.3)
    assert len(rows) == 4
    assert [r.seed for r in rows] == [50, 51, 52, 53]
    stats = report.summary(0.3)
    gaps = np.array([r.gap for r in rows])
    assert stats["gap"]["mean"] == pytest.approx(float(gaps.mean()), abs=1e-15)
    assert stats["gap"]["q25"] == pytest.approx(float(np.percentile(gaps, 25)), abs=1e-15)
    for r in rows:
        assert r.swc_value <= report.references["ro"] + 1e-6
        assert r.sws <= report.references["rws"] + 1e-6
        assert r.swct <= report.references["rt"] + 1e-6
    files = report.write_csvs(tmp_path)
    body = (tmp_path / "results_eps0.3.csv").read_text().splitlines()
    assert body[0] == "seed,N,swc_value,gap,violation,sws,swct,ro_exact,runtime_ms"
    assert len(body) == 5


@pytest.mark.parametrize("variant", ["continuous", "integer"])
def test_a_rerun_on_the_same_problem_writes_the_same_csvs(variant, tmp_path):
    # the second run prices on the basis pools the first one left on the
    # problem, and must not read differently for it
    problem = inventory_benchmark(5, variant)
    texts = []
    for run in ("first", "second"):
        report = run_experiment(problem, [0.3, 0.1], 1e-3, 2, base_seed=7, n0=4, L=3,
                                compute_bounds=True)
        assert report.errors == []
        texts.append({path.name: [line.rpartition(",")[0] if path.name.startswith("results")
                                  else line for line in path.read_text().splitlines()]
                      for path in report.write_csvs(tmp_path / run)})
    assert texts[0] == texts[1]


def test_run_experiment_records_failures():
    problem = inventory_benchmark(2)
    highs = get_solver("highs")
    calls = {"n": 0, "fail": None}

    def flaky(lp):
        # fail the first solve after the exact reference's, inside the first instance
        calls["n"] += 1
        if calls["n"] == calls["fail"]:
            raise SolverError("synthetic failure")
        return highs(lp)

    exact_value(problem, "ro", solver=flaky)  # a dry run counts the reference's solves
    calls["fail"] = calls["n"] + 1
    calls["n"] = 0
    report = run_experiment(
        problem, [0.3], 0.001, 2, base_seed=1, solver=flaky, n0=4, L=2,
    )
    assert calls["n"] > calls["fail"]
    assert len(report.errors) == 1 and "synthetic failure" in report.errors[0]
    assert len(report.rows_for(0.3)) == 1


def test_chain_flags_on_hybrid_tail_bound():
    # at five stages the deterministic-tail bound sits far below the sampled
    # wait-and-see value, which is no ordering; both bounds stay below swc
    problem = inventory_benchmark(5)
    report = run_experiment(
        problem, [0.3], 0.001, 2, base_seed=3, solver="highs",
        n0=4, L=1, validation_per_batch=20, compute_bounds=True,
    )
    assert report.chain_flags == []
    for r in report.rows_for(0.3):
        assert r.swct < r.sws <= r.swc_value + 1e-6


def test_chain_flags_catch_a_sws_above_swc(monkeypatch):
    monkeypatch.setattr(validation, "sws_value", lambda problem, paths, solver: (1e9, 0))
    problem = inventory_benchmark(5)
    report = run_experiment(
        problem, [0.3], 0.001, 1, base_seed=3, solver="highs",
        n0=4, L=1, validation_per_batch=20, compute_bounds=True,
    )
    row = report.rows[0]
    assert report.chain_flags == [
        f"eps=0.3 seed=3: sws 1000000000.000000 > swc {row.swc_value:.6f}"]


def test_builtin_solver_runs_validation():
    # the 126 validation paths go to stacked LPs of one block per solved path
    problem = inventory_benchmark(5)
    report = run_experiment(problem, [0.3], 1e-3, 1, 0, "builtin", n0=4, L=2)
    highs = run_experiment(problem, [0.3], 1e-3, 1, 0, "highs", n0=4, L=2).rows[0]
    assert report.errors == []
    row = report.rows[0]
    assert row.error is None and row.violation == highs.violation > 0.0
    assert row.swc_value == pytest.approx(highs.swc_value, rel=1e-9)
    assert row.ro_exact == pytest.approx(2207.554108, abs=1e-6)


def test_builtin_solver_runs_bounds():
    # the RT reference and the hybrid swct tree are solved by generation, so
    # the builtin simplex never meets their whole LPs
    problem = inventory_benchmark(5)
    report = run_experiment(problem, [0.1], 1e-3, 1, 0, "builtin", n0=4, L=1,
                            compute_bounds=True)
    highs = run_experiment(problem, [0.1], 1e-3, 1, 0, "highs", n0=4, L=1,
                           compute_bounds=True).rows[0]
    assert report.errors == []
    assert report.rows[0].swct == pytest.approx(highs.swct, rel=1e-9)
