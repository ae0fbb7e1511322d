"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistical criteria
(3-5) drive hundreds of solves; the suite uses the HiGHS backend there and
finished in 62 s on two cores, most of it in the criterion 3 (42 s) and
criterion 4 (18 s) fixtures (the builtin simplex carries criteria 1 and 7,
its design role).  Every test here carries the `acceptance` marker, so
`pytest -m "not acceptance"` runs the rest of the suite alone.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from oracles import nested_minmax_value, oracle_solve, random_discrete_problem, random_lp
from swcopt.builders import build_swc, exact_value, vertex_paths
from swcopt.complexity import sample_complexity
from swcopt.inventory import BENCHMARK_N0, inventory_benchmark
from swcopt.model import (
    DiscreteSupport,
    IntegerBoxSupport,
    ScenarioPath,
    UncertaintySet,
)
from swcopt.sampling import build_prefix_tree, draw_paths
from swcopt.simplex import solve_builtin
from swcopt.validation import optimality_gap, run_experiment, rvpi

pytestmark = pytest.mark.acceptance

JOBS = 2

GAP_CELLS = ((2, 0.3), (2, 0.01), (5, 0.3), (5, 0.01))
CHAIN_EPSILONS = (0.3, 0.1, 0.01)
CHAIN_INSTANCES = 9  # 9 x 2 stages x 3 levels = 54 seeded instances


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def _validation_batches(N: int) -> int:
    # about a thousand fresh draws per instance, in batches of N
    return max(1, math.ceil(1000 / N))


@pytest.fixture(scope="session")
def gap_reports():
    """Criterion 4/5 data: 100 instances per (stages, accuracy) cell."""
    out = {}
    for stages, eps in GAP_CELLS:
        problem = inventory_benchmark(stages)
        N = sample_complexity(eps, 0.001, BENCHMARK_N0)
        out[(stages, eps)] = run_experiment(
            problem, [eps], 0.001, 100, base_seed=1000 * stages, solver="highs",
            n0=BENCHMARK_N0, L=_validation_batches(N), jobs=JOBS,
        )
    return out


@pytest.fixture(scope="session")
def chain_reports():
    """Criterion 3 data: bound chains on 54 seeded instances."""
    out = {}
    for stages in (2, 5):
        problem = inventory_benchmark(stages)
        out[stages] = run_experiment(
            problem, CHAIN_EPSILONS, 0.001, CHAIN_INSTANCES, base_seed=7000 + stages,
            solver="highs", n0=BENCHMARK_N0, L=1, validation_per_batch=100,
            compute_bounds=True, jobs=JOBS,
        )
    return out


def test_criterion_1_exact_references():
    problem = inventory_benchmark(5)
    t0 = time.perf_counter()
    ro = exact_value(problem, "ro", solver="builtin")
    rws = exact_value(problem, "rws", solver="builtin")
    rt = exact_value(problem, "rt", solver="builtin")
    value_of_information = rvpi(problem, solver="builtin")
    elapsed = time.perf_counter() - t0
    gap = optimality_gap(rws, ro)
    checks = [
        abs(ro - 2207.554108) <= 1e-3,
        abs(rws - 1831.891109) <= 1e-3,
        abs(rt - 1831.891109) <= 1e-3,
        abs(value_of_information - 375.663) <= 1e-2,
        abs(gap - (-0.170172)) <= 1e-5,
        elapsed < 5.0,
    ]
    _report(
        1, all(checks),
        f"RO={ro:.6f} RWS={rws:.6f} RT={rt:.6f} RVPI={value_of_information:.5f} "
        f"gap={gap:.9f} builtin-simplex time={elapsed:.2f}s",
    )


def test_criterion_2_sample_complexity_table():
    expected = {
        0.3: 63, 0.2: 95, 0.1: 189, 0.05: 377, 0.01: 1884,
        0.005: 3768, 0.001: 18838, 0.0005: 37676, 0.00025: 75352,
    }
    got = {eps: sample_complexity(eps, 0.001, 4) for eps in expected}
    _report(2, got == expected, f"N column {sorted(got.values())}")


def test_criterion_3_lower_bound_chain(chain_reports):
    tol = 1e-6
    total = 0
    violations = []
    for stages, report in chain_reports.items():
        refs = report.references
        for row in report.rows:
            if row.error is not None:
                violations.append(f"H={stages} eps={row.eps} seed={row.seed}: {row.error}")
                continue
            total += 1
            if row.swc_value > refs["ro"] + tol:
                violations.append(f"H={stages} swc {row.swc_value} > ro {refs['ro']}")
            if row.sws > refs["rws"] + tol:
                violations.append(f"H={stages} sws {row.sws} > rws {refs['rws']}")
            if row.swct > refs["rt"] + tol:
                violations.append(f"H={stages} swct {row.swct} > rt {refs['rt']}")
    ok = total >= 50 and not violations
    _report(3, ok, f"{total} instances, {len(violations)} chain violations {violations[:3]}")


def test_criterion_4_gap_statistics(gap_reports):
    means = {}
    for (stages, eps), report in gap_reports.items():
        rows = report.rows_for(eps)
        assert len(rows) == 100, f"cell H={stages} eps={eps} lost instances"
        means[(stages, eps)] = float(np.mean([r.gap for r in rows]))
    checks = [
        -0.04 <= means[(2, 0.3)] <= -0.005,
        -0.001 <= means[(2, 0.01)] <= 0.0,
        -0.45 <= means[(5, 0.3)] <= -0.25,
        abs(means[(5, 0.01)]) < abs(means[(5, 0.3)]),
    ]
    detail = ", ".join(
        f"H={s} eps={e:g}: {means[(s, e)]:.4%}" for s, e in GAP_CELLS
    )
    _report(4, all(checks), detail + " (HiGHS backend)")


def test_criterion_5_violation_guarantee(gap_reports):
    total = 0
    exceptions = []
    for (stages, eps), report in gap_reports.items():
        for row in report.rows_for(eps):
            total += 1
            if row.violation > eps:
                exceptions.append(f"H={stages} eps={eps} seed={row.seed} viol={row.violation:.4f}")
    allowed = max(1, total // 300)
    ok = len(exceptions) <= allowed
    worst = max(
        (row.violation / eps)
        for (s, eps), rep in gap_reports.items()
        for row in rep.rows_for(eps)
    )
    _report(
        5, ok,
        f"{len(exceptions)} exceptions over {total} instances (allowed {allowed}); "
        f"max violation/eps = {worst:.3f}",
    )


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    count = 0
    for i in range(20):
        H = 2 + (i % 2)
        problem = random_discrete_problem(np.random.default_rng(9000 + i), H)
        lp, _ = build_swc(problem, build_prefix_tree(vertex_paths(problem.uncertainty)))
        res = solve_builtin(lp)
        nested = nested_minmax_value(problem, "builtin")
        worst = max(worst, abs(res.objective - nested))
        count += 1
    _report(6, count >= 20 and worst <= 1e-6, f"{count} problems, max |swc - nested| = {worst:.2e}")


def test_criterion_7_solver_correctness():
    rng = np.random.default_rng(77001)
    stats = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    mismatches = []
    for i in range(200):
        lp = random_lp(rng, 8, 8)
        status, value = oracle_solve(lp)
        res = solve_builtin(lp)
        stats[status] += 1
        if res.status.value != status:
            mismatches.append(f"#{i}: {status} vs {res.status.value}")
        elif status == "optimal" and abs(res.objective - value) > 1e-8:
            mismatches.append(f"#{i}: {value} vs {res.objective}")
    ok = not mismatches and stats["optimal"] >= 20 and stats["infeasible"] >= 5 and stats["unbounded"] >= 5
    _report(7, ok, f"200 LPs agree with enumeration ({stats}); mismatches: {mismatches[:3]}")


def test_criterion_8_prefix_tree_semantics():
    # sharing over the discrete uniform square happens iff first draws agree
    square = UncertaintySet(
        (IntegerBoxSupport(np.array([1]), np.array([5])),
         IntegerBoxSupport(np.array([1]), np.array([5])))
    )
    paths = draw_paths(square, 120, seed=88)
    tree = build_prefix_tree(paths)
    exact = all(
        (tree.path_to_node[i][0] == tree.path_to_node[j][0])
        == (paths[i].stages[0] == paths[j].stages[0])
        for i in range(120) for j in range(120)
    )
    base = random_discrete_problem(np.random.default_rng(8), 3)
    support = DiscreteSupport(tuple(np.array([float(v)]) for v in (1, 2, 3, 4, 5)))
    problem = dataclasses.replace(base, uncertainty=UncertaintySet((support, support)))
    fig_paths = [ScenarioPath.of([[a], [b]]) for a, b in ((3, 4), (5, 2), (2, 1), (5, 5))]
    _, vmap = build_swc(problem, build_prefix_tree(fig_paths))
    blocks = len(vmap.stage_blocks(2))
    _report(8, exact and blocks == 3, f"exact-equality sharing holds; published path set -> {blocks} first-stage certificate blocks")


def test_criterion_9_reproducibility(tmp_path):
    problem = inventory_benchmark(2)

    def run(out):
        report = run_experiment(
            problem, [0.3, 0.1], 0.001, 6, base_seed=31, solver="highs",
            n0=BENCHMARK_N0, L=2, compute_bounds=True, jobs=JOBS,
        )
        report.write_csvs(out)
        return report

    a, b = tmp_path / "a", tmp_path / "b"
    run(a)
    run(b)
    identical = True
    compared = []
    for f in sorted(a.iterdir()):
        ta, tb = f.read_text(), (b / f.name).read_text()
        if f.name.startswith("results"):
            # runtime_ms is wall-clock time; every value column must match
            strip = lambda t: "\n".join(",".join(ln.split(",")[:-1]) for ln in t.splitlines())
            ta, tb = strip(ta), strip(tb)
        compared.append(f.name)
        identical = identical and (ta == tb)
    _report(9, identical and len(compared) == 4, f"byte-identical reruns across {compared}")
