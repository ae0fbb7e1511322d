"""Post-solution quality assessment: feasibility certificates, empirical
violation probability, optimality gaps, value of perfect information, and
the multi-instance experiment harness with CSV output.

Seed discipline: instance k of a run uses seed base_seed + k; its training
draws come from the stream (seed, 0) and its validation draws from the
stream (seed, 1), so every figure is reproducible from the base seed alone.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .builders import (
    exact_value,
    scenario_costs,
    solve_swc_paths,
    sws_value,
    swct_value,
)
from .complexity import sample_complexity
from .lp import SolverError
from .model import LE, GE, EQ, MultistageRobustLP, ScenarioPath
from .sampling import draw_paths

#: absolute slack on the budget comparison, so solver noise is not a violation
VIOLATION_TOL = 1e-7

RESULTS_HEADER = "seed,N,swc_value,gap,violation,sws,swct,ro_exact,runtime_ms"
SUMMARY_HEADER = "metric,mean,min,q25,median,q75,max"


def optimality_gap(value: float, reference: float) -> float:
    """Signed relative gap (value - reference) / reference."""
    if reference == 0.0:
        raise ValueError("gap is undefined against a zero reference")
    return (value - reference) / reference


def certificate_feasible(
    problem: MultistageRobustLP,
    x1: np.ndarray,
    gamma: float,
    path: ScenarioPath,
    solver="highs",
) -> bool:
    """Whether the fixed first stage admits recourse along the path with
    total cost within the budget (within VIOLATION_TOL)."""
    x1 = np.asarray(x1, dtype=float)
    _check_first_stage(problem, x1)
    cost = scenario_costs(problem, [path], solver, x1=x1)[0]
    return bool(cost <= gamma + VIOLATION_TOL)


def _check_first_stage(problem: MultistageRobustLP, x1: np.ndarray, tol: float = 1e-6) -> None:
    act = problem.A @ x1
    for i, s in enumerate(problem.senses1):
        r = problem.h1[i]
        bad = (s == EQ and abs(act[i] - r) > tol) or (s == LE and act[i] - r > tol) or (
            s == GE and r - act[i] > tol
        )
        if bad:
            raise ValueError(f"x1 violates first-stage row {i} by {abs(act[i] - r):.2e}")


def empirical_violation(
    problem: MultistageRobustLP,
    x1: np.ndarray,
    gamma: float,
    L: int = 100,
    N: int = 1,
    seed=0,
    solver="highs",
) -> float:
    """Fraction of L*N fresh paths with no budget-feasible recourse.

    Draw the validation paths from a stream disjoint from training (the
    caller picks the seed).  Equals the batched average (1/L) sum_l (1/N)
    sum_i of the violation indicator.
    """
    if L < 1 or N < 1:
        raise ValueError("L and N must be positive")
    x1 = np.asarray(x1, dtype=float)
    _check_first_stage(problem, x1)
    paths = draw_paths(problem.uncertainty, L * N, seed)
    costs = scenario_costs(problem, paths, solver, x1=x1)
    return float(np.mean(costs > gamma + VIOLATION_TOL))


def rvpi(problem: MultistageRobustLP, solver="highs", leaf_cap: int = 4096) -> float:
    """Worst-case value of perfect information: exact RO minus exact
    wait-and-see.  Nonnegative by the lower-bound chain."""
    return exact_value(problem, "ro", solver, leaf_cap) - exact_value(
        problem, "rws", solver, leaf_cap
    )


# ---------------------------------------------------------------------------
# experiment harness

@dataclass
class InstanceResult:
    eps: float
    index: int
    seed: int
    N: int
    swc_value: float = math.nan
    gap: float = math.nan
    violation: float = math.nan
    sws: float | None = None
    swct: float | None = None
    ro_exact: float = math.nan
    runtime_ms: float = math.nan
    error: str | None = None


@dataclass
class ExperimentReport:
    rows: list[InstanceResult]
    references: dict[str, float]
    epsilons: tuple[float, ...]
    beta: float
    n0: int
    base_seed: int
    errors: list[str] = field(default_factory=list)
    # sampled-bound orderings that failed under first-component-shared draws;
    # informational, since the three bounds see different scenario objects
    chain_flags: list[str] = field(default_factory=list)

    def rows_for(self, eps: float) -> list[InstanceResult]:
        return [r for r in self.rows if r.eps == eps and r.error is None]

    def summary(self, eps: float) -> dict[str, dict[str, float]]:
        """Aggregates per metric, recomputed from the per-instance rows."""
        rows = self.rows_for(eps)
        out: dict[str, dict[str, float]] = {}
        metrics = {
            "swc_value": [r.swc_value for r in rows],
            "gap": [r.gap for r in rows],
            "violation": [r.violation for r in rows],
        }
        if rows and rows[0].sws is not None:
            metrics["sws"] = [r.sws for r in rows]
        if rows and rows[0].swct is not None:
            metrics["swct"] = [r.swct for r in rows]
        for name, vals in metrics.items():
            if not vals:
                continue
            arr = np.asarray(vals, dtype=float)
            out[name] = {
                "mean": float(arr.mean()),
                "min": float(arr.min()),
                "q25": float(np.percentile(arr, 25)),
                "median": float(np.percentile(arr, 50)),
                "q75": float(np.percentile(arr, 75)),
                "max": float(arr.max()),
            }
        return out

    def write_csvs(self, out_dir) -> list[Path]:
        """One results file and one summary file per accuracy level.

        Columns are fixed (RESULTS_HEADER/SUMMARY_HEADER); all floats are
        rendered with %.12g so reruns with the same configuration are
        byte-identical apart from the wall-clock runtime_ms column.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for eps in self.epsilons:
            rows = [r for r in self.rows if r.eps == eps]
            path = out_dir / f"results_eps{eps:g}.csv"
            lines = [RESULTS_HEADER]
            for r in rows:
                if r.error is not None:
                    continue
                lines.append(
                    ",".join(
                        [
                            str(r.seed),
                            str(r.N),
                            _fmt(r.swc_value),
                            _fmt(r.gap),
                            _fmt(r.violation),
                            _fmt(r.sws),
                            _fmt(r.swct),
                            _fmt(r.ro_exact),
                            f"{r.runtime_ms:.3f}",
                        ]
                    )
                )
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
            spath = out_dir / f"summary_eps{eps:g}.csv"
            slines = [SUMMARY_HEADER]
            for metric, stats in self.summary(eps).items():
                slines.append(
                    ",".join(
                        [metric]
                        + [_fmt(stats[k]) for k in ("mean", "min", "q25", "median", "q75", "max")]
                    )
                )
            spath.write_text("\n".join(slines) + "\n")
            written.append(spath)
        return written


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.12g}"


def write_references_csv(references: dict[str, float], out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "references.csv"
    lines = ["mode,value"] + [f"{k},{_fmt(v)}" for k, v in sorted(references.items())]
    path.write_text("\n".join(lines) + "\n")
    return path


def _instance_task(payload) -> InstanceResult:
    (problem, eps, N, index, seed, solver, L, val_N, compute_bounds, rt_tail,
     ro) = payload
    row = InstanceResult(eps=eps, index=index, seed=seed, N=N, ro_exact=ro)
    t0 = time.perf_counter()
    try:
        train = draw_paths(problem.uncertainty, N, [seed, 0])
        value, x1, gamma, _ = solve_swc_paths(problem, train, solver)
        row.swc_value = value
        row.gap = optimality_gap(value, ro)
        row.violation = empirical_violation(
            problem, x1, gamma, L=L, N=val_N, seed=[seed, 1], solver=solver
        )
        if compute_bounds:
            row.sws = sws_value(problem, train, solver)[0]
            xi1s = train.values[:, : problem.uncertainty.dim(1)]
            row.swct = swct_value(problem, xi1s, rt_tail, solver)
    except (SolverError, RuntimeError, ValueError) as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    row.runtime_ms = (time.perf_counter() - t0) * 1e3
    return row


def run_experiment(
    problem: MultistageRobustLP,
    epsilons,
    beta: float,
    instances: int,
    base_seed: int,
    solver="highs",
    *,
    n0: int | None = None,
    L: int = 100,
    validation_per_batch: int | None = None,
    compute_bounds: bool = False,
    rt_tail=None,
    jobs: int = 1,
    leaf_cap: int = 4096,
    verbose: bool = False,
) -> ExperimentReport:
    """Solve `instances` seeded scenario problems per accuracy level.

    For each epsilon the sample size is the explicit bound at (epsilon,
    beta, n0); per instance the harness draws training paths, solves the
    certificate LP, measures the gap against the exact worst case, and
    estimates the violation probability on L batches of fresh draws
    (batch size defaults to the training N).  With compute_bounds the
    wait-and-see and deterministic-tail bounds are evaluated on the same
    draws (first components shared).
    """
    if instances < 1:
        raise ValueError("need at least one instance")
    if n0 is None:
        n0 = problem.dims.n[0] + 1
    references = {"ro": exact_value(problem, "ro", solver, leaf_cap)}
    if compute_bounds:
        references["rws"] = exact_value(problem, "rws", solver, leaf_cap)
        references["rt"] = exact_value(problem, "rt", solver, leaf_cap)
    epsilons = tuple(epsilons)
    tasks = []
    for eps in epsilons:
        N = sample_complexity(eps, beta, n0)
        for k in range(instances):
            tasks.append(
                (
                    problem, eps, N, k, base_seed + k, solver, L,
                    validation_per_batch or N, compute_bounds, rt_tail,
                    references["ro"],
                )
            )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_instance_task, tasks, chunksize=1))
    else:
        rows = [_instance_task(t) for t in tasks]
    errors = []
    chain_flags = []
    for row in rows:
        if verbose:
            print(
                f"eps={row.eps:g} instance={row.index} seed={row.seed} "
                f"value={row.swc_value:.6f} gap={row.gap:.4%} violation={row.violation:.4g} "
                f"({row.runtime_ms:.0f} ms)"
                if row.error is None
                else f"eps={row.eps:g} instance={row.index} FAILED: {row.error}"
            )
        if row.error is not None:
            errors.append(f"eps={row.eps:g} instance={row.index}: {row.error}")
        elif compute_bounds:
            if row.sws > row.swct + 1e-6:
                chain_flags.append(
                    f"eps={row.eps:g} seed={row.seed}: sws {row.sws:.6f} > swct {row.swct:.6f}"
                )
            if row.swct > row.swc_value + 1e-6:
                chain_flags.append(
                    f"eps={row.eps:g} seed={row.seed}: swct {row.swct:.6f} > swc {row.swc_value:.6f}"
                )
    return ExperimentReport(
        rows=rows,
        references=references,
        epsilons=epsilons,
        beta=beta,
        n0=n0,
        base_seed=base_seed,
        errors=errors,
        chain_flags=chain_flags,
    )
