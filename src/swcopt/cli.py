"""Command-line surface.

Subcommands: complexity, solve-swc, exact, validate, experiment,
benchmark-inventory.  A JSON config file may supply any long-flag value
(dashes as underscores); explicit flags win over the file, zeros included.
Exit codes: 0 success, 2 usage error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .builders import exact_value, solve_swc_paths
from .complexity import min_samples_exact, sample_complexity
from .inventory import BENCHMARK_N0, PAPER_EPSILONS, inventory_benchmark, run_paper_grid
from .lp import SolverError
from .model import MultistageRobustLP
from .problem_io import load_problem
from .sampling import draw_paths
from .validation import empirical_violation, run_experiment, rvpi, write_references_csv


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _given(value, default):  # `value or default` would rewrite a given 0
    return default if value is None else value


def _parse_eps(value: str) -> list[float]:
    return [float(tok) for tok in value.replace(",", " ").split()]


def _add_problem_flags(sp) -> None:
    sp.add_argument("--problem", help="problem JSON file")
    sp.add_argument("--benchmark", choices=["inventory"], help="built-in benchmark")
    sp.add_argument("--stages", type=int, default=None, help="benchmark stage count")
    sp.add_argument(
        "--variant", choices=["continuous", "integer"], default=None,
        help="benchmark demand variant",
    )


def _add_solver_flags(sp) -> None:
    sp.add_argument(
        "--solver", choices=["builtin", "highs", "external"], default=None,
        help="LP backend (default highs)",
    )
    sp.add_argument("--solver-cmd", default=None, help="external solver command line")


def _resolve_solver(args) -> str:
    if getattr(args, "solver_cmd", None) is not None:
        return f"external:{args.solver_cmd}"
    return _given(args.solver, "highs")


def _resolve_problem(args) -> MultistageRobustLP:
    if args.problem:
        return load_problem(args.problem)
    if args.benchmark == "inventory":
        return inventory_benchmark(_given(args.stages, 5), _given(args.variant, "continuous"))
    raise SystemExit2("pass --problem FILE or --benchmark inventory")


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _default_n0(args, problem) -> int:
    if getattr(args, "n0", None) is not None:
        return args.n0
    if args.benchmark == "inventory":
        return BENCHMARK_N0
    return problem.dims.n[0] + 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swcopt",
        description="Constraint sampling for multistage robust linear programs",
    )
    ap.add_argument("--config", help="JSON file with default flag values")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("complexity", help="sample sizes for accuracy/confidence targets")
    sp.add_argument("--eps", required=True, help="accuracy level(s), comma separated")
    sp.add_argument("--beta", type=float, default=None, help="confidence level (default 1e-3)")
    sp.add_argument("--n0", type=int, default=None, help="design-variable count (default 4)")
    sp.add_argument("--exact", action="store_true", help="also print the exact minimum N")

    sp = sub.add_parser("solve-swc", help="solve one sampled certificate problem")
    _add_problem_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--samples", type=int, default=None, help="number of sampled paths")
    sp.add_argument("--eps", type=float, default=None, help="derive N from this accuracy")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--n0", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    sp.add_argument("--out", default=None, help="write the solution JSON here")

    sp = sub.add_parser("exact", help="vertex-tree reference values")
    _add_problem_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--mode", required=True, choices=["ro", "rws", "rt", "rvpi"])

    sp = sub.add_parser("validate", help="empirical violation of a stored solution")
    _add_problem_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--solution", required=True, help="solution JSON from solve-swc")
    sp.add_argument("--batches", type=int, default=None, help="validation batches L (default 100)")
    sp.add_argument("--per-batch", type=int, default=None, help="draws per batch (default: solution N)")
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("experiment", help="multi-instance experiment grid to CSVs")
    _add_problem_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--eps", required=True, help="accuracy levels, comma separated")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--n0", type=int, default=None)
    sp.add_argument("--instances", type=int, default=None, help="instances per level (default 100)")
    sp.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    sp.add_argument("--jobs", type=int, default=None, help="parallel workers (default 1)")
    sp.add_argument("--out", required=True, help="output directory for CSVs")
    sp.add_argument("--bounds", action="store_true", help="also compute SWS/SwCT bounds")
    sp.add_argument("--validation-batches", type=int, default=None, help="L (default 100)")
    sp.add_argument("--paper-scale", action="store_true", help="validation with L=1000 batches")
    sp.add_argument("--verbose", action="store_true", help="one log line per instance")

    sp = sub.add_parser("benchmark-inventory", help="the built-in benchmark grid")
    _add_solver_flags(sp)
    sp.add_argument("--stages", type=int, choices=[2, 5], default=None)
    sp.add_argument("--variant", choices=["continuous", "integer"], default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--eps", default=None, help="override the published accuracy grid")
    sp.add_argument("--instances", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=None)
    sp.add_argument("--validation-batches", type=int, default=None)
    sp.add_argument("--paper-scale", action="store_true")
    sp.add_argument("--max-samples", type=int, default=None,
                    help="skip levels needing more samples than this (default 2000)")
    sp.add_argument("--verbose", action="store_true")
    return ap


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    values = json.loads(Path(args.config).read_text())
    for key, val in values.items():
        attr = key.replace("-", "_")
        # unset: None, or False for a store_true flag (0 == False, so `is`)
        if hasattr(args, attr) and (getattr(args, attr) is None or getattr(args, attr) is False):
            setattr(args, attr, val)
    return args


def _cmd_complexity(args) -> int:
    beta = _given(args.beta, 1e-3)
    n0 = _given(args.n0, 4)
    for eps in _parse_eps(args.eps):
        N = sample_complexity(eps, beta, n0)
        if args.exact:
            print(f"{N} {min_samples_exact(eps, beta, n0)}")
        else:
            print(N)
    return 0


def _cmd_solve_swc(args) -> int:
    problem = _resolve_problem(args)
    solver = _resolve_solver(args)
    seed = _given(args.seed, 0)
    if args.samples is not None:
        N = args.samples
    elif args.eps is not None:
        N = sample_complexity(args.eps, _given(args.beta, 1e-3), _default_n0(args, problem))
    else:
        raise SystemExit2("pass --samples or --eps")
    paths = draw_paths(problem.uncertainty, N, [seed, 0])
    value, x1, gamma, res = solve_swc_paths(problem, paths, solver)
    print(_fmt(value))
    if args.out:
        payload = {
            "value": value,
            "gamma": gamma,
            "x1": [float(v) for v in x1],
            "N": N,
            "seed": seed,
            "iterations": res.iterations,
            "solve_time_s": res.time_s,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


def _cmd_exact(args) -> int:
    problem = _resolve_problem(args)
    solver = _resolve_solver(args)
    if args.mode == "rvpi":
        print(_fmt(rvpi(problem, solver)))
    else:
        print(_fmt(exact_value(problem, args.mode, solver)))
    return 0


def _cmd_validate(args) -> int:
    problem = _resolve_problem(args)
    solver = _resolve_solver(args)
    payload = json.loads(Path(args.solution).read_text())
    x1 = np.array(payload["x1"], dtype=float)
    gamma = float(payload["gamma"])
    L = _given(args.batches, 100)
    per = _given(args.per_batch, int(payload.get("N", 1)))
    seed = _given(args.seed, int(payload.get("seed", 0)))
    frac = empirical_violation(problem, x1, gamma, L=L, N=per, seed=[seed, 1], solver=solver)
    print(_fmt(frac))
    return 0


def _cmd_experiment(args) -> int:
    problem = _resolve_problem(args)
    solver = _resolve_solver(args)
    L = 1000 if args.paper_scale else _given(args.validation_batches, 100)
    report = run_experiment(
        problem,
        _parse_eps(args.eps),
        _given(args.beta, 1e-3),
        _given(args.instances, 100),
        _given(args.seed, 0),
        solver,
        n0=_default_n0(args, problem),
        L=L,
        compute_bounds=args.bounds,
        jobs=_given(args.jobs, 1),
        verbose=args.verbose,
    )
    report.write_csvs(args.out)
    write_references_csv(report.references, args.out)
    for eps in report.epsilons:
        stats = report.summary(eps).get("gap")
        if stats:
            print(f"eps={eps:g} mean_gap={_fmt(stats['mean'])} rows={len(report.rows_for(eps))}")
    if report.errors:
        print(f"{len(report.errors)} instance(s) failed; see report.errors", file=sys.stderr)
    return 0


def _cmd_benchmark_inventory(args) -> int:
    L = 1000 if args.paper_scale else _given(args.validation_batches, 100)
    run_paper_grid(
        variant=_given(args.variant, "continuous"),
        stages=_given(args.stages, 5),
        out_dir=args.out,
        epsilons=PAPER_EPSILONS if args.eps is None else _parse_eps(args.eps),
        instances=_given(args.instances, 100),
        base_seed=_given(args.seed, 20160001),
        solver=_resolve_solver(args),
        jobs=_given(args.jobs, 1),
        L=L,
        max_samples=_given(args.max_samples, 2000),
        verbose=args.verbose,
    )
    return 0


_COMMANDS = {
    "complexity": _cmd_complexity,
    "solve-swc": _cmd_solve_swc,
    "exact": _cmd_exact,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "benchmark-inventory": _cmd_benchmark_inventory,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = _apply_config(ap.parse_args(argv))
    try:
        return _COMMANDS[args.command](args)
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
