"""Command-line surface.

Subcommands: complexity, solve-swc, exact, validate, experiment, and
benchmark-inventory, a preset of experiment: the inventory benchmark at the
nine published accuracy levels, base seed 20160001, SWS/SwCT bounds on.

Each default is declared once, on its flag.  Three follow from other
inputs: n0 from the problem, and validate's per-batch N and seed from the
solution file.  A JSON config file may supply the value of any long flag
of any subcommand (dashes as underscores); a key that names no flag is a
usage error, and explicit flags win over the file, zeros included.

Exit codes: 0 success, 2 usage error or invalid input, 3 solver failure,
the last two with one `error: ...` line on stderr.  experiment prints each
failed instance and each failed bound ordering as one stderr line and
still exits 0.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .builders import exact_value, solve_swc_paths
from .complexity import min_samples_exact, sample_complexity
from .inventory import BENCHMARK_N0, PAPER_EPSILONS, inventory_benchmark
from .lp import SolverError
from .model import MultistageRobustLP
from .problem_io import load_problem
from .sampling import draw_paths
from .validation import empirical_violation, run_experiment, rvpi


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _parse_eps(value: str) -> list[float]:
    return [float(tok) for tok in value.replace(",", " ").split()]


def _add_common_flags(sp, stages=None) -> None:
    sp.add_argument("--stages", type=int, choices=stages, default=5,
                    help="benchmark stage count (default %(default)s)")
    sp.add_argument("--variant", choices=["continuous", "integer"], default="continuous",
                    help="benchmark demand variant (default %(default)s)")
    sp.add_argument("--solver", choices=["builtin", "highs", "external"], default="highs",
                    help="LP backend (default %(default)s)")
    sp.add_argument("--solver-cmd", help="external solver command line")


def _add_problem_flags(sp) -> None:
    sp.add_argument("--problem", help="problem JSON file")
    sp.add_argument("--benchmark", choices=["inventory"], help="built-in benchmark")
    _add_common_flags(sp)


def _add_sample_size_flags(sp, n0=None) -> None:
    sp.add_argument("--beta", type=float, default=1e-3,
                    help="confidence level (default %(default)g)")
    sp.add_argument("--n0", type=int, default=n0,
                    help=f"design-variable count (default {n0 or 'from the problem'})")


def _add_grid_flags(sp) -> None:
    sp.add_argument("--instances", type=int, default=100,
                    help="instances per level (default %(default)s)")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers (default %(default)s)")
    sp.add_argument("--out", required=True, help="output directory for CSVs")
    sp.add_argument("--validation-batches", type=int, default=100,
                    help="validation batches L (default %(default)s)")
    sp.add_argument("--paper-scale", action="store_true", help="validation with L=1000 batches")
    sp.add_argument("--verbose", action="store_true", help="one log line per instance")


def _resolve_solver(args) -> str:
    return args.solver if args.solver_cmd is None else f"external:{args.solver_cmd}"


def _resolve_problem(args) -> MultistageRobustLP:
    if args.problem:
        return load_problem(args.problem)
    if args.benchmark == "inventory":
        return inventory_benchmark(args.stages, args.variant)
    raise ValueError("pass --problem FILE or --benchmark inventory")


def _default_n0(args, problem) -> int:
    if args.n0 is not None:
        return args.n0
    if args.benchmark == "inventory":
        return BENCHMARK_N0
    return problem.dims.n[0] + 1


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The parser; `config` maps long flags of any subcommand to defaults."""
    ap = argparse.ArgumentParser(
        prog="swcopt",
        description="Constraint sampling for multistage robust linear programs",
    )
    ap.add_argument("--config", help="JSON file with default flag values")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("complexity", help="sample sizes for accuracy/confidence targets")
    sp.add_argument("--eps", type=_parse_eps, required=True,
                    help="accuracy level(s), comma separated")
    _add_sample_size_flags(sp, n0=4)
    sp.add_argument("--exact", action="store_true", help="also print the exact minimum N")

    sp = sub.add_parser("solve-swc", help="solve one sampled certificate problem")
    _add_problem_flags(sp)
    _add_sample_size_flags(sp)
    sp.add_argument("--samples", type=int, help="number of sampled paths")
    sp.add_argument("--eps", type=float, help="derive N from this accuracy")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    sp.add_argument("--out", help="write the solution JSON here")

    sp = sub.add_parser("exact", help="vertex-tree reference values")
    _add_problem_flags(sp)
    sp.add_argument("--mode", required=True, choices=["ro", "rws", "rt", "rvpi"])

    sp = sub.add_parser("validate", help="empirical violation of a stored solution")
    _add_problem_flags(sp)
    sp.add_argument("--solution", required=True, help="solution JSON from solve-swc")
    sp.add_argument("--batches", type=int, default=100,
                    help="validation batches L (default %(default)s)")
    sp.add_argument("--per-batch", type=int, help="draws per batch (default: solution N)")
    sp.add_argument("--seed", type=int, help="base seed (default: the solution's)")

    exp = sub.add_parser("experiment", help="multi-instance experiment grid to CSVs")
    _add_problem_flags(exp)
    _add_sample_size_flags(exp)
    exp.add_argument("--eps", type=_parse_eps, required=True,
                     help="accuracy levels, comma separated")
    exp.add_argument("--bounds", action="store_true", help="also compute SWS/SwCT bounds")
    _add_grid_flags(exp)

    sp = sub.add_parser("benchmark-inventory",
                        help="experiment preset: the built-in benchmark grid, bounds on")
    _add_common_flags(sp, stages=[2, 5])
    sp.add_argument("--eps", type=_parse_eps, default=PAPER_EPSILONS,
                    help="accuracy levels, comma separated (default: the nine published)")
    _add_grid_flags(sp)
    # experiment's defaults for what the preset does not expose (problem, beta, n0)
    own = {a.dest for a in sp._actions}
    sp.set_defaults(**{a.dest: a.default for a in exp._actions if a.dest not in own})
    sp.set_defaults(benchmark="inventory", bounds=True, seed=20160001)

    if config:
        flags = {
            p: {a.dest for a in p._actions if any(o.startswith("--") for o in a.option_strings)}
            - {"help"}
            for p in sub.choices.values()
        }
        # a JSON number goes in as text, so that the flag's type parses and checks it
        values = {key.replace("-", "_"): str(val) if type(val) in (int, float) else val
                  for key, val in config.items()}
        unknown = [key for key in values if not any(key in dests for dests in flags.values())]
        if unknown:
            raise ValueError(f"--config: no subcommand has a flag named {', '.join(unknown)}")
        for p, dests in flags.items():
            p.set_defaults(**{key: val for key, val in values.items() if key in dests})
    return ap


def _cmd_complexity(args) -> int:
    for eps in args.eps:
        N = sample_complexity(eps, args.beta, args.n0)
        if args.exact:
            print(f"{N} {min_samples_exact(eps, args.beta, args.n0)}")
        else:
            print(N)
    return 0


def _cmd_solve_swc(args) -> int:
    problem = _resolve_problem(args)
    if args.samples is not None:
        N = args.samples
    elif args.eps is not None:
        N = sample_complexity(args.eps, args.beta, _default_n0(args, problem))
    else:
        raise ValueError("pass --samples or --eps")
    paths = draw_paths(problem.uncertainty, N, [args.seed, 0])
    value, x1, gamma, res = solve_swc_paths(problem, paths, _resolve_solver(args))
    print(_fmt(value))
    if args.out:
        payload = {
            "value": value,
            "gamma": gamma,
            "x1": [float(v) for v in x1],
            "N": N,
            "seed": args.seed,
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
    payload = json.loads(Path(args.solution).read_text())
    x1 = np.array(payload["x1"], dtype=float)
    gamma = float(payload["gamma"])
    per = int(payload.get("N", 1)) if args.per_batch is None else args.per_batch
    seed = int(payload.get("seed", 0)) if args.seed is None else args.seed
    frac = empirical_violation(problem, x1, gamma, L=args.batches, N=per, seed=[seed, 1],
                               solver=_resolve_solver(args))
    print(_fmt(frac))
    return 0


def _cmd_experiment(args) -> int:
    problem = _resolve_problem(args)
    report = run_experiment(
        problem,
        args.eps,
        args.beta,
        args.instances,
        args.seed,
        _resolve_solver(args),
        n0=_default_n0(args, problem),
        L=1000 if args.paper_scale else args.validation_batches,
        compute_bounds=args.bounds,
        jobs=args.jobs,
        verbose=args.verbose,
    )
    report.write_csvs(args.out)
    for eps in report.epsilons:
        stats = report.summary(eps).get("gap")
        if stats:
            print(f"eps={eps:g} mean_gap={_fmt(stats['mean'])} rows={len(report.rows_for(eps))}")
    for line in report.errors:
        print(f"failed: {line}", file=sys.stderr)
    for line in report.chain_flags:
        print(f"bound order: {line}", file=sys.stderr)
    return 0


_COMMANDS = {
    "complexity": _cmd_complexity,
    "solve-swc": _cmd_solve_swc,
    "exact": _cmd_exact,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "benchmark-inventory": _cmd_experiment,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            config = json.loads(Path(args.config).read_text())
            if not isinstance(config, dict):
                raise ValueError("--config: expected a JSON object")
            args = build_parser(config).parse_args(argv)
        return _COMMANDS[args.command](args)
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
