"""Time one SwC solve per case, each in a fresh process, and print one JSON
line per case.

A case is VARIANT:N or VARIANT:N:L, an inventory demand variant, a sample
size and, optionally, a number of validation batches.  Its training paths
are N draws from stream [11, 0] of the five-stage model, solved by
solve_swc_paths on HiGHS.  With L, empirical_violation then validates the
solution on L batches of N fresh paths from stream [11, 1], as the
harness's --paper-scale run does.  Each case runs in its own child process
with BLAS pinned to one thread, so its peak RSS is its own.  A line holds
the solve's seconds (drawing the paths excluded), the process's peak RSS,
and the method, rounds, leaves, last master shape, cuts and dropped cuts
(core method only) and value from the solve's DEBUG record.  With L the
validation runs twice: cold, on a copy of the model that carries no basis
pools, then warm, on the solved model, whose pools the solve filled, as
in the harness.  For each the line holds its seconds (drawing its paths
included; validation_cold_s and validation_s), and, under "cold" and at
the top level, its microseconds per validation path
(validation_us_per_path, the seconds over L·N) and the solves, dual
simplex pivots, fallback solves and warm bases (the bases its pools held
at entry) of its scenario_costs record, with the violation, which both
runs share.

Run from anywhere, with the swcopt under src/ beside this directory:
    python tools/reach.py integer:18838 integer:37676 continuous:18838:100
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STREAM = [11, 0]
VALIDATION_STREAM = [11, 1]
STAGES = 5
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_case(variant: str, n: int, batches: int | None) -> dict:
    import copy
    import logging
    import resource
    import time

    sys.path.insert(0, str(SRC))
    from swcopt.builders import solve_swc_paths
    from swcopt.inventory import inventory_benchmark
    from swcopt.sampling import draw_paths
    from swcopt.validation import empirical_violation

    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("swcopt.builders")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    problem = inventory_benchmark(STAGES, variant)
    paths = draw_paths(problem.uncertainty, n, STREAM)
    t0 = time.perf_counter()
    value, x1, gamma, _ = solve_swc_paths(problem, paths)
    seconds = time.perf_counter() - t0
    stats = [r.solve_swc for r in records if hasattr(r, "solve_swc")][-1]
    core = stats["method"] == "core"
    line = {"variant": variant, "N": n, "seconds": round(seconds, 3),
            "method": stats["method"], "rounds": stats["rounds"], "leaves": stats["leaves"],
            "master": [stats["rows"], stats["cols"]],
            "cuts": stats["optimality_cuts"] + stats["feasibility_cuts"] if core else None,
            "dropped": stats["dropped"] if core else None, "value": value}
    if batches is not None:
        runs = []
        for model in (copy.copy(problem), problem):  # a copy carries no pools
            t0 = time.perf_counter()
            violation = empirical_violation(model, x1, gamma, L=batches, N=n,
                                            seed=VALIDATION_STREAM)
            seconds = time.perf_counter() - t0
            pricing = [r.scenario_costs for r in records if hasattr(r, "scenario_costs")][-1]
            runs.append({"validation_s": round(seconds, 3), "violation": violation,
                         "validation_us_per_path": round(seconds * 1e6 / (batches * n), 3),
                         **{k: pricing[k] for k in ("solves", "pivots", "fallback", "warm")}})
        cold, warm = runs
        if cold.pop("violation") != warm["violation"]:
            raise RuntimeError("cold and warm validation disagree")
        line.update(L=batches, validation_cold_s=cold.pop("validation_s"), cold=cold, **warm)
    line["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return line


def parse(case: str) -> tuple[str, int, int | None]:
    variant, _, rest = case.partition(":")
    fields = rest.split(":")
    if (variant not in ("continuous", "integer") or len(fields) > 2
            or not all(f.isdigit() and int(f) > 0 for f in fields)):
        raise SystemExit(f"reach: case {case!r} is not VARIANT:N or VARIANT:N:L, with VARIANT "
                         "continuous or integer and N, L positive integers")
    return variant, int(fields[0]), int(fields[1]) if len(fields) == 2 else None


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(run_case(*parse(argv[1]))), flush=True)
        return 0
    if not argv:
        raise SystemExit(__doc__)
    for case in argv:  # refuse a bad case before any solve
        parse(case)
    env = dict(os.environ, **{name: "1" for name in THREADS})
    for case in argv:
        subprocess.run([sys.executable, __file__, "--child", case], env=env, check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
