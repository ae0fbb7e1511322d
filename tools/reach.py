"""Time one SwC solve per case, each in a fresh process, and print one JSON
line per case.

A case is VARIANT:N, an inventory demand variant and a sample size; its
training paths are N draws from stream [11, 0] of the five-stage model,
solved by solve_swc_paths on HiGHS.  Each case runs in its own child
process with BLAS pinned to one thread, so its peak RSS is its own.  A line
holds the solve's seconds (drawing the paths excluded), the process's peak
RSS, and the method, rounds, leaves, last master shape, cuts and dropped
cuts (core method only) and value from the solve's DEBUG record.

Run from anywhere, with the swcopt under src/ beside this directory:
    python tools/reach.py integer:18838 integer:37676 continuous:75352
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STREAM = [11, 0]
STAGES = 5
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_case(variant: str, n: int) -> dict:
    import logging
    import resource
    import time

    sys.path.insert(0, str(SRC))
    from swcopt.builders import solve_swc_paths
    from swcopt.inventory import inventory_benchmark
    from swcopt.sampling import draw_paths

    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("swcopt.builders")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    problem = inventory_benchmark(STAGES, variant)
    paths = draw_paths(problem.uncertainty, n, STREAM)
    t0 = time.perf_counter()
    value = solve_swc_paths(problem, paths)[0]
    seconds = time.perf_counter() - t0
    stats = [r.solve_swc for r in records if hasattr(r, "solve_swc")][-1]
    core = stats["method"] == "core"
    return {"variant": variant, "N": n, "seconds": round(seconds, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "method": stats["method"], "rounds": stats["rounds"], "leaves": stats["leaves"],
            "master": [stats["rows"], stats["cols"]],
            "cuts": stats["optimality_cuts"] + stats["feasibility_cuts"] if core else None,
            "dropped": stats["dropped"] if core else None, "value": value}


def parse(case: str) -> tuple[str, int]:
    variant, _, n = case.partition(":")
    if variant not in ("continuous", "integer") or not n.isdigit():
        raise SystemExit(f"reach: case {case!r} is not VARIANT:N, VARIANT continuous or integer")
    return variant, int(n)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(run_case(*parse(argv[1]))), flush=True)
        return 0
    if not argv:
        raise SystemExit(__doc__)
    cases = [parse(case) for case in argv]  # refuse a bad case before any solve
    env = dict(os.environ, **{name: "1" for name in THREADS})
    for variant, n in cases:
        subprocess.run([sys.executable, __file__, "--child", f"{variant}:{n}"], env=env,
                       check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
