"""Price paths on random constant-recourse models and print one JSON line
with the pricing loop's summed counters.

Seed k of 0..SEEDS-1 (300 by default) takes rng = default_rng(k), H =
rng.integers(2, 5), and free, degenerate and discrete from bits 0, 1 and
2 of k; constant_recourse_problem of tests/test_pool.py then draws a model
and its reference first stage x_bar from rng, and x_bar plus
rng.integers(-2, 3) per entry is the perturbed first stage.  On that one
problem, scenario_costs prices 200 paths of stream [k, 1] at x1 = None, at
x_bar and at the perturbed x_bar, in that order, so the last two calls
share one basis pool.  The line holds the models and calls made, the sums of
their DEBUG records' solves, seeds, fallback, pivots and rejected, and
the rays the problems' pools hold after their last call.

Run from anywhere, with the swcopt under src/ and the tests beside this
directory:
    python tools/sweep.py [SEEDS]
"""
from __future__ import annotations

import json
import logging
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from swcopt.builders import scenario_costs  # noqa: E402
from swcopt.sampling import draw_paths  # noqa: E402
from test_pool import constant_recourse_problem  # noqa: E402

SUMMED = ("solves", "seeds", "fallback", "pivots", "rejected")


def sweep(seeds: int) -> dict:
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.addFilter(lambda r: hasattr(r, "scenario_costs"))
    handler.emit = lambda r: records.append(r.scenario_costs)
    logger = logging.getLogger("swcopt.builders")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    totals = Counter()
    try:
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            H = int(rng.integers(2, 5))
            problem, x_bar = constant_recourse_problem(rng, H, bool(seed & 1), bool(seed & 2),
                                                       bool(seed & 4))
            perturbed = x_bar + rng.integers(-2, 3, x_bar.size)
            paths = draw_paths(problem.uncertainty, 200, [seed, 1])
            last = {}  # the last record of each LP: the whole one, and the recourse one
            for x1 in (None, x_bar, perturbed):
                scenario_costs(problem, paths, x1=x1)
                totals.update({k: records[-1][k] for k in SUMMED})
                totals["calls"] += 1
                last[x1 is None] = records[-1]
            totals["rays"] += sum(r["rays"] for r in last.values())
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return {"models": seeds, **{k: totals[k] for k in ("calls", *SUMMED, "rays")}}


def main(argv: list[str]) -> None:
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        raise SystemExit("usage: python tools/sweep.py [SEEDS]")
    print(json.dumps(sweep(int(argv[0]) if argv else 300)))


if __name__ == "__main__":
    main(sys.argv[1:])
