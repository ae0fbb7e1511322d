"""Benchmark of swcopt: one workload per process, one thread of load.

    python3 bench/run.py --workload swc-continuous --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports swcopt from its
``src`` directory.  After the workload's set-up it runs whole rounds of
operations, as many as end nearest to --seconds, checks every output, and
prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics setup_s, wall_s, op_p50_s and
  peak_rss_mb.  The three times are scaled to the reference speed of the
  machine, which ``calibration.SpeedMeter`` measures between the
  operations; the raw times go to standard error;
* ``--trace 1``: the per-layer metrics.  The run times each round once
  untraced and once traced, in alternating order, reports the median
  per-round difference as trace.overhead_s and writes the spans to
  .bench_out/trace-<workload>-seed<seed>.jsonl.

See bench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def process_age_s() -> float:
    """Seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat") as f:
        fields = f.read().rpartition(")")[2].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def median_estimate(times: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, weighted by the Beta((n+1)/2, (n+1)/2) distribution.

    Operation times vary by 10-15% from one operation to the next, so the
    sample median of the few operations a run holds jumps from seed to
    seed; this estimate of the same median moves more smoothly.
    """
    import numpy as np  # not at module level: main() pins BLAS before numpy loads
    from scipy.stats import beta

    x = np.sort(times)
    a = (len(x) + 1) / 2
    weights = np.diff(beta.cdf(np.arange(len(x) + 1) / len(x), a, a))
    return float(weights @ x)


def run_round(workload, k: int, tracer=None, tag: str = "", meter=None) -> tuple[list[tuple[str, float]], int, int]:
    """Run round k once.

    Returns ([(op label, wall seconds)], failed ops, ops whose output check
    failed).  Only the operation itself is timed; the meter's speed
    measurement and the output check run after the clock stops and outside
    any trace.
    """
    timings, failed, incorrect = [], 0, 0
    for op in workload.round(k):
        label = f"{tag}{k}:{op.name}"
        start = time.perf_counter()
        elapsed = None
        try:
            with tracer.op(label) if tracer else nullcontext():
                out = op.run()
            elapsed = time.perf_counter() - start
            if meter:
                meter.pace(elapsed)
            problems = op.check(out)
        except Exception:  # an operation that raises is counted, the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
                if meter:
                    meter.pace(elapsed)
            traceback.print_exc()
            failed += 1
            timings.append((label, elapsed))
            continue
        timings.append((label, elapsed))
        if problems:
            failed += 1
            incorrect += 1
            for p in problems:
                print(f"check failed in {label}: {p}", file=sys.stderr)
    return timings, failed, incorrect


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "swcopt" / "__init__.py").is_file():
        print(f"error: no swcopt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # one thread of load: no BLAS worker threads spinning on the other core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import calibration
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with tracer.op("setup") if tracer else nullcontext():
        workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = process_age_s()

    # per-round wall times, untraced and traced
    timings, plain, traced = [], [], []
    failed = incorrect = 0
    meter = None if tracer else calibration.SpeedMeter()
    passes = [(None, "", plain)]
    if tracer:
        # each round runs untraced and traced, in alternating order, so that
        # the machine's drift cancels out of the per-round difference
        passes.append((tracer, "traced:", traced))
    t0 = time.perf_counter()
    k = 0
    while True:
        # whole rounds, as many as end nearest to --seconds: another round
        # starts only if its expected end overshoots by less than half a round
        elapsed = time.perf_counter() - t0
        if k and elapsed + elapsed / k / 2 >= args.seconds:
            break
        for pass_tracer, tag, sink in passes if k % 2 == 0 else passes[::-1]:
            round_timings, round_failed, round_incorrect = run_round(workload, k, pass_tracer, tag, meter)
            sink.append(sum(t for _, t in round_timings))
            timings += round_timings
            failed += round_failed
            incorrect += round_incorrect
        k += 1

    if not tracer:
        times = [t for _, t in timings]
        scale = meter.scale()
        print(f"raw setup_s {setup_s:.4f}, wall_s {sum(times) / k:.4f}, op_p50_s {median_estimate(times):.4f}; "
              f"speed scale {scale:.4f} over {len(meter.unit_s)} calibration units", file=sys.stderr)
        metrics = {
            "setup_s": (scale * setup_s, "s"),
            "wall_s": (scale * sum(times) / k, "s"),
            "op_p50_s": (scale * median_estimate(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        labels = [label for label, _ in timings if label.startswith("traced:")]
        metrics = tracer.layer_metrics(labels, [l for l in labels if l.startswith("traced:0:")])
        overheads = [t - p for t, p in zip(traced, plain)]
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": len(timings),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
