"""Run one checked batch of one workload in this process and print its
measurements as one JSON line.

    python3 perfbench/batch.py --workload NAME --seed N [--trace] [--setup-only] [--smoke]

``run.py`` starts one of these per batch, so every batch pays for a fresh
import and fresh caches, as a command-line user does.  Set-up is the import
of fillcalc plus building the workload's presentations, models and inputs.
The items run in an order drawn from the seed, so caches fill in a different
order for every seed; every batch of a run uses the same order, so an item
meets the same cache state in each of them.  Item times are reported in the
workload's fixed item order.

The process also times a fixed pure-Python loop, the calibration, before
set-up, after the items and every quarter second in between, from a timer
signal, so that readings fall inside long items too.  Every timed interval
excludes the time its readings took.  Set-up and every item are reported
with the median of the readings taken while they ran or within a second of
them; ``run.py`` scales each time by its reading.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MAX_FAILURES_SHOWN = 5
CALIBRATION_LOOPS = 50_000
CALIBRATION_EVERY_S = 0.25
# an interval's reading is the median of those taken while it ran or within
# this many seconds of it: enough readings to be steady, close enough to
# follow the machine's slow phases
CALIBRATION_NEAR_S = 1.0


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop that no fillcalc change can
    speed up: a reading of how fast the machine runs Python right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1000.0


class Calibration:
    """Calibration readings, each with the time it started and how long it
    took."""

    def __init__(self) -> None:
        self.readings = []

    def read(self, *_signal_args) -> None:
        start = time.perf_counter()
        ms = calibrate()
        self.readings.append((start, time.perf_counter() - start, ms))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def elapsed(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the readings taken in
        between.  A reading runs between two steps of the interrupted code,
        so it lies wholly inside or wholly outside the interval."""
        return end - start - sum(d for t, d, _ in self.readings if start <= t <= end)

    def near(self, start: float, end: float) -> float:
        """The median reading taken in [start, end] or within
        ``CALIBRATION_NEAR_S`` of it."""
        return statistics.median(
            ms for t, _, ms in self.readings
            if start - CALIBRATION_NEAR_S <= t <= end + CALIBRATION_NEAR_S
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "fillcalc" / "__init__.py").is_file():
        print(f"fillcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    cal = Calibration()
    cal.read()
    cal.start()
    t0 = time.perf_counter()
    import fillcalc  # noqa: F401  (the import is part of set-up)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    t_build = time.perf_counter()
    items = workloads.build(args.workload, args.smoke)
    t1 = time.perf_counter()

    spans = []
    failures = []
    area = 0
    if not args.setup_only:
        order = list(range(len(items)))
        random.Random(args.seed).shuffle(order)
        for i in order:
            label, run = items[i]
            start = time.perf_counter()
            try:
                area += run()
            except Exception as exc:  # a raising item is a failed item, not a crash
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            spans.append((i, start, time.perf_counter()))
    t2 = time.perf_counter()
    cal.stop()
    cal.read()

    out = {
        "setup_s": cal.elapsed(t0, t1),
        "setup_calibration_ms": cal.near(t0, t1),
        "calibration_ms": [ms for _, _, ms in cal.readings],
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer is not None:
        tracer.uninstall()
        out["leftover_wrappers"] = tracing.leftover_wrappers()
        out["trace"] = tracer.metrics(wall=t2 - t_build)

    item_s = [0.0] * len(items)
    item_calibration_ms = [0.0] * len(items)
    for i, start, end in spans:
        item_s[i] = cal.elapsed(start, end)
        item_calibration_ms[i] = cal.near(start, end)
    out.update(
        item_s=item_s,
        item_calibration_ms=item_calibration_ms,
        attempted=len(items),
        failed=len(failures),
        failures=failures[:MAX_FAILURES_SHOWN],
        filling_area=area,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
