"""The fillcalc benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each batch runs in a fresh process
(``batch.py``), one after another: a closed loop with one client, no
threads.  Batches repeat for about ``--seconds``; the run reports each
item's fastest time over its batches, and set-up and memory as medians.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
traced and untraced batches and prints the per-layer metrics and
``trace_overhead``.  The last line of standard output is one JSON object;
the exit code is 0 only if every check passed.
``--smoke`` runs every workload on a reduced batch, traced and untraced, and
checks the results and that the tracer left no wrapper behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from batch import CALIBRATION_LOOPS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# set-up-only processes started before each untraced batch
SETUPS_PER_BATCH = 2
TIME_LIMIT_S = 170
# the calibration loop's time on a 2-CPU Intel Xeon virtual machine in its
# quiet phases, with Python 3.11.7; every reported time is scaled to it
REFERENCE_CALIBRATION_MS = 3.6


class BenchError(Exception):
    """The benchmark could not measure: a batch process crashed or timed out."""


def scaled(seconds: float, calibration_ms: float) -> float:
    """Seconds measured while the calibration loop took ``calibration_ms``,
    in reference seconds."""
    return seconds * REFERENCE_CALIBRATION_MS / calibration_ms


def machine() -> str:
    model = "unknown CPU model"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{os.cpu_count()} CPUs, {model}, Python {platform.python_version()}"


def run_batch(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "batch.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the batch started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"batch {workload} {' '.join(flags)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"batch {workload} exited {proc.returncode}: {proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"batch {workload} printed no result: {proc.stdout!r}") from exc


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at 200 values, q=0.95 leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Run batches for about ``seconds``.  Returns the batches (traced ones
    marked) and the set-up processes' results.  Untraced runs also start
    set-up-only processes between batches, so that set-up is sampled across
    the run rather than in one burst."""
    start = time.monotonic()
    batches, setups, cycles = [], [], []
    modes = [["--trace"], []] if trace else [[]]
    while True:
        t = time.monotonic()
        if not trace:
            for _ in range(SETUPS_PER_BATCH):
                setups.append(run_batch(workload, seed, deadline, "--setup-only"))
        for flags in modes:
            result = run_batch(workload, seed, deadline, *flags)
            result["traced"] = bool(flags)
            batches.append(result)
            if not flags:
                setups.append(result)
        cycles.append(time.monotonic() - t)
        # stop where the next cycle would end more than half a cycle late,
        # so that a run lasts about ``seconds`` on average
        if time.monotonic() - start + statistics.median(cycles) / 2 > seconds:
            break
    return batches, setups


def check_batches(batches) -> list:
    """Run-level checks: every batch of a run replays the same total area and,
    when traced, the same deterministic counters."""
    errors = []
    if len({b["filling_area"] for b in batches}) != 1:
        errors.append(f"filling_area differs between batches: {[b['filling_area'] for b in batches]}")
    traced = [b["trace"] for b in batches if b["traced"]]
    for key in ("oracle.states", "rewriting.find_relator_move.calls", "words.word_new"):
        if len({t[key] for t in traced}) > 1:
            errors.append(f"{key} differs between traced batches")
    for b in batches:
        if b.get("leftover_wrappers"):
            errors.append(f"tracer left wrappers behind: {b['leftover_wrappers']}")
        errors.extend(b["failures"])
    return errors


def item_floor_s(batches, scale: bool = True) -> list:
    """Each item's fastest time over the batches, in reference seconds unless
    ``scale`` is false.  Every batch of a run runs the same items in the
    same order, so an item meets the same cache state in each.  Slow phases
    of the shared machine that the scaling misses only ever add time, so an
    item's minimum drops most of what is left."""
    return [min(times) for times in zip(*(
        [scaled(t, c) if scale else t for t, c in zip(b["item_s"], b["item_calibration_ms"])]
        for b in batches))]


def end_to_end(batches, setups) -> dict:
    """``run_s`` is the batch time at the run's floor, the sum of the items'
    fastest times; the percentiles are taken over the same item times.
    Set-up and memory are medians over the run.  Times are in reference
    seconds."""
    med = statistics.median
    item_s = item_floor_s(batches)
    item_ms = [1000.0 * t for t in item_s]
    return {
        "setup_s": med(scaled(r["setup_s"], r["setup_calibration_ms"]) for r in setups),
        "run_s": sum(item_s),
        "item_p50_ms": percentile(item_ms, 0.50),
        "item_p95_ms": percentile(item_ms, 0.95),
        "peak_rss_mb": med(b["peak_rss_mb"] for b in batches),
        "filling_area": batches[0]["filling_area"],
    }


def per_layer(batches) -> dict:
    traced = [b for b in batches if b["traced"]]
    plain = [b for b in batches if not b["traced"]]
    out = {
        key: statistics.median(b["trace"][key] for b in traced)
        for key in traced[0]["trace"]
        if key != "spans"
    }
    out["trace_overhead"] = sum(item_floor_s(traced)) / sum(item_floor_s(plain))
    return out


def report(workload, seed, batches, setups, metrics, units, errors) -> bool:
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    traced = sum(b["traced"] for b in batches)
    print(f"workload {workload}, seed {seed}: {len(batches)} batches "
          f"({traced} traced) of {batches[0]['attempted']} items")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if traced:
        print("  layer wait time: none measured; no layer waits on I/O, locks or "
              "other processes, so every span is computation")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} items)")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    # ``setups`` holds the untraced batches too
    processes = setups + [b for b in batches if b["traced"]]
    readings = sorted(c for r in processes for c in r["calibration_ms"])
    print(f"  machine: {machine()}; calibration loop ({CALIBRATION_LOOPS} steps) "
          f"{readings[0]:.2f} to {readings[-1]:.2f} ms, median "
          f"{statistics.median(readings):.2f} ms over {len(readings)} readings; "
          f"times are scaled to {REFERENCE_CALIBRATION_MS} ms, unscaled run_s "
          f"{sum(item_floor_s(batches, scale=False)):.4g} s")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return correct


def declared_units() -> dict:
    """Name -> unit of every metric BENCHMARK.json declares, by section."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def smoke(deadline: float) -> bool:
    """Every workload on a reduced batch, untraced and traced: checks pass,
    no wrapper is left, and the metrics are the ones BENCHMARK.json declares."""
    declared = declared_units()
    ok = True
    for workload in WORKLOADS:
        plain = run_batch(workload, 1, deadline, "--smoke")
        traced = run_batch(workload, 1, deadline, "--smoke", "--trace")
        plain["traced"], traced["traced"] = False, True
        errors = check_batches([plain, traced])
        if set(end_to_end([plain], [plain])) != set(declared["end_to_end"]):
            errors.append("end-to-end metrics differ from BENCHMARK.json")
        if set(per_layer([plain, traced])) != set(declared["per_layer"]):
            errors.append("per-layer metrics differ from BENCHMARK.json")
        print(f"smoke {workload}: {plain['attempted']} items, area {plain['filling_area']}, "
              f"{sum(plain['item_s']):.2f} s untraced, {sum(traced['item_s']):.2f} s traced, "
              f"{traced['trace']['spans']} spans" + (f", FAILED: {errors}" if errors else ", ok"))
        ok = ok and not errors
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "fillcalc" / "__init__.py").is_file():
        print(f"fillcalc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if smoke(deadline) else 1
        if args.workload is None:
            parser.error("--workload is required")
        batches, setups = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    errors = check_batches(batches)
    if args.trace:
        metrics = per_layer(batches)
        units = declared_units()["per_layer"]
    else:
        metrics = end_to_end(batches, setups)
        units = declared_units()["end_to_end"]
    ok = report(args.workload, args.seed, batches, setups, metrics, units, errors)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
