"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  Each workload is a closed
loop in this one process and thread: the next item starts when the last
one has reached its checked verdict.

--trace 0 runs whole rounds of items until --seconds have passed and prints
the end-to-end metrics.  --trace 1 runs a fixed number of rounds (set by
--seconds, so its counts repeat exactly for one seed), each item once
untraced and once traced, and prints the per-layer metrics and the tracing
overhead.  Metric names and units come from BENCHMARK.json; the last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "tight", "smallcut")
PINNED_SEED = 0
SETUP_REPEATS = 9
BENCH_MODULES = ("workloads", "tracing")
# Seconds one traced round (each item untraced, then traced) takes on the
# seed code; sets how many rounds a traced run of --seconds covers.
TRACE_ROUND_S = {"sweep": 0.5, "tight": 17.0, "smallcut": 0.2}
# On shared cores (a 2 vCPU Xeon host with other tenants) the speed drifts
# by up to a fifth within a minute.  A fixed integer loop, timed between items at
# least every REF_EVERY_S, measures that drift; each item's time is divided
# by the loop's median time within REF_WINDOW_S of it over REF_NOMINAL_S,
# the loop's typical time on a shared 2 GHz Xeon core.
REF_LOOPS = 100_000
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.5
REF_WINDOW_S = 3.0
REF_BURST = 6


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_src() -> None:
    """Import the package from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "pliablecover", "__init__.py")):
        fail(f"no package sources under {SRC}")
    sys.path.insert(0, SRC)


def reference_loop() -> tuple[float, float]:
    """(midpoint, duration) of one pass of the fixed reference loop."""
    start = perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    end = perf_counter()
    return (start + end) / 2, end - start


def setup(workload: str, seed: int):
    """Import the program and build the workload's non-item inputs, several
    times from an empty module cache, each after one reference loop.

    Returns the median time unscaled and scaled to machine speed, and the plan.
    """
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        for name in list(sys.modules):
            if name.split(".")[0] in ("pliablecover",) + BENCH_MODULES:
                del sys.modules[name]
        gc.collect()  # a fresh process has no garbage from earlier imports
        refs.append(reference_loop()[1])
        start = perf_counter()
        workloads = importlib.import_module("workloads")
        plan = workloads.plan(workload, seed)
        times.append(perf_counter() - start)
    pkg = sys.modules["pliablecover"]
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "pliablecover"):
        fail(f"pliablecover was imported from {pkg.__file__}, not from {SRC}")
    raw = statistics.median(times)
    return raw, raw * REF_NOMINAL_S / statistics.median(refs), plan


def load_pins(workload: str, seed: int) -> dict[str, str]:
    if seed != PINNED_SEED:
        return {}
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)[workload]
    return pins if isinstance(pins, dict) else {str(i): d for i, d in enumerate(pins)}


def run_checked(item, tracer, pins: dict[str, str]) -> bool:
    """Run one item; False if it raised, failed a check or missed its pin."""
    try:
        digest = item.run(tracer)
    except Exception:  # every failure counts against the item; the loop goes on
        print(f"item {item.key}: failed", file=sys.stderr)
        traceback.print_exc()
        return False
    pinned = pins.get(item.key)
    if pinned is not None and pinned != digest:
        print(f"item {item.key}: digest {digest} differs from pinned {pinned}", file=sys.stderr)
        return False
    return True


def speed_at(refs: list[tuple[float, float]], t: float) -> float:
    """Machine slowness at time t: the median reference loop time within
    REF_WINDOW_S of t (or the nearest one) over its nominal time."""
    near = [d for at, d in refs if abs(at - t) <= REF_WINDOW_S]
    if not near:
        near = [min(refs, key=lambda ref: abs(ref[0] - t))[1]]
    return statistics.median(near) / REF_NOMINAL_S


def timed_run(plan, seconds: int, pins, null) -> tuple[dict, int, int]:
    items: list[tuple[float, float]] = []  # (midpoint, duration)
    refs = [reference_loop()]
    failed = 0
    start = perf_counter()
    deadline = start + seconds
    r = 0
    while perf_counter() < deadline:
        for item in plan(r):
            t0 = perf_counter()
            failed += not run_checked(item, null, pins)
            t1 = perf_counter()
            items.append(((t0 + t1) / 2, t1 - t0))
            # One loop per REF_EVERY_S that passed, so long items get as
            # many samples around them as short ones.
            for _ in range(min(REF_BURST, int((t1 - refs[-1][0]) / REF_EVERY_S))):
                refs.append(reference_loop())
        r += 1
    n = len(items)
    raw = [d for _, d in items]
    times = [d / speed_at(refs, at) for at, d in items]
    slow = statistics.median(d for _, d in refs) / REF_NOMINAL_S
    print(f"{n} items in {r} rounds, {perf_counter() - start:.3f} s wall; {n - int(0.9 * n)} items beyond p90")
    print(f"reference loop: median {slow:.4f} x nominal over {len(refs)} samples")
    print(
        f"unscaled: items_per_s {n / sum(raw):.6g}  "
        f"item_s.p50 {statistics.median(raw):.6g}  item_s.p90 {statistics.quantiles(raw, n=10)[8]:.6g}"
    )
    metrics = {
        "items_per_s": n / sum(times),
        "item_s.p50": statistics.median(times),
        "item_s.p90": statistics.quantiles(times, n=10)[8],
        "ok_frac": (n - failed) / n,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, n, failed


def traced_run(plan, rounds: int, pins, null, tracing) -> tuple[dict, int, int]:
    tracer = tracing.Tracer()
    failed = attempted = 0
    wall = {False: 0.0, True: 0.0}
    for r in range(rounds):
        for item in plan(r):
            ok = True
            # Alternate which pass goes first, so warm-up favours neither.
            for traced in (False, True) if attempted % 2 else (True, False):
                tracer.item = attempted
                t0 = perf_counter()
                ok &= run_checked(item, tracer if traced else null, pins)
                wall[traced] += perf_counter() - t0
            failed += not ok
            attempted += 1
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.items"] = attempted
    metrics["trace.overhead_s"] = wall[True] - wall[False]
    print(f"{attempted} items in {rounds} rounds: {wall[False]:.3f} s untraced, {wall[True]:.3f} s traced")
    print("no layer has queues or threads, so there is no time waited to report")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    use_checkout_src()
    setup_raw, setup_s, plan = setup(args.workload, args.seed)
    pins = load_pins(args.workload, args.seed)
    tracing = importlib.import_module("tracing")
    null = tracing.NullTracer()
    if args.trace:
        rounds = max(1, int(args.seconds / TRACE_ROUND_S[args.workload]))
        metrics, attempted, failed = traced_run(plan, rounds, pins, null, tracing)
    else:
        metrics, attempted, failed = timed_run(plan, args.seconds, pins, null)
        metrics["setup_s"] = setup_s
        print(f"unscaled: setup_s {setup_raw:.6g}")
    if set(metrics) != set(wanted):
        fail(f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")
    for name, unit in wanted.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"{failed} of {attempted} items failed ({args.workload}, seed {args.seed}, pinned digests: {bool(pins)})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
