"""alurity benchmark: three seeded closed-loop workloads on the mock backend.

Run from the root of a checkout:

    python3 bench/run.py --workload wide-scenario --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own process with one client: the next operation
starts when the previous one has ended.  Every operation's outputs are
checked; a mismatch or an exception counts as a failed operation and the run
goes on.  Timings are reported in reference seconds (see
``CALIBRATION_REFERENCE_S``), with the wall times printed beside them.
The last line of standard output is one JSON object.  With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` the run
first repeats the untraced measurement for half the time, then replays the
same operations with every layer's public functions wrapped in spans, and
reports per-layer metrics, the tracing overhead, and writes the spans to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
# The host this benchmark runs on is shared: its speed for the same
# pure-Python work swings by up to 1.7x within seconds and drifts over
# minutes (hyperthread and cache neighbours).  Operation times are reported
# in reference seconds: wall time scaled by how long a fixed calibration
# loop took right around the operation, against the time that loop takes
# on the reference host (a 2-vCPU Intel Xeon VM, CPython 3.11, usual load).
# The wall times are printed next to them.  The workload process and its
# set-up probes stay on one CPU, so the loop runs where the work runs.
CALIBRATION_ITEMS = 8000
CALIBRATION_REFERENCE_S = 0.0027

# A fresh interpreter until it is ready for the first operation: the CLI's
# imports, then the workload's registry index and mock-response fixture.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import alurity, alurity.cli
from alurity import orchestrator, toolreg
toolreg.load_registry_index(sys.argv[2])
if len(sys.argv) > 3:
    orchestrator.MockBackend.from_fixture(sys.argv[3])
sys.stdout.write("ready " + alurity.__file__ + "\\n")
sys.stdout.flush()
"""

WORKLOAD_NAMES = ("wide-scenario", "long-flow", "flaw-loop")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_alurity():
    if not os.path.isfile(os.path.join(SRC, "alurity", "__init__.py")):
        fail(f"no alurity sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import alurity

    if not os.path.abspath(alurity.__file__).startswith(SRC + os.sep):
        fail(f"imported alurity from {alurity.__file__}, not from {SRC}")


def measure_setup(index_path: str, fixture_path) -> list[tuple[float, float]]:
    """(reference seconds, wall seconds) of each fresh interpreter, scaled
    like an operation by the calibration passes just before and after it."""
    argv = [sys.executable, "-c", SETUP_PROBE, SRC, index_path] + ([fixture_path] if fixture_path else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
        if probe.returncode != 0 or not line.startswith("ready " + SRC + os.sep):
            fail(f"setup probe failed (exit {probe.returncode}): {line.strip()!r}")
        samples.append((to_reference(ready - start, before, calibrate()), ready - start))
    return samples


def calibrate() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now: the
    median of five short passes, so an interrupt or a blip of the host's
    speed does not set it."""
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(CALIBRATION_ITEMS):
            table[str(i)] = i * 2
        sum(table.values())
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


def to_reference(wall: float, before: float, after: float) -> float:
    return wall * CALIBRATION_REFERENCE_S * 2 / (before + after)


def measure(workload, seconds: float, tracer=None, cycles=None) -> list[tuple]:
    """Closed loop over whole cycles until ``seconds`` have passed (or for
    exactly ``cycles`` cycles); returns (reference seconds, wall seconds,
    items, problems) per op.

    The calibration loop runs before every operation and once after the
    last; an operation's reference time is its wall time scaled by
    ``CALIBRATION_REFERENCE_S`` over the mean of the two passes around it.
    """
    runs, speeds = [], []
    start = time.perf_counter()
    c = 0
    while True:
        for slot in workload.cycle(c):
            inputs = workload.make(c, slot)
            gc.collect()
            speeds.append(calibrate())
            if tracer is not None:
                tracer.op = len(runs)
            t0 = time.perf_counter()
            try:
                out = workload.run(inputs)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            problems = [error] if error else workload.check(inputs, out)
            out = None  # freed before the next operation's inputs are made
            runs.append((elapsed, workload.items(inputs), problems))
        c += 1
        if (c >= cycles) if cycles is not None else (time.perf_counter() - start >= seconds):
            break
    speeds.append(calibrate())
    return [
        (to_reference(elapsed, speeds[i], speeds[i + 1]), elapsed, items, problems)
        for i, (elapsed, items, problems) in enumerate(runs)
    ]


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def summarize(workload, samples, setup) -> tuple[dict, list[str]]:
    times = [s[0] for s in samples]
    walls = [s[1] for s in samples]
    n = len(times)
    failed = sum(1 for s in samples if s[3])
    p = workload.tail_percentile
    above = n - math.ceil(p / 100 * n)
    items = sum(s[2] for s in samples if not s[3])
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (percentile(times, p), "s"),
        "items_per_s": (items / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, reference time; wall {statistics.median(s[1] for s in setup):.6g} s",
        "op_p50_s": f"reference time; wall {statistics.median(walls):.6g} s",
        "op_tail_s": f"p{p} of {n} samples, {above} above it; wall {percentile(walls, p):.6g} s",
        "items_per_s": f"{workload.item}_per_s: {items} {workload.item} in {sum(times):.3f} s of reference time; wall {items / sum(walls):.6g} 1/s",
        "peak_rss_mb": "getrusage maximum resident set size",
    }
    lines = []
    for name, (value, unit) in metrics.items():
        label = f"{workload.item}_per_s" if name == "items_per_s" else name
        lines.append(f"  {label:<18} {value:12.6g} {unit:<5} {notes.get(name, '')}")
    lines.append(f"  {'failed_ratio':<18} {failed / n:12.6g} {'1':<5} {failed} of {n} operations failed")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


LAYER_UNITS = (("busy_s", "s"), ("self_s", "s"), ("calls", "count"), ("_s", "s"), (".kb", "KiB"), ("_ratio", "1"))


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")


def run_workload(args) -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_alurity()
    import generate
    import workloads
    from alurity import toolreg

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        registry = generate.registry(args.seed)
        index_path = os.path.join(workdir, "index.yaml")
        with open(index_path, "w", encoding="utf-8") as handle:
            handle.write(generate.dump_yaml(registry["index"]))
        fixture = {"wide-scenario": None, "long-flow": generate.FLOW_RESPONSES, "flaw-loop": registry["responses"]}[args.workload]
        fixture_path = None
        if fixture is not None:
            fixture_path = os.path.join(workdir, "responses.yaml")
            with open(fixture_path, "w", encoding="utf-8") as handle:
                handle.write(generate.dump_yaml(fixture))

        setup = measure_setup(index_path, fixture_path)
        start = time.perf_counter()
        index = toolreg.load_registry_index(index_path)
        load_index_s = time.perf_counter() - start
        # The fixture is read once, as set-up; every operation gets a fresh
        # backend built from the same (pattern, response) pairs.
        responses = list(fixture.items()) if fixture else []
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, registry, index, responses)
        # Long-lived set-up state stays out of the collector's way, as it
        # would in a CLI process that holds only the program's own objects.
        gc.collect()
        gc.freeze()

        if workload.uses_tracker:
            os.environ["NO_PROXY"] = "127.0.0.1"
            from tracker_stub import TrackerStub

            with TrackerStub() as stub:
                workload.tracker_url = stub.url
                return report(args, workload, setup, load_index_s)
        return report(args, workload, setup, load_index_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, workload, setup, load_index_s) -> int:
    header = f"workload {workload.name}  seed {args.seed}  closed loop, 1 client"
    if not args.trace:
        start = time.perf_counter()
        samples = measure(workload, args.seconds)
        wall = time.perf_counter() - start
        metrics, lines = summarize(workload, samples, setup)
        print(f"{header}, {len(samples)} operations in {wall:.1f} s")
    else:
        import spans

        untraced = measure(workload, args.seconds / 2)
        cycles = len(untraced) // len(workload.slots)
        tracer = spans.Tracer()
        tracer.install()
        origin = time.perf_counter()
        try:
            traced = measure(workload, 0, tracer=tracer, cycles=cycles)
        finally:
            tracer.remove()
        samples = untraced + traced
        metrics = spans.layer_metrics(tracer.spans)
        metrics["toolreg.load_index_s"] = load_index_s
        traced_p50 = statistics.median(s[0] for s in traced)
        untraced_p50 = statistics.median(s[0] for s in untraced)
        metrics["trace.overhead_s"] = traced_p50 - untraced_p50
        os.makedirs(OUT, exist_ok=True)
        span_path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(span_path, origin)
        print(f"{header}, {len(traced)} traced operations replaying {len(untraced)} untraced ones")
        lines = [f"  {name:<42} {value:12.6g} {layer_unit(name)}" for name, value in metrics.items()]
        lines.append(f"  op_p50_s traced {traced_p50:.6g} s, untraced {untraced_p50:.6g} s; {len(tracer.spans)} spans written to {span_path}")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
    print("\n".join(lines))
    failed = [s for s in samples if s[3]]
    for *_times, _items, problems in failed[:5]:
        print(f"  failed: {'; '.join(problems)}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(samples), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        )
    )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        import_alurity()  # fail here, before any workload starts
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
