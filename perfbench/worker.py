"""One benchmark repetition in a fresh process.

Usage::

    python3 perfbench/worker.py --workload NAME --seed N [--check | --trace | --setup-only]
    python3 perfbench/worker.py --workload NAME --golden

A repetition sets the workload up, runs it, reads the process's peak
RSS and fingerprints the trace; with ``--check`` it then checks the
outputs.  Fingerprint and checks come after the timed region.  It
prints one JSON object as its last line.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time counts from process start and
includes interpreter start-up and imports.  ``--setup-only`` stops
after set-up.  ``--trace`` wraps the layer entry points (see
``layers.py``) and turns on the program's own telemetry counters for
the shard queue waits.  ``--golden`` collects the golden mini-runs
instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]


def peak_rss_mb() -> float:
    """The process's high-water resident set size (``VmHWM``), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def repetition(args: argparse.Namespace, spawned_at: float) -> dict:
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from repro import telemetry

        import layers

        telemetry.enable()
        tracer = layers.Tracer().install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    prep = workloads.prepare(workload, args.seed)
    setup_end = time.monotonic()
    cpu1, t1 = time.process_time(), time.perf_counter()
    out: dict = {
        "numpy": np.__version__,
        "workers": workload.workers,
        "setup_s": setup_end - spawned_at,
        "ops": [],
    }
    try:
        if args.setup_only:
            return out
        try:
            result, _analyses = workloads.run(prep)
        except Exception as exc:  # the collection is an operation: count it
            out["ops"].append(("collect", False, f"{type(exc).__name__}: {exc}"))
            return out
        cpu2, t2 = time.process_time(), time.perf_counter()
        out["ops"].append(("collect", True, f"{len(result.raw_trace)} probes"))
        out["run_s"] = t2 - t1
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_metrics(tracer, (t0, t1, t2), (cpu0, cpu1, cpu2))
            dump = workloads.WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            dump.parent.mkdir(parents=True, exist_ok=True)
            dump.write_text(json.dumps({"start": t0, "end": t2, "spans": tracer.spans}))
        out["sha256"] = workloads.trace_fingerprint(result.raw_trace)["sha256"]
        if args.check:
            out["ops"].extend(workloads.check_run(prep, result))
    finally:
        workloads.cleanup(prep)
    return out


def layer_metrics(tracer, wall: tuple, cpu: tuple) -> dict:
    """The tracer's per-layer metrics plus the engine's: cores busy over
    the run, and the program's own shard queue-wait counters."""
    from repro import telemetry

    (t0, t1, t2), (cpu0, cpu1, cpu2) = wall, cpu
    metrics = tracer.layer_metrics(t0, t2, cpu2 - cpu0)
    metrics["engine.cores_used"] = (cpu2 - cpu1) / (t2 - t1)
    counters = telemetry.get_recorder().counter_snapshot()
    metrics["engine.queue_wait_s"] = (
        counters.get("shard.queue_wait_ns.probe", 0)
        + counters.get("shard.queue_wait_ns.collect", 0)
    ) / 1e9
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, default=None)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--golden", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at
    if args.golden:
        import workloads

        out = {"ops": workloads.check_golden(workloads.WORKLOADS[args.workload])}
    else:
        out = repetition(args, spawned_at)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
