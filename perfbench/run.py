"""The repository benchmark: one workload at one seed, medians over
repetitions, every repetition in a fresh process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ron2003-paper --seed 1 --seconds 40 --trace 0

Untraced (``--trace 0``), the run repeats the workload in fresh worker
processes while another repetition fits in ``--seconds`` (at least
``MIN_REPS`` times), fills the rest of the budget with repetitions that
stop after set-up, and reports the medians of ``setup_s``, ``run_s``
and ``peak_rss_mb``.  Traced (``--trace 1``), it makes untraced
repetitions for the overhead baseline, then one traced repetition, and
reports the per-layer metrics of ``BENCHMARK.json``.  Either way it
then collects the golden mini-runs through the workload's collector
configuration.  Operations are the collections and the output checks;
the last line of standard output is the JSON result, with the failed
operations out of those attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: untraced repetitions a run makes at least, whatever ``--seconds`` says
MIN_REPS = 3
#: every run must end within this many seconds
RUN_DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (not a failed operation)."""


def read_steal_ticks() -> int:
    """Machine-wide steal time so far, in clock ticks (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchmarkError("out of time before the next worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned_at = time.monotonic()
    if "--golden" not in args:
        cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"worker {args} exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - spawned_at
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    steal0, load0 = read_steal_ticks(), os.getloadavg()[0]
    base = ["--workload", workload, "--seed", str(seed)]
    reps: list[dict] = []
    # a traced run keeps room in its budget for the traced repetition
    min_reps = 1 if traced else MIN_REPS
    reserve = 1.5 if traced else 0.0
    while True:
        # the first repetition also checks the workload's output
        reps.append(spawn(base + ["--check"] * (not reps), deadline))
        longest = max(r["wall_s"] for r in reps)
        spent = time.monotonic() - start
        if len(reps) >= min_reps and spent + longest * (1.0 + reserve) > seconds:
            break
    setups: list[dict] = []
    while not traced:
        # the rest of the budget buys more samples of set-up alone
        longest = max([r["wall_s"] for r in setups] or [r["setup_s"] for r in reps])
        if time.monotonic() - start + longest > seconds:
            break
        setups.append(spawn(base + ["--setup-only"], deadline))
    traced_rep = spawn(base + ["--trace"], deadline) if traced else None
    golden = spawn(["--workload", workload, "--golden"], deadline)
    return {
        "reps": reps,
        "setups": setups,
        "traced": traced_rep,
        "golden": golden,
        "steal_s": (read_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK"),
        "load1": (load0, os.getloadavg()[0]),
        "elapsed_s": time.monotonic() - start,
    }


def operations(m: dict) -> list[tuple[str, bool, str]]:
    """Every operation of the run: collections, output checks, the golden
    mini-runs, and determinism across repetitions and tracing."""
    ops = [tuple(op) for r in m["reps"] for op in r["ops"]]
    shas = {r.get("sha256") for r in m["reps"]}
    ops.append(("same-sha256-every-repetition", len(shas) == 1 and None not in shas, ""))
    if m["traced"] is not None:
        ops.extend(tuple(op) for op in m["traced"]["ops"])
        same = m["traced"].get("sha256") in shas and len(shas) == 1
        ops.append(("traced-sha256-equals-untraced", same, ""))
    ops.extend(tuple(op) for op in m["golden"]["ops"])
    return ops


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no program to measure under {ROOT / 'src'}")

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    reps = [r for r in m["reps"] if "run_s" in r]
    if not reps:
        raise BenchmarkError("no repetition completed its collection")
    ops = operations(m)
    failed = [op for op in ops if not op[1]]

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"reps={len(m['reps'])} setup-only={len(m['setups'])} elapsed={m['elapsed_s']:.1f}s"
    )
    print(
        f"context: nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"python={platform.python_version()} numpy={reps[0]['numpy']} "
        f"workers={reps[0]['workers']} load1={m['load1'][0]:.2f}->{m['load1'][1]:.2f} "
        f"steal={m['steal_s']:.2f}s"
    )
    for i, r in enumerate(m["reps"]):
        if "run_s" in r:
            print(
                f"  rep {i}: setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f} "
                f"peak_rss_mb={r['peak_rss_mb']:.1f} wall_s={r['wall_s']:.2f}"
            )
    if m["setups"]:
        print("  setup-only: setup_s=" + " ".join(f"{r['setup_s']:.4f}" for r in m["setups"]))
    print(f"{args.workload} seed={args.seed} sha256={reps[0].get('sha256')}")
    for name, ok, detail in ops:
        if not ok:
            print(f"  FAILED {name}: {detail}")

    units = {e["name"]: e["unit"] for e in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, float] = {}
    if not args.trace:
        samples = {
            "setup_s": [r["setup_s"] for r in m["reps"] + m["setups"]],
            "run_s": [r["run_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        for e in bench["end_to_end"]:
            values[e["name"]] = statistics.median(samples[e["name"]])
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]}")
    else:
        t = m["traced"]
        layers = t["layers"]
        layers["trace.overhead"] = t["run_s"] / statistics.median(r["run_s"] for r in reps) - 1
        print(f"traced: setup_s={t['setup_s']:.4f} run_s={t['run_s']:.4f}")
        for name, value in layers.items():
            print(f"  {name} {value:.6g}")
        values = {e["name"]: layers[e["name"]] for e in bench["per_layer"]}
    print(f"failed_ops {len(failed)} count (of {len(ops)} attempted)")

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
