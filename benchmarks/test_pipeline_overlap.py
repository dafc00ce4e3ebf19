"""Engine overlap bench: wall time and per-stage pool queue waits of
the scheduler on a 100-host spilled run.

The scheduler submits each collection shard the moment its
routing-table block is selected, so collect shards should spend far
less time queued in the pool than executing.  The probe-stage wait is
reported too: every probe shard is submitted at once, so that column
records how far the pool width lags the shard count, not a claim.

Writes ``benchmarks/out/pipeline_overlap.json`` for CI to archive and
for ``tools/perf_gate.py`` to gate (only the ``*_seconds`` leaves);
the assertions gate fingerprint equality with the sequential
``collect()`` and the queue-wait bound, never exact timings.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import telemetry
from repro.engine import ShardedCollector
from repro.netsim import Network
from repro.scenarios import stress_mesh
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

OUT_DIR = Path(__file__).parent / "out"

HOSTS = 100
DURATION = 300.0
N_SHARDS = 8
MAX_WORKERS = 2


def _write(payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "pipeline_overlap.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_pipelined_overlap_reclaims_collect_waits(tmp_path):
    sc = stress_mesh(n_hosts=HOSTS, seed=1)
    sc.register()
    try:
        ds = dataset(sc.name)
        # one eager prebuilt network shared with the sequential
        # reference, so the timed run pays no substrate construction
        net = Network.build(ds.hosts(), ds.network_config(DURATION), DURATION, seed=1)
        with telemetry.recording() as rec:
            t0 = time.perf_counter()
            col = ShardedCollector(
                n_shards=N_SHARDS,
                executor="thread",
                max_workers=MAX_WORKERS,
                spill_dir=tmp_path,
            ).collect(ds, DURATION, seed=1, network=net)
            elapsed = time.perf_counter() - t0
            counters = rec.counter_snapshot()
        seq = collect(ds, DURATION, seed=1, network=net)
    finally:
        sc.unregister()

    def wait_s(stage: str) -> float:
        return round(counters[f"shard.queue_wait_ns.{stage}"] / 1e9, 4)

    results = {
        "hosts": HOSTS,
        "duration_s": DURATION,
        "n_shards": N_SHARDS,
        "max_workers": MAX_WORKERS,
        "rows": len(col.trace),
        "pipelined_seconds": round(elapsed, 4),
        "pipelined_queue_wait_probe_s": wait_s("probe"),
        "pipelined_queue_wait_collect_s": wait_s("collect"),
    }
    _write(results)
    print(json.dumps(results, indent=2))

    # the hard gates: same bytes as the sequential pipeline, and collect
    # shards are not left queueing behind the tables stage
    assert trace_fingerprint(col.trace) == trace_fingerprint(seq.trace)
    assert counters["shard.queue_wait_ns.collect"] < counters["shard.exec_ns.collect"]
