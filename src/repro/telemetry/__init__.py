"""`repro.telemetry`: determinism-safe observability for the engine.

The sharded engine runs multi-threaded, spill-to-disk workloads whose
hot path — probe grid, routing tables, shard collection, spill writes,
streaming merge, analysis ingest — was previously observable only
through post-hoc benchmarks.  This package instruments that path with

* **spans** — monotonic-clock intervals per stage and per shard,
  recorded in-process by whichever thread runs the shard;
* **counters/gauges** — rows collected, probes sent, spill bytes,
  substrate LRU hits/misses/evictions, per-shard queue-wait vs exec
  time, peak RSS (``VmHWM``);
* **run manifests** — a ``telemetry.jsonl`` per spilled run, written
  into the run's spill directory next to its shards, exportable to the
  Chrome trace-event format (``chrome://tracing`` / Perfetto) and
  summarised by ``python -m repro.telemetry``.

Disabled (the default), the no-op recorder costs one global load per
instrumentation site.  Enabled, recording reads clocks only through the
audited helpers in :mod:`repro.telemetry.clock` (the one DET002
clock-read exemption in the tree) and touches no RNG or simulation
state, so the golden trace fingerprint is byte-identical with
telemetry fully on.

Quickstart::

    from repro import telemetry
    from repro.engine import EngineConfig, ShardedCollector
    from repro.testbed import dataset

    rec = telemetry.enable()                   # or REPRO_TELEMETRY=1
    col = ShardedCollector(
        EngineConfig(n_shards=4, spill_dir="runs")
    ).collect(dataset("ronnarrow"), 600.0, seed=1)
    print(telemetry.summarize(rec.events()))   # in-process view
    # per-run manifest: <col.spill_dir>/telemetry.jsonl
    #   python -m repro.telemetry summary <col.spill_dir>
    #   python -m repro.telemetry export <col.spill_dir> -o trace.json
"""

import os as _os

from . import clock
from .chrome import chrome_trace, export_chrome_trace, validate_chrome_trace
from .manifest import (
    MANIFEST_NAME,
    manifest_path,
    read_manifest,
    summarize,
    write_manifest,
)
from .recorder import (
    NullRecorder,
    Recorder,
    counter_add,
    disable,
    enable,
    gauge_set,
    get_recorder,
    recording,
    set_recorder,
    span,
)

__all__ = [
    "clock",
    "Recorder",
    "NullRecorder",
    "get_recorder",
    "set_recorder",
    "enable",
    "disable",
    "recording",
    "span",
    "counter_add",
    "gauge_set",
    "MANIFEST_NAME",
    "manifest_path",
    "write_manifest",
    "read_manifest",
    "summarize",
    "chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
]

# REPRO_TELEMETRY=1 turns recording on at import time, so CLI runs
# (tools/golden.py, examples) get instrumented without code changes.
if _os.environ.get("REPRO_TELEMETRY", "") not in ("", "0"):
    enable()
