"""Self-tests of the benchmark on a golden mini-run.

The ``ronnarrow-mini`` golden run (ronnarrow, 600 s, seed 7) is
collected through the engine on a two-worker thread pool, once plain
and once traced.  Run with::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.api import ExperimentSpec  # noqa: E402
from repro.engine import EngineConfig  # noqa: E402
from repro.trace import trace_fingerprint  # noqa: E402

GOLDEN_KEY, GOLDEN_SEED = "ronnarrow-mini", 7

MINI = workloads.Workload(
    "golden-ronnarrow-mini",
    spec=lambda seed: ExperimentSpec("ronnarrow", duration_s=600.0, seeds=(seed,)),
    engine=lambda spill: EngineConfig(executor="thread", max_workers=2, n_shards=4, min_hosts=1),
    workers=2,
)


def _run(traced: bool):
    tracer = layers.Tracer().install() if traced else None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        prep = workloads.prepare(MINI, GOLDEN_SEED)
        result, _analyses = workloads.run(prep)
    finally:
        if tracer is not None:
            tracer.uninstall()
    t1, cpu1 = time.perf_counter(), time.process_time()
    sha = trace_fingerprint(result.raw_trace)["sha256"]
    metrics = tracer.layer_metrics(t0, t1, cpu1 - cpu0) if tracer is not None else None
    return sha, tracer, metrics


@pytest.fixture(scope="module")
def runs():
    return _run(traced=False), _run(traced=True)


def test_traced_fingerprint_equals_untraced_and_golden(runs):
    (plain, _, _), (traced, _, _) = runs
    golden = json.loads(workloads.GOLDEN_PATH.read_text())["runs"][GOLDEN_KEY]["sha256"]
    assert traced == plain == golden


def test_every_entry_point_has_a_binding(runs):
    _, (_, tracer, _) = runs
    listed = {f"{e.module}:{e.qualname}" for e in layers.ENTRY_POINTS}
    assert set(tracer.bindings) == listed
    assert all(n >= 1 for n in tracer.bindings.values())


def test_worker_thread_spans_arrive(runs):
    _, (_, tracer, _) = runs
    main = threading.get_ident()
    worker_layers = {span[0] for span in tracer.spans if span[1] != main}
    assert {"probe", "collection", "router", "network.collect"} <= worker_layers


def test_layer_cpu_covers_the_run(runs):
    _, (_, _, metrics) = runs
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["collection.rows"] == metrics["store.merge.rows"] > 0
    assert metrics["substrate.generate.useful_ratio"] == 1.0


def test_uninstall_restores_every_binding():
    from repro.testbed import collection

    original = collection.collect_rows
    tracer = layers.Tracer().install()
    assert collection.collect_rows is not original
    tracer.uninstall()
    assert collection.collect_rows is original


def test_missing_entry_point_is_an_error():
    tracer = layers.Tracer([layers.EntryPoint("filters", "repro.trace.filters", "no_such")])
    with pytest.raises(RuntimeError, match="does not exist"):
        tracer.install()


def test_benchmark_lists_the_defined_workloads():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
