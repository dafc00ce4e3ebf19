"""Acceptance: a spilled 2-shard thread run records the full pipeline.

With telemetry enabled, a spilled thread-executor run must persist a
``telemetry.jsonl`` manifest whose exported Chrome trace contains spans
for every shard and every stage — probe, tables, collect, spill-write,
merge, analyze — and the trace bytes must match the telemetry-off run
exactly.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import telemetry
from repro.analysis.streaming import StreamingAnalyzer
from repro.engine import ShardedCollector, always_shard, plan_shards
from repro.relaysets import RelayPolicySpec
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

DURATION = 150.0
SEED = 11

STAGE_SPANS = ("stage:probe", "stage:tables", "stage:collect", "stage:merge")
SHARD_SPANS = ("shard:shard-probe", "shard:shard-collect", "shard:spill-write")


@pytest.fixture(autouse=True)
def _disabled_after():
    yield
    telemetry.disable()


@pytest.fixture(scope="module")
def spilled_run(tmp_path_factory):
    """One spilled 2-shard thread-executor run with telemetry on."""
    spill = tmp_path_factory.mktemp("spill")
    telemetry.enable()
    try:
        analyzer = StreamingAnalyzer()
        col = ShardedCollector(
            always_shard(n_shards=2, executor="thread", spill_dir=spill)
        ).collect(dataset("ronnarrow"), DURATION, seed=SEED, analyzer=analyzer)
    finally:
        telemetry.disable()
    return col, analyzer


class TestManifestCompleteness:
    def test_manifest_lands_in_the_run_dir(self, spilled_run):
        col, _ = spilled_run
        assert telemetry.manifest_path(col.spill_dir).is_file()

    def test_every_stage_and_shard_has_spans(self, spilled_run):
        col, _ = spilled_run
        header, events = telemetry.read_manifest(col.spill_dir)
        summary = telemetry.summarize(events)
        for key in STAGE_SPANS + SHARD_SPANS + ("stage:analyze",):
            assert key in summary["spans"], f"missing span {key}"
        # both shards reported: two host ranges, two of each shard span
        assert summary["shards"] == 2
        for key in SHARD_SPANS:
            assert summary["spans"][key]["count"] == 2

    def test_header_records_run_identity(self, spilled_run):
        col, _ = spilled_run
        header, _ = telemetry.read_manifest(col.spill_dir)
        run = header["run"]
        assert run["dataset"] == "RONnarrow"
        assert run["seed"] == SEED
        assert run["executor"] == "thread"
        assert run["n_shards"] == 2
        assert run["hosts"] == 17

    def test_counters_and_gauges(self, spilled_run):
        col, _ = spilled_run
        _, events = telemetry.read_manifest(col.spill_dir)
        counters = telemetry.summarize(events)["counters"]
        assert counters["collect.rows"] == len(col.trace)
        assert counters["spill.bytes"] > 0
        assert counters["probe.probes"] > 0
        assert counters["shard.exec_ns"] > 0
        gauges = telemetry.summarize(events)["gauges"]
        assert gauges["process.peak_rss_bytes"] > 0

    def test_shard_spans_carry_queue_wait(self, spilled_run):
        col, _ = spilled_run
        _, events = telemetry.read_manifest(col.spill_dir)
        waits = [
            ev["args"]["queue_wait_ns"]
            for ev in events
            if ev.get("ev") == "span" and ev.get("cat") == "shard"
        ]
        assert len(waits) == 6  # 3 shard span kinds x 2 shards
        assert all(w >= 0 for w in waits)

    def test_probe_spans_carry_queue_wait(self, spilled_run):
        # regression: the probe fan-out used to take no submit stamps,
        # so shard-probe spans silently lacked queue_wait_ns and the
        # probe stage's pool waits never reached any counter
        col, _ = spilled_run
        _, events = telemetry.read_manifest(col.spill_dir)
        probe_waits = [
            ev["args"]["queue_wait_ns"]
            for ev in events
            if ev.get("ev") == "span" and ev.get("name") == "shard-probe"
        ]
        assert len(probe_waits) == 2 and all(w >= 0 for w in probe_waits)

    def test_queue_waits_fold_per_stage(self, spilled_run):
        col, _ = spilled_run
        _, events = telemetry.read_manifest(col.spill_dir)
        counters = telemetry.summarize(events)["counters"]
        for key in (
            "shard.queue_wait_ns.probe",
            "shard.queue_wait_ns.collect",
            "shard.exec_ns.probe",
            "shard.exec_ns.collect",
        ):
            assert key in counters, key
        # the per-stage folds are a partition of the legacy totals
        assert counters["shard.queue_wait_ns"] == (
            counters["shard.queue_wait_ns.probe"]
            + counters["shard.queue_wait_ns.collect"]
        )
        assert counters["shard.exec_ns"] == (
            counters["shard.exec_ns.probe"] + counters["shard.exec_ns.collect"]
        )


class TestChromeExport:
    def test_export_validates_and_covers_all_stages(self, spilled_run, tmp_path):
        col, _ = spilled_run
        header, events = telemetry.read_manifest(col.spill_dir)
        out = tmp_path / "trace.json"
        telemetry.export_chrome_trace(events, out, header=header)
        doc = json.loads(out.read_text())
        telemetry.validate_chrome_trace(doc)
        names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
        assert {
            "probe", "tables", "collect", "merge", "analyze",
            "shard-probe", "shard-collect", "spill-write",
        } <= names
        labels = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert "engine" in labels


class TestOutputUnchanged:
    def test_trace_identical_to_telemetry_off_run(self, spilled_run, tmp_path):
        col, _ = spilled_run
        assert telemetry.get_recorder().enabled is False
        off = ShardedCollector(
            always_shard(n_shards=2, executor="thread", spill_dir=tmp_path)
        ).collect(dataset("ronnarrow"), DURATION, seed=SEED)
        assert trace_fingerprint(off.trace) == trace_fingerprint(col.trace)

    def test_streaming_analyzer_unaffected(self, spilled_run):
        col, analyzer = spilled_run
        snap = analyzer.snapshot()
        assert snap.n_parts == 2
        eager = StreamingAnalyzer().update(col.trace).snapshot()
        assert [s.method for s in snap.stats] == [s.method for s in eager.stats]


class TestLazySubstrateCounters:
    def test_lru_counters_recorded(self, tmp_path):
        with telemetry.recording() as rec:
            ShardedCollector(
                always_shard(
                    n_shards=2,
                    executor="serial",
                    substrate="lazy",
                    max_cached_segments=8,
                )
            ).collect(dataset("ronnarrow"), 60.0, seed=2)
            counters = rec.counter_snapshot()
        assert counters["substrate.lru_misses"] > 0
        assert counters["substrate.lru_evictions"] > 0
        assert counters.get("substrate.lru_hits", 0) >= 0

    def test_substrate_generation_billed(self):
        with telemetry.recording() as rec:
            col = ShardedCollector(
                always_shard(n_shards=2, executor="serial", substrate="lazy")
            ).collect(dataset("ronnarrow"), 60.0, seed=2)
            counters = rec.counter_snapshot()
            spans = [ev for ev in rec.events() if ev["ev"] == "span"]
        state = col.network.state
        generated = sum(
            getattr(state, k).generated_segments for k in ("congestion", "outage", "delay")
        )
        assert counters["substrate.timelines"] == generated > 0
        assert 0 < counters["substrate.quiet"] <= counters["substrate.timelines"]
        assert counters["substrate.generate_ns"] > 0
        substrate = [ev for ev in spans if ev["name"] == "substrate"]
        assert len(substrate) == 1 and substrate[0]["cat"] == "stage"
        assert substrate[0]["args"]["substrate"] == "lazy"


class TestCandidateBytes:
    """``selector.candidate_bytes`` counts the two float64 candidate
    tensors: 16 bytes per (slot, source, destination, relay option)."""

    def test_dense_full_build(self):
        with telemetry.recording() as rec:
            col = collect(dataset("ronnarrow"), 300.0, seed=1)
        g, n = col.tables.n_slots, col.network.topology.n_hosts
        assert rec.counter_snapshot()["selector.candidate_bytes"] == 16 * g * n**3

    def test_candidate_set_per_table_range(self):
        ds = dataclasses.replace(
            dataset("ronnarrow"), relay_policy=RelayPolicySpec("k_nearest", k=4)
        )
        with telemetry.recording() as rec:
            col = ShardedCollector(always_shard(n_shards=2, executor="serial")).collect(
                ds, 300.0, seed=1
            )
        g, n = col.tables.n_slots, col.network.topology.n_hosts
        rs = col.network.paths.relay_set
        want = sum(
            16 * g * (hi - lo) * n * rs.padded_block(lo, hi).shape[2]
            for lo, hi in plan_shards(n, 2)
        )
        assert rec.counter_snapshot()["selector.candidate_bytes"] == want
