"""Scheduler equivalence: overlapping the probe/tables/collect/merge
stages must move wall-clock idle time, never a byte.

The engine's one scheduler fingerprints identically to the sequential
``collect()`` across the executor x shard-count x spill zoo, the
streaming merge is byte equal to ``Trace.concatenate``, finished shards
reach the streaming analyzer while a slow one is still running, and a
shard that raises names its stage and host range.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.engine import ShardedCollector, sharding
from repro.relaysets import RelayPolicySpec
from repro.scenarios import quiet_wide_area
from repro.testbed import collect, dataset
from repro.testbed.collection import collect_rows, prepare_collection
from repro.trace import Trace, load_trace, trace_fingerprint
from repro.trace.store import StreamingMerge, save_trace

from ..conftest import assert_traces_equal

DURATION = 240.0
SEED = 6


@pytest.fixture(scope="module")
def sequential():
    ds = dataset("ronnarrow")
    return ds, collect(ds, DURATION, seed=SEED)


def assert_store_matches(spill_dir, trace: Trace) -> None:
    """The merged memory-mapped store holds ``trace``'s bytes, column
    for column."""
    for name in Trace.ARRAY_FIELDS:
        stored = np.load(spill_dir / "merged" / f"{name}.npy")
        assert stored.tobytes() == np.asarray(getattr(trace, name)).tobytes(), name


class TestPipelinedEquivalence:
    """Bitwise identity of the overlapped schedule, across the zoo."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("n_shards", [1, 2, 17])
    def test_in_ram_matches_sequential(self, sequential, executor, n_shards):
        ds, seq = sequential
        col = ShardedCollector(n_shards=n_shards, executor=executor).collect(
            ds, DURATION, seed=SEED, network=seq.network
        )
        assert trace_fingerprint(col.trace) == trace_fingerprint(seq.trace)
        assert_traces_equal(col.trace, seq.trace)

    def test_tables_match_barrier_engine(self, sequential):
        # the barrier reference is the sequential collect(): the whole
        # probe grid, then the whole mesh's tables, then collection
        ds, seq = sequential
        col = ShardedCollector(n_shards=4, executor="thread").collect(
            ds, DURATION, seed=SEED, network=seq.network
        )
        assert col.tables.fingerprint() == seq.tables.fingerprint()

    def test_spilled_matches_barrier_spill_bytes(self, sequential, tmp_path):
        # each shard file holds exactly the barrier (sequential-plan)
        # shard's rows, and the merged store the sequential trace's bytes
        ds, seq = sequential
        col = ShardedCollector(n_shards=4, executor="thread", spill_dir=tmp_path).collect(
            ds, DURATION, seed=SEED, network=seq.network
        )
        assert_traces_equal(col.trace, seq.trace)
        assert_store_matches(col.spill_dir, seq.trace)
        plan = prepare_collection(ds, DURATION, seed=SEED, network=seq.network)
        for path in sorted(col.spill_dir.glob("shard-*.npz")):
            lo, hi = (int(x) for x in path.name[len("shard-") : -len(".npz")].split("-"))
            assert_traces_equal(load_trace(path), collect_rows(plan, lo, hi))

    def test_rtt_scenario_matches_sequential(self):
        sc = quiet_wide_area(n_hosts=8, seed=4)
        sc.register()
        try:
            ds = dataset(sc.name)
            seq = collect(ds, DURATION, seed=SEED)
            col = ShardedCollector(n_shards=4, executor="thread").collect(
                ds, DURATION, seed=SEED, network=seq.network
            )
            assert_traces_equal(col.trace, seq.trace)
        finally:
            sc.unregister()

    def test_no_probing_methods_skip_tables(self, sequential):
        # methods that never consult routing tables: the probe and
        # tables stages vanish and every collect shard submits at once
        ds, seq = sequential
        no_probe = replace(ds, probe_methods=("direct", "rand"))
        ref = collect(no_probe, DURATION, seed=SEED, network=seq.network)
        col = ShardedCollector(n_shards=4, executor="thread").collect(
            no_probe, DURATION, seed=SEED, network=seq.network
        )
        assert col.tables is None
        assert_traces_equal(col.trace, ref.trace)


@pytest.fixture(scope="module")
def sparse_sequential():
    """A candidate-set (k_nearest) variant of the zoo's canned dataset."""
    ds = replace(
        dataset("ronnarrow"),
        relay_policy=RelayPolicySpec(policy="k_nearest", k=4),
    )
    return ds, collect(ds, DURATION, seed=SEED)


class TestSparsePipelinedEquivalence:
    """Sparse relay candidate sets ride the engine unchanged — every
    shard carries the RelaySet read-only, and the shard layout still
    cannot move a byte."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("n_shards", [1, 2, 17])
    def test_in_ram_matches_sequential(self, sparse_sequential, executor, n_shards):
        ds, seq = sparse_sequential
        col = ShardedCollector(n_shards=n_shards, executor=executor).collect(
            ds, DURATION, seed=SEED, network=seq.network
        )
        assert trace_fingerprint(col.trace) == trace_fingerprint(seq.trace)
        assert_traces_equal(col.trace, seq.trace)

    def test_tables_match_sequential(self, sparse_sequential):
        ds, seq = sparse_sequential
        col = ShardedCollector(n_shards=4, executor="thread").collect(
            ds, DURATION, seed=SEED, network=seq.network
        )
        assert_traces_equal(col.trace, seq.trace)
        assert col.tables.fingerprint() == seq.tables.fingerprint()

    def test_spilled_matches_in_ram_bytes(self, sparse_sequential, tmp_path):
        ds, seq = sparse_sequential
        spilled = ShardedCollector(
            n_shards=4, executor="thread", spill_dir=tmp_path / "spill"
        ).collect(ds, DURATION, seed=SEED, network=seq.network)
        in_ram = ShardedCollector(n_shards=4, executor="thread").collect(
            ds, DURATION, seed=SEED, network=seq.network
        )
        assert_traces_equal(spilled.trace, seq.trace)
        assert_store_matches(spilled.spill_dir, in_ram.trace)


class TestStreamingMerge:
    """The precomputed-destination merge is byte-for-byte the in-RAM
    concatenation."""

    @pytest.fixture(scope="class")
    def parts(self, sequential):
        ds, seq = sequential
        plan = prepare_collection(ds, DURATION, seed=SEED, network=seq.network)
        ranges = [(0, 6), (6, 12), (12, 17)]
        parts = [collect_rows(plan, lo, hi) for lo, hi in ranges]
        offsets = [int(plan.bounds[lo]) for lo, _ in ranges] + [
            int(plan.bounds[plan.n_hosts])
        ]
        return plan, parts, offsets

    def test_in_ram_matches_concatenate_any_add_order(self, parts):
        plan, traces, offsets = parts
        expected = Trace.concatenate(traces)
        merge = StreamingMerge(plan.meta, plan.sched.probe_id, offsets)
        for j in (2, 0, 1):  # completion order need not be range order
            merge.add(j, traces[j])
        merged = merge.finalize()
        assert_traces_equal(merged, expected)

    def test_spilled_matches_concatenate(self, parts, tmp_path):
        plan, traces, offsets = parts
        paths = [save_trace(t, tmp_path / f"shard-{j}") for j, t in enumerate(traces)]
        expected = Trace.concatenate(traces)
        merge = StreamingMerge(
            plan.meta, plan.sched.probe_id, offsets, out_dir=tmp_path / "streaming"
        )
        for j in (1, 2, 0):
            merge.add(j, paths[j])
        merged = merge.finalize()
        assert_traces_equal(merged, expected)
        for name in Trace.ARRAY_FIELDS:
            stored = np.load(tmp_path / "streaming" / f"{name}.npy")
            assert stored.tobytes() == getattr(expected, name).tobytes(), name

    def test_guards(self, parts):
        plan, traces, offsets = parts
        merge = StreamingMerge(plan.meta, plan.sched.probe_id, offsets)
        merge.add(0, traces[0])
        with pytest.raises(ValueError, match="already merged"):
            merge.add(0, traces[0])
        with pytest.raises(ValueError, match="rows"):
            merge.add(1, traces[2])  # wrong part for the range
        with pytest.raises(ValueError, match="never added"):
            merge.finalize()


# -- completion-order drain ---------------------------------------------------


class _GateOnShardOne:
    """A stand-in analyzer: records each ingested part's first source
    host and opens ``release`` once shard 1's part has arrived."""

    def __init__(self, shard_one_lo: int) -> None:
        self.shard_one_lo = shard_one_lo
        self.release = threading.Event()
        self.seen: list[int] = []

    def ingest(self, part) -> None:
        self.seen.append(int(part.src[0]))
        if int(part.src[0]) >= self.shard_one_lo:
            self.release.set()


def test_slow_first_shard_does_not_block_on_result(sequential, monkeypatch):
    # shard 1's part must reach analyzer.ingest while shard 0 is still
    # collecting — here shard 0 *cannot* finish until ingest has seen
    # shard 1, so a submission-order drain would deadlock (and time out)
    ds, seq = sequential
    analyzer = _GateOnShardOne(shard_one_lo=9)  # 17 hosts, 2 shards: [0, 9) [9, 17)
    real = sharding.collect_rows

    def gated(plan, host_lo, host_hi):
        if host_lo == 0:
            assert analyzer.release.wait(timeout=30), "shard 1 never reached ingest"
        return real(plan, host_lo, host_hi)

    monkeypatch.setattr(sharding, "collect_rows", gated)
    col = ShardedCollector(n_shards=2, executor="thread", max_workers=2).collect(
        ds, DURATION, seed=SEED, network=seq.network, analyzer=analyzer
    )
    assert analyzer.seen[0] >= 9  # completion order: the fast shard streams first
    assert len(analyzer.seen) == 2
    assert_traces_equal(col.trace, seq.trace)


def test_serial_run_scatters_each_part_before_the_next_shard(sequential, monkeypatch):
    # the serial memory bound: table block j, collect j, scatter j — at
    # most one collected part ever waits to be scattered
    ds, seq = sequential
    real = sharding.collect_rows
    collected: list[int] = []
    waiting: list[int] = []

    def counting(plan, host_lo, host_hi):
        collected.append(host_lo)
        return real(plan, host_lo, host_hi)

    class Analyzer:
        def ingest(self, part):
            waiting.append(len(collected) - (len(waiting) + 1))

    monkeypatch.setattr(sharding, "collect_rows", counting)
    col = ShardedCollector(n_shards=5, executor="serial").collect(
        ds, DURATION, seed=SEED, network=seq.network, analyzer=Analyzer()
    )
    assert collected == sorted(collected) and len(collected) == 5
    assert waiting == [0] * 5  # each part ingested before the next shard ran
    assert_traces_equal(col.trace, seq.trace)


# -- a failing shard ----------------------------------------------------------
# ronnarrow's 17 hosts in 2 shards: [0, 9) and [9, 17)


class ShardFailed(RuntimeError):
    """What the failing kernels below raise on the last host range."""


def _fail_on_last(kernel):
    def failing(plan, host_lo, host_hi):
        if host_hi == plan.n_hosts:
            raise ShardFailed("injected")
        return kernel(plan, host_lo, host_hi)

    return failing


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("stage, kernel", [("collect", "collect_rows"), ("probe", "probe_rows")])
def test_failing_shard_names_itself(sequential, monkeypatch, executor, stage, kernel):
    # the kernel's own exception type surfaces, noted with its shard
    ds, seq = sequential
    monkeypatch.setattr(sharding, kernel, _fail_on_last(getattr(sharding, kernel)))
    collector = ShardedCollector(n_shards=2, executor=executor, max_workers=2)
    with pytest.raises(ShardFailed, match=rf"{stage} shard \[9, 17\)"):
        collector.collect(ds, DURATION, seed=SEED, network=seq.network)


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_failing_table_block_names_itself(sequential, monkeypatch, executor):
    ds, seq = sequential
    real = sharding.build_table_block

    def failing(loss, lat, failed, interval, params, host_lo, host_hi, relay_set):
        if host_hi == 17:
            raise ShardFailed("injected")
        return real(loss, lat, failed, interval, params, host_lo, host_hi, relay_set)

    monkeypatch.setattr(sharding, "build_table_block", failing)
    collector = ShardedCollector(n_shards=2, executor=executor, max_workers=2)
    with pytest.raises(ShardFailed, match=r"tables shard \[9, 17\)"):
        collector.collect(ds, DURATION, seed=SEED, network=seq.network)


# -- stage overlap + queue-wait visibility -----------------------------------


def test_stage_spans_overlap_and_waits_fold_per_stage(sequential):
    ds, seq = sequential
    with telemetry.recording() as rec:
        ShardedCollector(n_shards=4, executor="thread", max_workers=2).collect(
            ds, DURATION, seed=SEED, network=seq.network
        )
        events = rec.events()
    spans = [e for e in events if e.get("ev") == "span"]
    stage = {e["name"]: e for e in spans if e["cat"] == "stage"}
    assert {"probe", "tables", "collect", "merge"} <= set(stage)

    # tables/collect overlap: shard 0 starts collecting while later
    # table blocks are still being selected (table pool width is 1)
    tables_end = stage["tables"]["ts_ns"] + stage["tables"]["dur_ns"]
    assert tables_end > stage["collect"]["ts_ns"]
    # merge/collect overlap: the first finished shard scatters before
    # the last shard completes
    collect_end = stage["collect"]["ts_ns"] + stage["collect"]["dur_ns"]
    assert stage["merge"]["ts_ns"] < collect_end

    # every shard span of both fan-outs carries its pool queue wait
    shard_spans = [e for e in spans if e["cat"] == "shard"]
    probe_spans = [e for e in shard_spans if e["name"] == "shard-probe"]
    assert probe_spans and all("queue_wait_ns" in e["args"] for e in shard_spans)

    # and the waits fold into per-stage counters that sum to the totals
    counters = {e["name"]: e["value"] for e in events if e.get("ev") == "counter"}
    for key in (
        "shard.queue_wait_ns.probe",
        "shard.queue_wait_ns.collect",
        "shard.exec_ns.probe",
        "shard.exec_ns.collect",
    ):
        assert key in counters, key
    assert counters["shard.queue_wait_ns"] == (
        counters["shard.queue_wait_ns.probe"] + counters["shard.queue_wait_ns.collect"]
    )
    assert counters["shard.exec_ns"] == (
        counters["shard.exec_ns.probe"] + counters["shard.exec_ns.collect"]
    )
