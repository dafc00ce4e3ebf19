"""Streaming-vs-batch equality on real spilled engine runs.

The tentpole gate: a :class:`StreamingAnalyzer` fed one spill shard at
a time — live during collection, post-hoc from the run directory, or
from the memory-mapped ``merged/`` store — must reproduce the eager
analyses of the merged trace *exactly*: same Table 5/7 ``MethodStats``
rows, same Table 6 counts, same Figure 2-5 CDF supports, bit for bit,
for every shard layout and executor, and regardless of shard arrival
order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    empirical_cdf,
    high_loss_table,
    improvement_summary,
    latency_cdf_over_paths,
    method_stats_table,
    path_loss_cdf,
    per_path_clp,
    per_path_latency,
    window_loss_rates,
)
from repro.analysis import testbed_hourly_loss as hourly_loss
from repro.analysis.streaming import StreamingAnalyzer
from repro.engine import EngineConfig, ShardedCollector
from repro.engine.spill import shard_files
from repro.testbed import collect, dataset
from repro.trace import apply_standard_filters

from ._support import assert_cdf_equal, assert_method_stats_equal

DURATION = 240.0
SEED = 6


@pytest.fixture(scope="module")
def ds():
    return dataset("ronnarrow")


@pytest.fixture(scope="module")
def sequential(ds):
    """The in-RAM reference collection every spilled run equals."""
    return collect(ds, DURATION, seed=SEED)


@pytest.fixture(scope="module")
def eager(sequential):
    """The filtered merged trace the eager functions analyse."""
    return apply_standard_filters(sequential.trace)


def assert_snapshot_matches_eager(snap, trace):
    """Every snapshot accessor equals its eager counterpart, exactly."""
    rows = method_stats_table(trace)
    assert [s.method for s in snap.stats] == [s.method for s in rows]
    for streamed, eager_row in zip(snap.stats, rows):
        assert_method_stats_equal(streamed, eager_row)

    names = list(trace.meta.method_names)
    assert snap.high_loss() == high_loss_table(trace, names)
    assert_cdf_equal(snap.path_loss_cdf(), path_loss_cdf(trace))
    np.testing.assert_array_equal(snap.testbed_hourly_loss(), hourly_loss(trace))

    for name in names:
        for window_s in (1200.0, 3600.0):
            assert_cdf_equal(
                snap.window_cdf(name, window_s=window_s),
                empirical_cdf(window_loss_rates(trace, name, window_s=window_s).rates),
            )
        lat = per_path_latency(trace, name)
        streamed_lat = snap.per_path_latency(name)
        np.testing.assert_array_equal(streamed_lat.mean_latency, lat.mean_latency)
        assert_cdf_equal(
            snap.latency_cdf(name, baseline=names[0]),
            latency_cdf_over_paths(lat, baseline=per_path_latency(trace, names[0])),
        )
    assert_cdf_equal(
        snap.clp_cdf("direct_rand", min_first_losses=2),
        empirical_cdf(per_path_clp(trace, "direct_rand", min_first_losses=2)),
    )
    assert snap.latency_improvement(names[0], names[1]) == improvement_summary(
        per_path_latency(trace, names[0]), per_path_latency(trace, names[1])
    )


class TestSpilledRunEquivalence:
    """Post-hoc ``from_run_dir`` over spilled 1/2/N-shard runs."""

    @pytest.mark.parametrize("n_shards", [1, 2, 17])
    def test_serial_shard_counts(self, ds, sequential, eager, tmp_path, n_shards):
        col = ShardedCollector(
            EngineConfig(
                n_shards=n_shards,
                executor="serial",
                spill_dir=tmp_path,
                max_resident_shards=1,
            )
        ).collect(ds, DURATION, seed=SEED, network=sequential.network)
        assert col.spill_dir is not None
        snap = StreamingAnalyzer.from_run_dir(col.spill_dir).snapshot()
        assert snap.n_parts == min(n_shards, 17)
        assert_snapshot_matches_eager(snap, eager)

    def test_thread_executor(self, ds, sequential, eager, tmp_path):
        col = ShardedCollector(
            EngineConfig(n_shards=4, executor="thread", spill_dir=tmp_path)
        ).collect(ds, DURATION, seed=SEED, network=sequential.network)
        snap = StreamingAnalyzer.from_run_dir(col.spill_dir).snapshot()
        assert_snapshot_matches_eager(snap, eager)


class TestArrivalOrder:
    def test_live_hook_equals_post_hoc(self, ds, sequential, eager, tmp_path):
        live = StreamingAnalyzer()
        col = ShardedCollector(
            EngineConfig(n_shards=4, executor="serial", spill_dir=tmp_path)
        ).collect(ds, DURATION, seed=SEED, network=sequential.network, analyzer=live)
        assert live.n_parts == 4
        assert_snapshot_matches_eager(live.snapshot(), eager)
        # and the live state equals re-reading the run directory cold
        post = StreamingAnalyzer.from_run_dir(col.spill_dir)
        for a, b in zip(live.snapshot().stats, post.snapshot().stats):
            assert_method_stats_equal(a, b)

    def test_out_of_order_shard_arrival(self, ds, sequential, eager, tmp_path):
        col = ShardedCollector(
            EngineConfig(n_shards=5, executor="serial", spill_dir=tmp_path)
        ).collect(ds, DURATION, seed=SEED, network=sequential.network)
        paths = shard_files(col.spill_dir)
        assert len(paths) == 5
        backwards = StreamingAnalyzer()
        for p in reversed(paths):
            backwards.ingest(p)
        assert_snapshot_matches_eager(backwards.snapshot(), eager)

    def test_merged_store_fallback(self, ds, sequential, eager, tmp_path):
        col = ShardedCollector(
            EngineConfig(n_shards=3, executor="serial", spill_dir=tmp_path)
        ).collect(ds, DURATION, seed=SEED, network=sequential.network)
        for p in shard_files(col.spill_dir):
            p.unlink()
        snap = StreamingAnalyzer.from_run_dir(col.spill_dir).snapshot()
        assert snap.n_parts == 1  # one fold over the memory-mapped store
        assert_snapshot_matches_eager(snap, eager)

    def test_empty_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="merged"):
            StreamingAnalyzer.from_run_dir(tmp_path)


class TestResultRouting:
    """``ExperimentResult`` accessors answer from the stream when the
    run spilled, and the answers equal the in-RAM run's."""

    def test_spilled_result_equals_plain(self, tmp_path):
        from repro.api import ExperimentSpec, Runner
        from repro.engine import always_shard

        spec = ExperimentSpec("ronnarrow", duration_s=DURATION, seeds=(SEED,))
        plain = Runner().run(spec)[0]
        spilled = Runner(
            engine=always_shard(n_shards=4, executor="thread", spill_dir=tmp_path)
        ).run(spec)[0]
        assert plain.streaming is None
        assert spilled.streaming is not None
        for a, b in zip(spilled.stats, plain.stats):
            assert_method_stats_equal(a, b)
        assert spilled.high_loss() == plain.high_loss()
        assert_cdf_equal(spilled.path_loss_cdf(), plain.path_loss_cdf())
        name = plain.trace.meta.method_names[0]
        assert_cdf_equal(spilled.window_cdf(name), plain.window_cdf(name))
        assert_cdf_equal(spilled.clp_cdf(), plain.clp_cdf())
        assert_cdf_equal(
            spilled.latency_cdf(name, baseline=name),
            plain.latency_cdf(name, baseline=name),
        )
        # a window size the analyzer never tallied falls back to eager
        assert_cdf_equal(
            spilled.window_cdf(name, window_s=600.0),
            plain.window_cdf(name, window_s=600.0),
        )
