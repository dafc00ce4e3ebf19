"""Probing-engine equivalence: sharded probing and batched table builds
must be bitwise identical to the sequential pipeline, for any shard
layout, executor and scenario family.

The sharded probe grid is :func:`probe_rows` over :func:`plan_shards`
layouts merged with :func:`merge_probe_blocks` (serially or on a thread
pool).  The engine's own tables (``CollectionResult.tables``) are
checked end to end in ``test_pipeline.py``."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.reactive import (
    build_routing_tables,
    merge_probe_blocks,
    prepare_probing,
    probe_estimates,
    probe_rows,
    run_probing,
)
from repro.core.selector import select_paths
from repro.netsim import Network, RngFactory
from repro.scenarios import flash_crowd, quiet_wide_area, stress_mesh
from repro.testbed import dataset

from ..conftest import sharded_probe_series

DURATION = 240.0
SEED = 6

#: the equivalence zoo: a canned dataset, a pathology scenario, an RTT
#: scenario, and the CongestionStorm-driven scaled mesh.
ZOO = {
    "ronnarrow": lambda: dataset("ronnarrow"),
    "flash-crowd": lambda: flash_crowd(n_hosts=8, seed=4),
    "quiet-wide-rtt": lambda: quiet_wide_area(n_hosts=8, seed=4),
    "stress-mesh-storm": lambda: stress_mesh(n_hosts=24, seed=4),
}

#: (network, params, sequential series) per zoo entry, built lazily.
_REFERENCE: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _clean_reference():
    yield
    _REFERENCE.clear()


def reference_for(source_key):
    if source_key not in _REFERENCE:
        src = ZOO[source_key]()
        if hasattr(src, "register"):  # a Scenario: take its full weather
            cfg = src.network_config().with_overrides(
                major_events=src.events(DURATION)
            )
            hosts = src.hosts()
        else:  # a canned DatasetSpec
            cfg = src.network_config(DURATION)
            hosts = src.hosts()
        network = Network.build(hosts, cfg, DURATION, seed=SEED)
        series = run_probing(network, cfg.probing, RngFactory(SEED))
        _REFERENCE[source_key] = (network, cfg.probing, series)
    return _REFERENCE[source_key]


def assert_series_equal(a, b):
    assert a.interval == b.interval
    np.testing.assert_array_equal(a.lost, b.lost)
    np.testing.assert_array_equal(a.latency, b.latency)
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("source_key", sorted(ZOO))
class TestProbeShardEquivalence:
    """The tentpole gate: identical ProbeSeries fingerprint for 1, 2 and
    N probe shards against sequential run_probing(), across the zoo."""

    def test_shard_counts_match_sequential(self, source_key):
        network, params, seq = reference_for(source_key)
        n_hosts = seq.n_hosts
        for n_shards in (1, 2, n_hosts):
            sharded = sharded_probe_series(network, params, RngFactory(SEED), n_shards)
            assert sharded.fingerprint() == seq.fingerprint(), (
                f"{source_key}: {n_shards} probe shards drifted from sequential"
            )
            assert_series_equal(sharded, seq)

    def test_thread_executor_matches(self, source_key):
        network, params, seq = reference_for(source_key)
        with ThreadPoolExecutor(max_workers=2) as pool:
            sharded = sharded_probe_series(network, params, RngFactory(SEED), 4, pool=pool)
        assert_series_equal(sharded, seq)

    def test_routing_tables_bitwise_identical(self, source_key):
        """Tables built from sharded series equal the sequential ones —
        the fingerprint covers every choice/estimate array."""
        network, params, seq = reference_for(source_key)
        sharded = sharded_probe_series(network, params, RngFactory(SEED), 3)
        assert (
            build_routing_tables(sharded, params).fingerprint()
            == build_routing_tables(seq, params).fingerprint()
        )


@pytest.mark.parametrize("source_key", sorted(ZOO))
def test_batched_selection_matches_per_slot_loop(source_key):
    """The vectorised build_routing_tables must equal looping
    select_paths slot by slot — the kernel it replaced."""
    _, params, seq = reference_for(source_key)
    tables = build_routing_tables(seq, params)
    # the same per-slot inputs build_routing_tables selects from
    loss_est, lat_est, failed = probe_estimates(seq, params)

    for slot in range(seq.n_slots):
        sel = select_paths(
            loss_est[slot], lat_est[slot], failed[slot], params.selection_margin
        )
        np.testing.assert_array_equal(sel.loss_best, tables.loss_best[slot])
        np.testing.assert_array_equal(sel.loss_second, tables.loss_second[slot])
        np.testing.assert_array_equal(sel.lat_best, tables.lat_best[slot])
        np.testing.assert_array_equal(sel.lat_second, tables.lat_second[slot])


class TestProbeBlockPlumbing:
    def test_blocks_merge_in_any_order(self):
        network, params, seq = reference_for("ronnarrow")
        plan = prepare_probing(network, params, RngFactory(SEED))
        n = plan.n_hosts
        blocks = [probe_rows(plan, lo, lo + 1) for lo in range(n)]
        merged = merge_probe_blocks(plan, list(reversed(blocks)))
        assert_series_equal(merged, seq)

    def test_merge_rejects_overlap_and_gap(self):
        network, params, _ = reference_for("ronnarrow")
        plan = prepare_probing(network, params, RngFactory(SEED))
        a = probe_rows(plan, 0, 2)
        with pytest.raises(ValueError, match="overlap"):
            merge_probe_blocks(plan, [a, probe_rows(plan, 1, 3)])
        with pytest.raises(ValueError, match="uncovered"):
            merge_probe_blocks(plan, [a])

    def test_probe_rows_rejects_bad_range(self):
        network, params, _ = reference_for("ronnarrow")
        plan = prepare_probing(network, params, RngFactory(SEED))
        for lo, hi in ((-1, 2), (3, 3), (0, plan.n_hosts + 1)):
            with pytest.raises(ValueError, match="invalid host range"):
                probe_rows(plan, lo, hi)
