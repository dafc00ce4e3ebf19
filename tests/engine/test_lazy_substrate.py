"""Lazy substrate parity: on-demand timeline generation (with and
without an LRU budget) must answer every query bitwise identically to
the eager TimelineBank."""

import sys
import threading

import numpy as np
import pytest

from repro.engine import ShardedCollector, always_shard
from repro.engine.substrate import LazyTimelineBank
from repro.netsim import Network, RngFactory, config_2003
from repro.netsim.state import SegmentTimelineRecipe, build_state
from repro.netsim.topology import build_topology
from repro.scenarios import stress_mesh
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

from ..conftest import tiny_hosts

HORIZON = 3600.0


@pytest.fixture(scope="module")
def topo():
    return build_topology(tiny_hosts(), config_2003(), RngFactory(13))


@pytest.fixture(scope="module")
def eager(topo):
    return build_state(topo, HORIZON, RngFactory(13))


def random_queries(n_seg, rng, n=4000):
    """(sids, times) matrices including padding and out-of-horizon rows."""
    sids = rng.integers(-1, n_seg, size=(n, 7))
    times = rng.uniform(-50.0, HORIZON * 1.1, size=(n, 7))
    return sids, times


@pytest.mark.parametrize("budget", [None, 3, 16])
@pytest.mark.parametrize("kind", ["congestion", "outage", "delay"])
def test_severity_matches_eager_bitwise(topo, eager, kind, budget):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, kind, max_cached=budget)
    bank = getattr(eager, kind)
    rng = np.random.default_rng(5)
    for _ in range(3):
        sids, times = random_queries(len(topo.registry), rng)
        np.testing.assert_array_equal(
            lazy.severity_at(sids, times), bank.severity_at(sids, times)
        )
    np.testing.assert_array_equal(lazy.corr_length, bank.corr_length)
    if budget is not None:
        assert lazy.cached_segments <= budget


def test_budget_churn_regenerates_identically(topo, eager):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, "outage", max_cached=2)
    rng = np.random.default_rng(9)
    sids, times = random_queries(len(topo.registry), rng)
    first = lazy.severity_at(sids, times)
    again = lazy.severity_at(sids, times)
    np.testing.assert_array_equal(first, again)
    assert lazy.generated_segments > lazy.cached_segments  # it really churned

    np.testing.assert_array_equal(first, eager.outage.severity_at(sids, times))


def test_warm_unbounded_bank_matches_eager(topo, eager):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, "congestion")
    n = len(topo.registry)
    sids = np.arange(n)
    times = np.linspace(0.0, HORIZON * 0.99, n)
    warm = lazy.severity_at(sids, times)  # touches every segment
    np.testing.assert_array_equal(warm, eager.congestion.severity_at(sids, times))
    # queries of a fully resident bank generate nothing, same bits
    rng = np.random.default_rng(21)
    q_sids, q_times = random_queries(n, rng)
    np.testing.assert_array_equal(
        lazy.severity_at(q_sids, q_times), eager.congestion.severity_at(q_sids, q_times)
    )
    assert lazy.generated_segments == lazy.cached_segments == n


def test_budgeted_bank_never_flattens(topo):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, "congestion", max_cached=4)
    n = len(topo.registry)
    lazy.severity_at(np.arange(n), np.full(n, 10.0))
    assert lazy.cached_segments <= 4


def test_mean_severity_and_materialize_match_eager(topo, eager):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, "congestion")
    np.testing.assert_array_equal(lazy.mean_severity, eager.congestion.mean_severity)
    bank = lazy.materialize()
    np.testing.assert_array_equal(bank.mean_severity, eager.congestion.mean_severity)


def test_lazy_network_collects_identically():
    ds = dataset("ronnarrow")
    eager_col = collect(ds, 300.0, seed=8)
    lazy_net = Network.build(
        ds.hosts(),
        ds.network_config(300.0),
        300.0,
        seed=8,
        substrate="lazy",
        max_cached_segments=32,
    )
    lazy_col = collect(ds, 300.0, seed=8, network=lazy_net)
    assert trace_fingerprint(lazy_col.trace) == trace_fingerprint(eager_col.trace)


def test_substrate_validation():
    ds = dataset("ronnarrow")
    with pytest.raises(ValueError, match="substrate"):
        Network.build(ds.hosts(), ds.network_config(100.0), 100.0, substrate="warm")
    topo = build_topology(tiny_hosts(), config_2003(), RngFactory(0))
    recipe = SegmentTimelineRecipe(topo, 100.0, RngFactory(0))
    with pytest.raises(ValueError):
        LazyTimelineBank(recipe, "outage", max_cached=0)


def test_threaded_lazy_collection_generates_each_segment_once():
    """Two shard threads sharing an unbounded lazy substrate must not
    regenerate segments: each cause generates at most one timeline per
    segment.  (A race once let the second thread to finish warming the
    bank regenerate all of it.)"""
    ds = stress_mesh(n_hosts=40).build()
    for _ in range(3):
        col = ShardedCollector(
            always_shard(substrate="lazy", executor="thread", max_workers=2, n_shards=4)
        ).collect(ds, 300.0, seed=1)
        state = col.network.state
        for kind in ("congestion", "outage", "delay"):
            bank = getattr(state, kind)
            assert bank.generated_segments <= bank.n_segments, (kind, bank.generated_segments)


@pytest.mark.parametrize("budget", [None, 5])
def test_concurrent_queries_stress(topo, eager, budget):
    """More query threads than cores, switching often: every answer
    matches the eager bank, an unbounded bank generates each segment
    once, and a budgeted one never holds more than its budget."""
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, "outage", max_cached=budget)
    n = len(topo.registry)
    queries = [random_queries(n, np.random.default_rng(100 + i), n=300) for i in range(6)]
    results: dict[int, np.ndarray] = {}
    cached: list[int] = []
    errors: list[Exception] = []

    def worker(i):
        try:
            for _ in range(5):
                results[i] = lazy.severity_at(*queries[i])
                cached.append(lazy.cached_segments)
        except Exception as exc:  # re-raised in the test thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(queries))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    if errors:
        raise errors[0]
    assert sorted(results) == list(range(len(queries)))
    if budget is not None:
        assert max(cached) <= budget
    for i, (sids, times) in enumerate(queries):
        np.testing.assert_array_equal(results[i], eager.outage.severity_at(sids, times))
    if budget is None:
        touched = np.unique(np.concatenate([s[s >= 0] for s, _ in queries]))
        assert lazy.generated_segments == lazy.cached_segments <= touched.size
