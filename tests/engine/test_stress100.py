"""The 100-host acceptance gates (ISSUE 3 + ISSUE 4): a generated mesh
builds its path table in seconds, probes + builds routing tables inside
a bounded budget, and collects identically sharded or sequential."""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.reactive import build_routing_tables
from repro.engine import ShardedCollector
from repro.netsim import Network, RngFactory
from repro.netsim.topology import build_topology
from repro.scenarios import stress_mesh
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

from ..conftest import sharded_probe_series

DURATION = 45.0


@pytest.fixture(scope="module")
def scenario():
    sc = stress_mesh(n_hosts=100, seed=1)
    sc.register()
    yield sc
    sc.unregister()


def test_topology_build_under_ten_seconds(scenario):
    hosts = scenario.hosts()
    cfg = scenario.network_config()
    t0 = time.perf_counter()
    topo = build_topology(hosts, cfg, RngFactory(1))
    elapsed = time.perf_counter() - t0
    n = len(hosts)
    assert int(topo.paths.valid.sum()) == n * (n - 1) * (n - 1)
    assert elapsed < 10.0, f"100-host topology took {elapsed:.1f}s (budget 10s)"


def test_probing_and_tables_within_budget(scenario):
    """The ISSUE 4 acceptance gate: sharded probing plus the batched
    routing-table build on the 100-host storm mesh stay inside a bounded
    wall-clock budget (generously padded for CI noise — the trajectory
    numbers live in benchmarks/test_probing_scaling.py)."""
    hosts = scenario.hosts()
    cfg = scenario.network_config()
    horizon = 300.0
    network = Network.build(hosts, cfg, horizon, seed=1, substrate="lazy")
    workers = os.cpu_count() or 1
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        series = sharded_probe_series(network, cfg.probing, RngFactory(1), workers, pool=pool)
    t_probe = time.perf_counter() - t0
    t0 = time.perf_counter()
    tables = build_routing_tables(series, cfg.probing)
    t_tables = time.perf_counter() - t0
    assert series.n_slots == int(horizon // cfg.probing.probe_interval_s)
    assert tables.loss_best.shape == (series.n_slots, 100, 100)
    assert t_probe < 30.0, f"100-host probing took {t_probe:.1f}s (budget 30s)"
    assert t_tables < 30.0, f"100-host table build took {t_tables:.1f}s (budget 30s)"


def test_full_sharded_collect_matches_sequential(scenario):
    ds = dataset(scenario.name)
    # one shared substrate: the sequential reference and the sharded run
    # must agree on every byte of the trace
    network = Network.build(
        ds.hosts(),
        ds.network_config(DURATION),
        DURATION,
        seed=1,
        substrate="lazy",
    )
    seq = collect(ds, DURATION, seed=1, network=network)
    sharded = ShardedCollector(executor="thread").collect(
        ds, DURATION, seed=1, network=network
    )
    assert len(seq.trace) > 3000
    assert trace_fingerprint(sharded.trace) == trace_fingerprint(seq.trace)
