"""Shared fixtures: factories for small networks and traces.

Expensive artefacts (built networks, collected traces) come from
session-scoped *factories* that memoize by their (hashable) arguments,
so tests across the suite share substrates without copy-pasting host
picks — and scenario tests get the same caching for generated
workloads.  The classic ``tiny_network`` / ``ron_trace`` fixtures are
thin wrappers over the factories with their historical parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reactive import merge_probe_blocks, prepare_probing, probe_rows
from repro.engine import plan_shards
from repro.netsim import Network, NetworkConfig, RngFactory, config_2003
from repro.netsim.topology import HostSpec
from repro.scenarios import Scenario, TopologyFamily
from repro.testbed import RON2003, DatasetSpec, collect, dataset, hosts_2003
from repro.trace.records import Trace

HOUR = 3600.0

#: the classic five-host pick: spans regions and link classes.
TINY_PICKS = ("MIT", "UCSD", "GBLX-CHI", "CA-DSL", "GBLX-AMS")


def pick_hosts(*names: str) -> list[HostSpec]:
    """Resolve catalogue hosts by name (order preserved)."""
    by_name = {h.name: h for h in hosts_2003()}
    return [by_name[n] for n in names]


def tiny_hosts() -> list[HostSpec]:
    """Five hosts spanning regions and link classes (fast topologies)."""
    return pick_hosts(*TINY_PICKS)


def resolve_hosts_config(
    source, config: NetworkConfig | None
) -> tuple[list[HostSpec], NetworkConfig]:
    """Hosts + substrate config for any scenario-ish source.

    ``source`` may be a tuple of catalogue host names, a
    :class:`Scenario`, or a :class:`TopologyFamily`; ``config`` (when
    given) overrides whatever the source implies.
    """
    if isinstance(source, Scenario):
        return source.hosts(), config or source.network_config()
    if isinstance(source, TopologyFamily):
        return source.hosts(), config or config_2003()
    return pick_hosts(*source), config or config_2003()


def assert_traces_equal(a: Trace, b: Trace) -> None:
    """Bitwise equality of two traces (meta, dtypes and every array)."""
    assert a.meta == b.meta
    for name in Trace.ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


def sharded_probe_series(network, params, rngs, n_shards, pool=None):
    """The probe grid as the engine shards it: :func:`probe_rows` over
    the :func:`plan_shards` ranges (mapped over ``pool`` when given, an
    ``Executor``), merged with :func:`merge_probe_blocks`."""
    plan = prepare_probing(network, params, rngs)
    ranges = plan_shards(plan.n_hosts, n_shards)
    if pool is None:
        blocks = [probe_rows(plan, lo, hi) for lo, hi in ranges]
    else:
        blocks = list(pool.map(lambda bounds: probe_rows(plan, *bounds), ranges))
    return merge_probe_blocks(plan, blocks)


@pytest.fixture(scope="session")
def network_factory():
    """Memoizing builder of small networks.

    Call as ``network_factory()`` for the classic tiny network, or with
    any hashable source (host-name tuple, Scenario, TopologyFamily) and
    overrides.  Equal arguments share one built substrate for the whole
    session.
    """
    cache: dict = {}

    def build(
        source=TINY_PICKS,
        config: NetworkConfig | None = None,
        horizon: float = 2 * HOUR,
        seed: int = 11,
    ) -> Network:
        key = (source, config, float(horizon), int(seed))
        if key not in cache:
            hosts, cfg = resolve_hosts_config(source, config)
            if isinstance(source, Scenario) and config is None:
                # a Scenario's incidents live in its events hook, not its
                # config; attach them so the factory matches what collect()
                # would build for the registered dataset
                cfg = cfg.with_overrides(major_events=source.events(horizon))
            cache[key] = Network.build(hosts, cfg, horizon=horizon, seed=seed)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def collection_factory():
    """Memoizing collector: datasets (by name or spec) and scenarios.

    Scenarios are registered idempotently on first use, so the returned
    trace is exactly what ``Experiment(scenario_name, ...)`` would see.
    """
    cache: dict = {}

    def run(
        source="ron2003",
        duration_s: float = 2400.0,
        seed: int = 5,
        include_events: bool = False,
    ):
        key = (source, float(duration_s), int(seed), include_events)
        if key not in cache:
            if isinstance(source, Scenario):
                source.register()
                ds = dataset(source.name)
            elif isinstance(source, DatasetSpec):
                ds = source
            else:
                ds = dataset(source)
            cache[key] = collect(
                ds, duration_s=duration_s, seed=seed, include_events=include_events
            )
        return cache[key]

    return run


@pytest.fixture(scope="session")
def tiny_network(network_factory) -> Network:
    """A 5-host network over a 2-hour horizon."""
    return network_factory()


@pytest.fixture(scope="session")
def ron_trace(collection_factory):
    """A short RON2003 collection (30 hosts, 40 minutes), filtered lazily
    by the tests that need it."""
    return collection_factory(RON2003, duration_s=2400.0, seed=5, include_events=False)


@pytest.fixture()
def rngs() -> RngFactory:
    return RngFactory(123)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(123)
