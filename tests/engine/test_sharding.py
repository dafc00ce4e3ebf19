"""Engine-vs-legacy equivalence: sharded collection must be bitwise
identical to the sequential pipeline, for any shard layout, executor
and scenario family."""

import os

import pytest

from repro.api import ExperimentSpec, Runner
from repro.engine import (
    EngineConfig,
    ShardedCollector,
    always_shard,
    plan_shards,
)
from repro.scenarios import flash_crowd, quiet_wide_area, stress_mesh
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

from ..conftest import assert_traces_equal

DURATION = 240.0

#: the equivalence zoo: a canned dataset, a pathology scenario, an RTT
#: scenario, and the CongestionStorm-driven scaled mesh.
ZOO = {
    "ronnarrow": lambda: dataset("ronnarrow"),
    "flash-crowd": lambda: flash_crowd(n_hosts=8, seed=4),
    "quiet-wide-rtt": lambda: quiet_wide_area(n_hosts=8, seed=4),
    "stress-mesh-storm": lambda: stress_mesh(n_hosts=24, seed=4),
}


def resolve(source_key):
    src = ZOO[source_key]()
    if hasattr(src, "register"):  # a Scenario
        src.register()
        return dataset(src.name)
    return src


@pytest.fixture(scope="module", autouse=True)
def _clean_catalogue():
    yield
    _SEQUENTIAL.clear()
    for make in ZOO.values():
        src = make()
        if hasattr(src, "unregister"):
            src.unregister()


class TestPlanShards:
    def test_covers_all_hosts_contiguously(self):
        for n_hosts, n_shards in ((10, 3), (17, 4), (5, 5), (100, 8)):
            ranges = plan_shards(n_hosts, n_shards)
            assert ranges[0][0] == 0 and ranges[-1][1] == n_hosts
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            sizes = [hi - lo for lo, hi in ranges]
            assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_hosts_collapses(self):
        assert plan_shards(3, 100) == [(0, 1), (1, 2), (2, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        for kwargs in (
            dict(n_shards=0),
            dict(executor="gpu"),
            dict(max_workers=0),
            dict(min_hosts=0),
            dict(substrate="mmap"),
            dict(max_cached_segments=5),  # the eager substrate reads no budget
            dict(substrate="lazy", max_cached_segments=0),
        ):
            with pytest.raises(ValueError):
                EngineConfig(**kwargs)

    def test_collector_rejects_config_plus_overrides(self):
        with pytest.raises(ValueError, match="not both"):
            ShardedCollector(EngineConfig(), n_shards=2)


#: sequential reference per zoo entry, collected once for the module.
_SEQUENTIAL: dict = {}


def sequential_for(source_key):
    if source_key not in _SEQUENTIAL:
        ds = resolve(source_key)
        _SEQUENTIAL[source_key] = (ds, collect(ds, DURATION, seed=6))
    return _SEQUENTIAL[source_key]


@pytest.mark.parametrize("source_key", sorted(ZOO))
class TestEquivalence:
    """The tentpole gate: identical trace_fingerprint for 1, 2 and N
    shards against sequential collect(), across the scenario zoo."""

    def test_shard_counts_match_sequential(self, source_key):
        ds, seq = sequential_for(source_key)
        expected = trace_fingerprint(seq.trace)
        n_hosts = len(seq.trace.meta.host_names)
        for n_shards in (1, 2, n_hosts):
            col = ShardedCollector(n_shards=n_shards, executor="serial").collect(
                ds, DURATION, seed=6, network=seq.network
            )
            assert trace_fingerprint(col.trace) == expected, (
                f"{source_key}: {n_shards} shards drifted from sequential"
            )
            assert_traces_equal(col.trace, seq.trace)

    def test_thread_executor_matches(self, source_key):
        ds, seq = sequential_for(source_key)
        col = ShardedCollector(n_shards=4, executor="thread").collect(
            ds, DURATION, seed=6, network=seq.network
        )
        assert_traces_equal(col.trace, seq.trace)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="process executor needs fork()")
def test_process_executor_matches_sequential():
    ds = dataset("ronnarrow")
    seq = collect(ds, DURATION, seed=6)
    col = ShardedCollector(n_shards=3, executor="process", max_workers=3).collect(
        ds, DURATION, seed=6, network=seq.network
    )
    assert_traces_equal(col.trace, seq.trace)


def test_fresh_network_build_matches_shared_substrate():
    # the collector building its own substrate changes nothing either
    ds = dataset("ronnarrow")
    seq = collect(ds, DURATION, seed=6)
    col = ShardedCollector(n_shards=2, executor="serial").collect(ds, DURATION, seed=6)
    assert col.network is not seq.network
    assert_traces_equal(col.trace, seq.trace)


class TestRunnerIntegration:
    def test_engine_runner_bitwise_equals_plain(self):
        sc = stress_mesh(n_hosts=24, seed=4)
        sc.register()
        spec = ExperimentSpec(sc.name.lower(), duration_s=DURATION, seeds=(2,))
        plain = Runner().run(spec)[0]
        engine = Runner(engine=always_shard(n_shards=4)).run(spec)[0]
        assert_traces_equal(engine.raw_trace, plain.raw_trace)

    def test_min_hosts_gates_engine(self):
        runner = Runner(engine=EngineConfig(min_hosts=32))
        assert runner._engine_collector(dataset("ronnarrow")) is None  # 17 hosts
        assert (
            runner._engine_collector(dataset("ron2003")) is None
        )  # 30 hosts, still below
        big = Runner(engine=EngineConfig(min_hosts=17))
        assert big._engine_collector(dataset("ronnarrow")) is not None

    def test_substrate_choice_gated_by_min_hosts(self):
        # a sub-threshold run must keep the eager bank even when the
        # runner's engine asks for a lazy substrate
        from repro.netsim.state import TimelineBank

        runner = Runner(engine=EngineConfig(min_hosts=32, substrate="lazy"))
        res = runner.run(ExperimentSpec("ronnarrow", duration_s=120.0, seeds=(1,)))[0]
        assert isinstance(res.network.state.congestion, TimelineBank)

    def test_engine_with_lazy_substrate_through_runner(self):
        spec = ExperimentSpec("ronnarrow", duration_s=DURATION, seeds=(2,))
        plain = Runner().run(spec)[0]
        lazy = Runner(
            engine=always_shard(n_shards=3, substrate="lazy", max_cached_segments=64)
        ).run(spec)[0]
        assert_traces_equal(lazy.raw_trace, plain.raw_trace)
