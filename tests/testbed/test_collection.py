"""The vectorised collection pipeline (integration-level)."""

import numpy as np
import pytest

from repro.core.methods import METHODS
from repro.engine import ShardedCollector
from repro.netsim import Network
from repro.testbed import RONNARROW, RONWIDE, collect
from repro.testbed.datasets import DatasetSpec


class TestRon2003Collection:
    def test_trace_meta(self, ron_trace):
        tr = ron_trace.trace
        assert tr.meta.dataset == "RON2003"
        assert tr.meta.mode == "oneway"
        assert len(tr.meta.host_names) == 30
        assert len(tr.meta.method_names) == 6

    def test_probe_volume_matches_schedule(self, ron_trace):
        tr = ron_trace.trace
        # 30 hosts, one probe per ~0.9 s for 2400 s
        expected = 30 * 2400 / 0.9
        assert len(tr) == pytest.approx(expected, rel=0.05)

    def test_pair_methods_have_second_packets(self, ron_trace):
        tr = ron_trace.trace
        m = tr.method_mask("direct_rand")
        assert np.all(tr.relay2[m] >= 0)
        single = tr.method_mask("loss")
        assert not np.any(tr.lost2[single])

    def test_dd_methods_ride_one_path(self, ron_trace):
        tr = ron_trace.trace
        for name in ("direct_direct", "dd_10ms", "dd_20ms"):
            m = tr.method_mask(name)
            assert np.all(tr.relay1[m] == -1)
            assert np.all(tr.relay2[m] == -1)

    def test_latencies_nan_iff_lost(self, ron_trace):
        tr = ron_trace.trace
        assert np.all(np.isnan(tr.latency1[tr.lost1]))
        assert not np.any(np.isnan(tr.latency1[~tr.lost1]))

    def test_loss_rates_in_band(self, ron_trace):
        tr = ron_trace.trace
        m = tr.method_mask("direct_direct")
        assert 0.0005 < tr.lost1[m].mean() < 0.02

    def test_routing_tables_built(self, ron_trace):
        assert ron_trace.tables is not None
        assert ron_trace.tables.n_slots == int(2400 // 15)

    def test_deterministic(self):
        from repro.testbed import RON2003

        a = collect(RON2003, duration_s=600.0, seed=9, include_events=False)
        b = collect(RON2003, duration_s=600.0, seed=9, include_events=False)
        np.testing.assert_array_equal(a.trace.lost1, b.trace.lost1)
        np.testing.assert_array_equal(a.trace.relay2, b.trace.relay2)

    def test_duration_validation(self):
        from repro.testbed import RON2003

        with pytest.raises(ValueError):
            collect(RON2003, duration_s=0.0)

    def test_host_columns_widen_past_int16(self):
        # the old pipeline raised beyond 32767 hosts; the capacity-chosen
        # id dtype now widens instead.  Building a >32k-host substrate is
        # far too slow for a test, so assert the plan-level choice that
        # collect_rows allocates from.
        from repro.testbed import RON2003
        from repro.trace.records import id_dtype

        assert id_dtype(2**15) == np.dtype(np.int16)  # max id 32767 still fits
        assert id_dtype(2**15 + 1) == np.dtype(np.int32)
        small = collect(RON2003, duration_s=10.0, seed=0, include_events=False)
        assert small.trace.src.dtype == np.dtype(np.int16)


class TestNarrowCollection:
    @pytest.fixture(scope="class")
    def narrow(self):
        return collect(RONNARROW, duration_s=1200.0, seed=3)

    def test_three_methods_17_hosts(self, narrow):
        tr = narrow.trace
        assert len(tr.meta.method_names) == 3
        assert len(tr.meta.host_names) == 17

    def test_higher_2002_loss(self, narrow):
        # 2002 base loss ~0.74% vs 2003's 0.42% (Table 5)
        tr = narrow.trace
        m = tr.method_mask("direct_rand")
        assert tr.lost1[m].mean() > 0.002


class TestRttCollection:
    @pytest.fixture(scope="class")
    def wide(self):
        return collect(RONWIDE, duration_s=1200.0, seed=3)

    def test_all_twelve_methods(self, wide):
        assert len(wide.trace.meta.method_names) == 12

    def test_rtt_latency_doubles_oneway(self, wide):
        tr = wide.trace
        m = tr.method_mask("direct") & ~tr.lost1
        # RTT must be at least 2x the one-way propagation: compare
        # against the direct one-way path propagation lower bound
        paths = wide.network.paths
        fwd = paths.direct_pids(tr.src[m].astype(int), tr.dst[m].astype(int))
        rev = paths.direct_pids(tr.dst[m].astype(int), tr.src[m].astype(int))
        floor = paths.prop_total[fwd] + paths.prop_total[rev]
        assert np.all(tr.latency1[m] >= floor - 1e-6)

    def test_rand_lossier_than_direct_rtt(self, wide):
        tr = wide.trace
        rand = tr.method_mask("rand")
        direct = tr.method_mask("direct")
        assert tr.lost1[rand].mean() > tr.lost1[direct].mean()


class TestConfigBuiltOnce:
    """A collection builds its dataset's network config once, and only
    where it is read: for the network build and the probing subsystem."""

    DURATION = 120.0

    @pytest.fixture()
    def calls(self, monkeypatch):
        made = []
        build = DatasetSpec.network_config

        def counting(spec, *args, **kwargs):
            made.append(spec.name)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(DatasetSpec, "network_config", counting)
        return made

    @pytest.fixture(scope="class")
    def network(self):
        ds = RONNARROW
        return Network.build(ds.hosts(), ds.network_config(self.DURATION), self.DURATION, seed=2)

    def test_dataset_probes(self):
        assert any(METHODS.lookup(name).needs_probing for name in RONNARROW.probe_methods)

    def test_collect_on_a_prebuilt_network(self, calls, network):
        collect(RONNARROW, self.DURATION, seed=2, network=network)
        assert len(calls) == 1

    def test_engine_on_a_prebuilt_network(self, calls, network):
        ShardedCollector(n_shards=2, executor="serial").collect(
            RONNARROW, self.DURATION, seed=2, network=network
        )
        assert len(calls) == 1

    def test_collect_building_its_network(self, calls):
        collect(RONNARROW, self.DURATION, seed=2)
        assert len(calls) == 1
