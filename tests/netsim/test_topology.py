"""Topology construction and the precomputed path table."""

import numpy as np
import pytest

from repro.netsim import RngFactory, build_topology, config_2003
from repro.netsim.segments import SegmentKind
from repro.netsim.topology import NO_SEGMENT

from ..conftest import tiny_hosts


@pytest.fixture(scope="module")
def topo():
    return build_topology(tiny_hosts(), config_2003(), RngFactory(42))


class TestSegments:
    def test_edge_segments_per_host(self, topo):
        for h in topo.hosts:
            kinds = {topo.registry[s].kind for s in topo.registry.sids_of_host(h.name)}
            assert {
                SegmentKind.ACCESS_OUT,
                SegmentKind.ACCESS_IN,
                SegmentKind.ISP,
            } <= kinds

    def test_access_directions_share_srg(self, topo):
        sids = topo.registry.sids_of_srg("line:MIT")
        kinds = {topo.registry[s].kind for s in sids}
        assert kinds == {SegmentKind.ACCESS_OUT, SegmentKind.ACCESS_IN}

    def test_middle_segment_per_ordered_pair(self, topo):
        n = topo.n_hosts
        mids = topo.registry.sids_of_kind(SegmentKind.MIDDLE)
        assert len(mids) == n * (n - 1)

    def test_trunks_cover_region_pairs(self, topo):
        trunks = topo.registry.sids_of_kind(SegmentKind.TRUNK)
        assert len(trunks) == len(topo.regions) ** 2

    def test_dsl_access_has_interleaving_delay(self, topo):
        seg = topo.registry.by_name("acc-out:CA-DSL")
        fast = topo.registry.by_name("acc-out:MIT")
        assert seg.prop_delay_s > fast.prop_delay_s + 0.005


class TestPathTable:
    def test_direct_path_structure(self, topo):
        s = topo.host_index["MIT"]
        d = topo.host_index["UCSD"]
        segs = topo.path_segments(topo.paths.direct_pid(s, d))
        kinds = [x.kind for x in segs]
        assert kinds == [
            SegmentKind.ACCESS_OUT,
            SegmentKind.ISP,
            SegmentKind.TRUNK,
            SegmentKind.MIDDLE,
            SegmentKind.ISP,
            SegmentKind.ACCESS_IN,
        ]
        assert segs[0].host == "MIT" and segs[-1].host == "UCSD"

    def test_relay_path_traverses_relay_edge_twice(self, topo):
        s, r, d = 0, 2, 4
        segs = topo.path_segments(topo.paths.relay_pid(s, r, d))
        relay = topo.hosts[r].name
        hosts_hit = [x.host for x in segs if x.host == relay]
        # ISP once, access in + access out
        assert len(hosts_hit) == 3

    def test_relay_prop_at_least_direct(self, topo):
        p = topo.paths
        # triangle inequality holds for non-circuitous geometry on average
        s, d = 0, 1
        direct = p.prop_total[p.direct_pid(s, d)]
        relays = [
            p.prop_total[p.relay_pid(s, r, d)]
            for r in range(topo.n_hosts)
            if r not in (s, d)
        ]
        assert min(relays) >= direct * 0.4  # sanity, not strict triangle

    def test_degenerate_paths_invalid(self, topo):
        p = topo.paths
        assert not p.valid[p.direct_pid(1, 1)]
        # no relay row exists for a relay equal to an endpoint
        for s, r, d in [(0, 0, 1), (0, 1, 1), (1, 1, 1)]:
            with pytest.raises(ValueError, match="not a candidate"):
                p.relay_pid(s, r, d)

    def test_all_proper_paths_valid(self, topo):
        p = topo.paths
        n = topo.n_hosts
        for s in range(n):
            for d in range(n):
                if s != d:
                    assert p.valid[p.direct_pid(s, d)]

    def test_offsets_increase_along_path(self, topo):
        p = topo.paths
        pid = p.direct_pid(0, 3)
        row = p.offset[pid][p.seg[pid] != NO_SEGMENT]
        assert np.all(np.diff(row) > 0)

    def test_forward_loss_only_on_relay_paths(self, topo):
        p = topo.paths
        assert p.forward_loss[p.direct_pid(0, 1)] == 0.0
        assert p.forward_loss[p.relay_pid(0, 2, 1)] > 0.0

    def test_vectorised_pid_helpers(self, topo):
        p = topo.paths
        src = np.array([0, 1])
        dst = np.array([2, 3])
        np.testing.assert_array_equal(
            p.direct_pids(src, dst), [p.direct_pid(0, 2), p.direct_pid(1, 3)]
        )
        rel = np.array([4, 0])
        np.testing.assert_array_equal(
            p.relay_pids(src, rel, dst),
            [p.relay_pid(0, 4, 2), p.relay_pid(1, 0, 3)],
        )


class TestPairAnnotations:
    def test_chronic_pairs_have_lossier_middles(self, topo):
        chronic = np.argwhere(topo.chronic_loss > 0)
        if len(chronic) == 0:
            pytest.skip("no chronic pairs drawn in this tiny topology")
        s, d = chronic[0]
        seg = topo.registry.by_name(f"mid:{topo.hosts[s].name}:{topo.hosts[d].name}")
        assert seg.base_loss > topo.config.middle.base_loss

    def test_circuitous_factor_bounds(self, topo):
        c = topo.circuitous
        assert np.all(c >= 1.0)
        assert np.all(c <= topo.config.circuitous_stretch_max)

    def test_build_requires_three_hosts(self):
        with pytest.raises(ValueError):
            build_topology(tiny_hosts()[:2], config_2003(), RngFactory(0))

    def test_duplicate_host_names_rejected(self):
        hosts = tiny_hosts()
        hosts[1] = hosts[0]
        with pytest.raises(ValueError):
            build_topology(hosts, config_2003(), RngFactory(0))

    def test_deterministic_given_seed(self):
        a = build_topology(tiny_hosts(), config_2003(), RngFactory(9))
        b = build_topology(tiny_hosts(), config_2003(), RngFactory(9))
        np.testing.assert_array_equal(a.circuitous, b.circuitous)
        np.testing.assert_array_equal(a.chronic_loss, b.chronic_loss)
