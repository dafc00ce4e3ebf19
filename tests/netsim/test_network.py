"""Packet sampling: marginals, joint correlation, latency, trains."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.netsim import Network, config_2003
from repro.netsim.network import conditional_loss_prob
from repro.testbed import hosts_2003


class TestConditionalLossProb:
    @given(
        st.floats(0.0, 0.999),
        st.floats(0.0, 0.999),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_marginal_preserved_when_severity_constant(self, p, q, rho):
        # law of total probability: P(l2) must equal p2 when p1 == p2
        p1 = np.array([p])
        p2 = np.array([p])
        r = np.array([rho])
        on = conditional_loss_prob(p1, p2, r, np.array([True]))[0]
        off = conditional_loss_prob(p1, p2, r, np.array([False]))[0]
        marginal = p * on + (1 - p) * off
        assert marginal == pytest.approx(p, abs=1e-9)

    def test_full_correlation(self):
        p = np.array([0.3])
        r = np.array([1.0])
        assert conditional_loss_prob(p, p, r, np.array([True]))[0] == 1.0
        assert conditional_loss_prob(p, p, r, np.array([False]))[0] == 0.0

    def test_zero_correlation_is_independent(self):
        p1 = np.array([0.3])
        p2 = np.array([0.4])
        r = np.array([0.0])
        assert conditional_loss_prob(p1, p2, r, np.array([True]))[0] == pytest.approx(0.4)
        assert conditional_loss_prob(p1, p2, r, np.array([False]))[0] == pytest.approx(0.4)

    @given(st.floats(0, 0.999), st.floats(0, 0.999), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_always_a_probability(self, p1, p2, rho):
        for lost in (True, False):
            v = conditional_loss_prob(
                np.array([p1]), np.array([p2]), np.array([rho]), np.array([lost])
            )[0]
            assert 0.0 <= v <= 1.0


#: one (packet, segment) entry of a second copy: its severity ``p2``
#: (0, subnormals and 1 drawn on purpose), spacing ``dt`` and correlation
#: length (0 each drawn on purpose), whether the segment is shared, and
#: the first copy's column ``k`` it matches
_ENTRY = st.tuples(
    st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0]),
    st.floats(0.0, 1e6) | st.just(0.0),
    st.floats(0.0, 1e4) | st.just(0.0),
    st.booleans(),
    st.integers(0, 3),
)


class TestQuietFirstCopy:
    """``Network._eval`` conditions only the rows where the first copy
    met a non-zero severity or lost the packet; every other row keeps
    its unconditioned severity, which this pins bitwise."""

    @given(st.lists(st.lists(_ENTRY, min_size=4, max_size=4), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_condition_returns_p2_when_first_copy_met_nothing(self, rows):
        p2, dt, corr, shared, k = (np.array(col) for col in zip(*(e for r in rows for e in r)))
        shape = (len(rows), 4)
        p2 = p2.reshape(shape)
        got = Network._condition(
            p2,
            np.zeros(shape),
            np.zeros(shape, dtype=bool),
            shared.reshape(shape),
            k.reshape(shape),
            dt.reshape(shape),
            corr.reshape(shape),
        )
        assert got.dtype == p2.dtype and got.tobytes() == p2.tobytes()


def _clean_pair(net):
    """An ordered pair with no chronic middle loss (whose iid losses are
    intentionally uncorrelated and would mask burst correlation)."""
    topo = net.topology
    for s in range(topo.n_hosts):
        for d in range(topo.n_hosts):
            if s != d and topo.chronic_loss[s, d] == 0:
                return s, d
    raise RuntimeError("no chronic-free pair in topology")


class TestSamplePackets:
    def test_shapes_and_types(self, tiny_network, rng):
        p = tiny_network.paths
        pid = p.direct_pid(0, 1)
        out = tiny_network.sample_packets(
            np.full(100, pid), rng.uniform(0, 3600, 100), rng=rng
        )
        assert out.lost.shape == (100,) and out.lost.dtype == bool
        assert np.all(out.latency > 0)

    def test_invalid_pid_rejected(self, tiny_network):
        p = tiny_network.paths
        with pytest.raises(ValueError, match="invalid path id"):
            tiny_network.sample_packets(
                np.array([p.direct_pid(1, 1)]), np.array([0.0])
            )

    def test_length_mismatch_rejected(self, tiny_network):
        p = tiny_network.paths
        with pytest.raises(ValueError):
            tiny_network.sample_packets(
                np.array([p.direct_pid(0, 1)]), np.array([0.0, 1.0])
            )

    def test_loss_rate_matches_expectation(self, tiny_network, rng):
        p = tiny_network.paths
        pid = p.direct_pid(0, 1)
        times = rng.uniform(0, tiny_network.horizon * 0.99, 60000)
        pids = np.full(len(times), pid)
        out = tiny_network.sample_packets(pids, times, rng=rng)
        expected = tiny_network.path_loss_prob(pids, times).mean()
        assert out.lost.mean() == pytest.approx(expected, abs=0.004)

    def test_latency_at_least_propagation(self, tiny_network, rng):
        p = tiny_network.paths
        pid = p.direct_pid(0, 4)
        out = tiny_network.sample_packets(
            np.full(500, pid), rng.uniform(0, 3600, 500), rng=rng
        )
        assert np.all(out.latency >= p.prop_total[pid])

    def test_relay_path_lossier_than_direct(self, tiny_network, rng):
        p = tiny_network.paths
        times = rng.uniform(0, tiny_network.horizon * 0.99, 40000)
        d = tiny_network.sample_packets(
            np.full(len(times), p.direct_pid(0, 1)), times, rng=rng
        )
        r = tiny_network.sample_packets(
            np.full(len(times), p.relay_pid(0, 3, 1)), times, rng=rng
        )
        # relay crosses an extra edge and pays forwarding loss (Table 7's
        # rand is ~4x direct)
        assert r.lost.mean() > d.lost.mean()


class TestSamplePairs:
    def test_back_to_back_highly_correlated(self, tiny_network, rng):
        # same-path duplicates share every segment: CLP >> marginal
        p = tiny_network.paths
        s_, d_ = _clean_pair(tiny_network)
        n = 120000
        times = rng.uniform(0, tiny_network.horizon * 0.99, n)
        pid = np.full(n, p.direct_pid(s_, d_))
        out = tiny_network.sample_pairs(pid, pid, times, gap=0.0, rng=rng)
        lost1 = out.lost1
        if lost1.sum() < 20:
            pytest.skip("too few losses drawn for a CLP estimate")
        clp = (lost1 & out.lost2).sum() / lost1.sum()
        assert clp > 10 * max(out.lost2.mean(), 1e-4)

    def test_clp_decays_with_gap(self, tiny_network, rng):
        p = tiny_network.paths
        s_, d_ = _clean_pair(tiny_network)
        n = 120000
        times = rng.uniform(0, tiny_network.horizon * 0.99, n)
        pid = np.full(n, p.direct_pid(s_, d_))
        clps = []
        for gap in (0.0, 0.5):
            out = tiny_network.sample_pairs(pid, pid, times, gap=gap, rng=rng)
            if out.lost1.sum() < 20:
                pytest.skip("too few losses drawn")
            clps.append((out.lost1 & out.lost2).sum() / out.lost1.sum())
        assert clps[1] <= clps[0] + 0.05

    def test_second_marginal_unbiased(self, tiny_network, rng):
        # conditioning must not change packet 2's marginal loss rate
        p = tiny_network.paths
        n = 150000
        times = rng.uniform(0, tiny_network.horizon * 0.99, n)
        pid1 = np.full(n, p.direct_pid(0, 1))
        pid2 = np.full(n, p.relay_pid(0, 2, 1))
        pair = tiny_network.sample_pairs(pid1, pid2, times, rng=rng)
        solo = tiny_network.sample_packets(pid2, times, rng=rng)
        assert pair.lost2.mean() == pytest.approx(solo.lost.mean(), abs=0.0035)

    def test_gap_added_to_second_latency(self, tiny_network, rng):
        p = tiny_network.paths
        pid = np.full(200, p.direct_pid(0, 1))
        times = rng.uniform(0, 3600, 200)
        out = tiny_network.sample_pairs(pid, pid, times, gap=0.02, rng=rng)
        assert np.all(out.latency2 >= p.prop_total[pid[0]] + 0.02)

    def test_mismatched_lengths_rejected(self, tiny_network):
        p = tiny_network.paths
        with pytest.raises(ValueError):
            tiny_network.sample_pairs(
                np.array([p.direct_pid(0, 1)]),
                np.array([p.direct_pid(0, 1), p.direct_pid(0, 2)]),
                np.array([0.0]),
            )

    def test_negative_gap_rejected(self, tiny_network):
        p = tiny_network.paths
        pid = np.array([p.direct_pid(0, 1)])
        with pytest.raises(ValueError):
            tiny_network.sample_pairs(pid, pid, np.array([0.0]), gap=-0.01)


class TestSampleTrain:
    def test_train_shapes(self, tiny_network, rng):
        p = tiny_network.paths
        pids = np.full(50, p.direct_pid(0, 1))
        times = rng.uniform(0, 3000, 50)[:, None] + np.arange(6)[None, :] * 0.001
        lost, lat = tiny_network.sample_train(pids, times, rng=rng)
        assert lost.shape == (50, 6) and lat.shape == (50, 6)

    def test_train_burst_correlation(self, tiny_network, rng):
        # adjacent packets in a train must be more correlated than
        # packets in independent trains
        p = tiny_network.paths
        s_, d_ = _clean_pair(tiny_network)
        n = 60000
        pids = np.full(n, p.direct_pid(s_, d_))
        starts = rng.uniform(0, tiny_network.horizon * 0.99, n)
        times = starts[:, None] + np.array([0.0, 0.0005])[None, :]
        lost, _ = tiny_network.sample_train(pids, times, rng=rng)
        first = lost[:, 0]
        if first.sum() < 20:
            pytest.skip("too few losses drawn")
        clp = (first & lost[:, 1]).sum() / first.sum()
        assert clp > 5 * max(lost[:, 1].mean(), 1e-4)

    def test_decreasing_times_rejected(self, tiny_network):
        p = tiny_network.paths
        pids = np.array([p.direct_pid(0, 1)])
        with pytest.raises(ValueError):
            tiny_network.sample_train(pids, np.array([[1.0, 0.5]]))


class TestGroundTruth:
    def test_path_loss_prob_in_range(self, tiny_network, rng):
        p = tiny_network.paths
        pid = np.full(100, p.relay_pid(0, 2, 1))
        probs = tiny_network.path_loss_prob(pid, rng.uniform(0, 3600, 100))
        assert np.all((probs >= 0) & (probs <= 1))

    def test_path_mean_loss_positive(self, tiny_network):
        pid = tiny_network.paths.direct_pid(0, 1)
        assert tiny_network.path_mean_loss(pid) > 0


class TestFootprint:
    def test_unconditioned_chunk_peaks_within_eight_planes(self):
        # the footprint rule of Network._eval
        net = Network.build(hosts_2003(), config_2003(), horizon=6 * 3600.0, seed=1)
        p = net.paths
        src, dst = np.nonzero(~np.eye(p.n_hosts, dtype=bool))
        r = np.random.default_rng(0)
        rows = 12_000
        pids = r.choice(p.direct_pids(src, dst), rows)
        times = np.sort(r.uniform(0.0, net.horizon, rows))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net._eval(pids, times, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        planes = peak / (rows * p.seg.shape[1] * 8)
        assert planes <= 8.0, f"one chunk peaked at {planes:.1f} planes"

    @pytest.mark.parametrize("second", ["same path", "relay path"])
    def test_conditioned_chunk_peaks_within_eight_planes(self, second):
        # a pair's second copy: conditioning allocates for its rows only
        net = Network.build(hosts_2003(), config_2003(), horizon=6 * 3600.0, seed=1)
        p = net.paths
        src, dst = np.nonzero(~np.eye(p.n_hosts, dtype=bool))
        r = np.random.default_rng(0)
        rows = 12_000
        pick = r.integers(0, len(src), rows)
        s, d = src[pick], dst[pick]
        direct = p.direct_pids(s, d)
        if second == "same path":
            pids2 = direct
        else:
            pair = s * p.n_hosts + d
            offsets = p.relay_set.offsets
            pids2 = p.n_hosts**2 + r.integers(offsets[pair], offsets[pair + 1])
        times = np.sort(r.uniform(0.0, net.horizon, rows))
        rng = np.random.default_rng(1)
        first = net._eval(direct, times, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net._eval(pids2, times, rng, first=first)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        planes = peak / (rows * p.seg.shape[1] * 8)
        assert planes <= 8.0, f"one conditioned chunk peaked at {planes:.1f} planes"


class TestTelemetry:
    def test_rows_and_conditioned_rows_are_counted(self, tiny_network, rng):
        p = tiny_network.paths
        n = 4000
        pids = np.full(n, p.direct_pid(0, 1))
        times = rng.uniform(0, tiny_network.horizon, n)
        with telemetry.recording() as rec:
            tiny_network.sample_packets(pids, times, rng=rng)
            single = rec.counter_snapshot()
            tiny_network.sample_pairs(pids, pids, times, rng=rng)
            both = rec.counter_snapshot()
        assert single["network.rows"] == n
        assert single["network.conditioned_rows"] == 0
        assert both["network.rows"] == 3 * n
        assert 0 < both["network.conditioned_rows"] < n
