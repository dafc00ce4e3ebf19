"""Stochastic state generation and the vectorised timeline bank."""

import copy

import numpy as np
import pytest

from repro.netsim import RngFactory, build_state, build_topology, config_2003
from repro.netsim.config import HostFailureParams, MajorEvent
from repro.netsim.episodes import Timeline, generate_poisson_episodes, lognormal_sampler
from repro.netsim.segments import SegmentKind
from repro.netsim.state import TimelineBank

from ..conftest import tiny_hosts

HORIZON = 4 * 3600.0


@pytest.fixture(scope="module")
def state():
    rngs = RngFactory(21)
    topo = build_topology(tiny_hosts(), config_2003(), rngs)
    return build_state(topo, HORIZON, rngs)


class TestTimelineBank:
    def test_matches_individual_timelines(self, rng):
        tls = [
            Timeline.from_episodes(
                __import__(
                    "repro.netsim.episodes", fromlist=["EpisodeSet"]
                ).EpisodeSet(
                    rng.uniform(0, 900, 5), rng.uniform(1, 60, 5), rng.uniform(0.1, 1, 5)
                ),
                1000.0,
            )
            for _ in range(4)
        ]
        bank = TimelineBank(tls, 1000.0)
        times = rng.uniform(0, 999, 200)
        sids = rng.integers(0, 4, 200)
        got = bank.severity_at(sids, times)
        want = np.array(
            [tls[s].severity_at(np.array([t]))[0] for s, t in zip(sids, times)]
        )
        np.testing.assert_allclose(got, want)

    def test_padding_and_oob_are_zero(self, state):
        sids = np.array([-1, 0, 0])
        times = np.array([10.0, -5.0, HORIZON + 1])
        np.testing.assert_array_equal(
            state.congestion.severity_at(sids, times), [0.0, 0.0, 0.0]
        )

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimelineBank([Timeline.quiet(10.0), Timeline.quiet(20.0)], 10.0)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            TimelineBank([], 10.0)


class TestBuildState:
    def test_every_segment_has_state(self, state):
        n = len(state.topology.registry)
        assert len(state.base_loss) == n
        assert len(state.congestion.corr_length) == n

    def test_congestion_corr_length_set(self, state):
        access = state.topology.registry.sids_of_kind(SegmentKind.ACCESS_OUT)
        assert np.all(state.congestion.corr_length[access] > 0)
        # the CLP fit: ~5.6 ms
        assert state.congestion.corr_length[access[0]] == pytest.approx(0.0056)

    def test_outage_corr_much_longer_than_congestion(self, state):
        sid = state.topology.registry.sids_of_kind(SegmentKind.ACCESS_OUT)[0]
        assert state.outage.corr_length[sid] > 100 * state.congestion.corr_length[sid]

    def test_padded_arrays_follow_their_fields(self, state):
        # packet evaluation reads these; -1 (padding) must read 0, and a
        # caller replacing a field (as the Section 5.2 bench does) must
        # see the padded copy follow
        def padded(values):
            return np.append(values, 0.0).tobytes()

        st = copy.copy(state)
        n = len(st.base_loss)
        for _ in range(2):
            assert st.base_loss_pad.tobytes() == padded(st.base_loss)
            assert st.half_jitter_pad.tobytes() == padded(st.jitter_s / 2.0)
            assert st.queue_pad.tobytes() == padded(st.queue_s)
            assert st.cong_corr_pad.tobytes() == padded(st.congestion.corr_length)
            assert st.out_corr_pad.tobytes() == padded(st.outage.corr_length)
            st.base_loss = np.zeros(n)
            st.jitter_s = np.full(n, 0.003)
            st.queue_s = np.full(n, 0.002)
            st.congestion = TimelineBank([Timeline.quiet(HORIZON, 0.5)] * n, HORIZON)
            st.outage = TimelineBank([Timeline.quiet(HORIZON, 7.0)] * n, HORIZON)
        assert state.base_loss_pad.any()  # the fixture's own state is untouched

    def test_host_down_timelines_per_host(self, state):
        assert isinstance(state.host_down, TimelineBank)
        assert len(state.host_down) == state.topology.n_hosts

    def test_host_down_at_vector(self, state):
        hosts = np.zeros(3, dtype=np.int64)
        out = state.host_down_at(hosts, np.array([0.0, 100.0, 200.0]))
        assert out.dtype == bool and out.shape == (3,)

    def test_host_down_at_matches_per_host_timelines(self):
        # a failure-heavy config, so some hosts are down some of the time
        cfg = config_2003().with_overrides(
            host_failure=HostFailureParams(rate_per_day=40.0, duration_median_s=900.0)
        )
        rngs = RngFactory(5)
        topo = build_topology(tiny_hosts(), cfg, rngs)
        st = build_state(topo, HORIZON, rngs)
        rng = np.random.default_rng(3)
        hosts = rng.integers(0, topo.n_hosts, 5000)
        times = rng.uniform(-100.0, HORIZON + 100.0, 5000)
        want = np.zeros(5000, dtype=bool)
        hf = cfg.host_failure
        for h in topo.hosts:
            eps = generate_poisson_episodes(
                RngFactory(5).stream("host-down", h.name),
                HORIZON,
                hf.rate_per_day / 24.0,
                lognormal_sampler(hf.duration_median_s, hf.duration_sigma),
                lambda r, size: np.ones(size),
            )
            mask = hosts == topo.host_index[h.name]
            want[mask] = Timeline.from_episodes(eps, HORIZON).severity_at(times[mask]) > 0
        assert want.any() and not want.all()
        np.testing.assert_array_equal(st.host_down_at(hosts, times), want)

    def test_deterministic(self):
        rngs = RngFactory(77)
        topo = build_topology(tiny_hosts(), config_2003(), rngs)
        s1 = build_state(topo, 3600.0, RngFactory(77))
        s2 = build_state(topo, 3600.0, RngFactory(77))
        np.testing.assert_array_equal(
            s1.congestion.mean_severity, s2.congestion.mean_severity
        )

    def test_rejects_nonpositive_horizon(self, state):
        with pytest.raises(ValueError):
            build_state(state.topology, 0.0, RngFactory(0))


class TestMajorEventsApplied:
    def test_host_event_hits_access_segments(self):
        cfg = config_2003().with_overrides(
            major_events=(
                MajorEvent(
                    target="host:MIT",
                    start_frac=0.5,
                    duration_s=600.0,
                    severity=0.9,
                    added_delay_ms=500.0,
                ),
            )
        )
        rngs = RngFactory(3)
        topo = build_topology(tiny_hosts(), cfg, rngs)
        st = build_state(topo, HORIZON, rngs)
        sid = topo.registry.by_name("acc-out:MIT").sid
        mid_t = np.array([0.5 * HORIZON + 60.0])
        assert st.outage.severity_at(np.array([sid]), mid_t)[0] >= 0.9
        assert st.delay.severity_at(np.array([sid]), mid_t)[0] == pytest.approx(0.5)

    def test_trunk_event_hits_both_directions(self):
        cfg = config_2003().with_overrides(
            major_events=(
                MajorEvent(
                    target="trunk:us-east:us-west",
                    start_frac=0.25,
                    duration_s=600.0,
                    severity=0.5,
                ),
            )
        )
        rngs = RngFactory(3)
        topo = build_topology(tiny_hosts(), cfg, rngs)
        st = build_state(topo, HORIZON, rngs)
        t = np.array([0.25 * HORIZON + 10.0])
        for name in ("trunk:us-east:us-west", "trunk:us-west:us-east"):
            sid = topo.registry.by_name(name).sid
            assert st.outage.severity_at(np.array([sid]), t)[0] >= 0.5

    def test_unknown_target_rejected(self):
        cfg = config_2003().with_overrides(
            major_events=(
                MajorEvent(target="satellite:iridium", start_frac=0.1, duration_s=60.0),
            )
        )
        rngs = RngFactory(3)
        topo = build_topology(tiny_hosts(), cfg, rngs)
        with pytest.raises(ValueError):
            build_state(topo, HORIZON, rngs)

    def test_event_for_absent_host_ignored(self):
        cfg = config_2003().with_overrides(
            major_events=(
                MajorEvent(target="host:Cornell", start_frac=0.1, duration_s=60.0, severity=0.5),
            )
        )
        rngs = RngFactory(3)
        topo = build_topology(tiny_hosts(), cfg, rngs)  # Cornell not in tiny set
        build_state(topo, HORIZON, rngs)  # should not raise
