"""Episode processes and piecewise-constant timelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.episodes import (
    EpisodeSet,
    Timeline,
    check_timelines,
    draw_counts,
    generate_poisson_episodes,
    hourly_rates,
    lognormal_sampler,
    pareto_sampler,
)
from repro.netsim.rng import RngFactory

HORIZON = 1000.0


def eps(*triples) -> EpisodeSet:
    s, d, v = zip(*triples)
    return EpisodeSet(np.array(s, float), np.array(d, float), np.array(v, float))


class TestEpisodeSet:
    def test_end_is_start_plus_duration(self):
        e = eps((1.0, 2.0, 0.5), (10.0, 3.0, 0.9))
        np.testing.assert_allclose(e.end, [3.0, 13.0])

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            eps((0.0, -1.0, 0.5))

    def test_rejects_severity_out_of_range(self):
        with pytest.raises(ValueError):
            eps((0.0, 1.0, 1.5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            EpisodeSet(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_concat(self):
        both = EpisodeSet.concat([eps((0, 1, 0.1)), eps((5, 1, 0.2))])
        assert len(both) == 2

    def test_concat_empty_list(self):
        assert len(EpisodeSet.concat([])) == 0


class TestTimelineBasics:
    def test_quiet_is_zero_everywhere(self):
        tl = Timeline.quiet(HORIZON)
        t = np.linspace(0, HORIZON - 1, 13)
        assert np.all(tl.severity_at(t) == 0.0)

    def test_single_episode(self):
        tl = Timeline.from_episodes(eps((10.0, 5.0, 0.4)), HORIZON)
        assert tl.severity_at(np.array([9.9]))[0] == 0.0
        assert tl.severity_at(np.array([10.0]))[0] == pytest.approx(0.4)
        assert tl.severity_at(np.array([14.99]))[0] == pytest.approx(0.4)
        assert tl.severity_at(np.array([15.0]))[0] == 0.0

    def test_overlap_takes_max(self):
        tl = Timeline.from_episodes(
            eps((10.0, 10.0, 0.3), (12.0, 2.0, 0.8)), HORIZON
        )
        assert tl.severity_at(np.array([11.0]))[0] == pytest.approx(0.3)
        assert tl.severity_at(np.array([13.0]))[0] == pytest.approx(0.8)
        assert tl.severity_at(np.array([15.0]))[0] == pytest.approx(0.3)

    def test_outside_horizon_is_zero(self):
        tl = Timeline.from_episodes(eps((0.0, HORIZON, 0.9)), HORIZON)
        assert tl.severity_at(np.array([-1.0]))[0] == 0.0
        assert tl.severity_at(np.array([HORIZON]))[0] == 0.0

    def test_episode_clipped_to_horizon(self):
        tl = Timeline.from_episodes(eps((HORIZON - 5.0, 100.0, 0.5)), HORIZON)
        assert tl.severity_at(np.array([HORIZON - 1.0]))[0] == pytest.approx(0.5)
        assert tl.coverage() == pytest.approx(5.0 / HORIZON)

    def test_mean_severity(self):
        tl = Timeline.from_episodes(eps((0.0, 100.0, 0.5)), HORIZON)
        assert tl.mean_severity() == pytest.approx(0.05)

    def test_requires_boundary_at_zero(self):
        with pytest.raises(ValueError):
            Timeline(np.array([1.0]), np.array([0.0]), HORIZON)

    def test_overlay_max(self):
        a = Timeline.from_episodes(eps((0.0, 10.0, 0.2)), HORIZON)
        b = Timeline.from_episodes(eps((5.0, 10.0, 0.7)), HORIZON)
        c = a.overlay_max(b)
        assert c.severity_at(np.array([2.0]))[0] == pytest.approx(0.2)
        assert c.severity_at(np.array([7.0]))[0] == pytest.approx(0.7)
        assert c.severity_at(np.array([12.0]))[0] == pytest.approx(0.7)

    def test_overlay_horizon_mismatch(self):
        with pytest.raises(ValueError):
            Timeline.quiet(10.0).overlay_max(Timeline.quiet(20.0))


@st.composite
def episode_sets(draw):
    n = draw(st.integers(0, 30))
    starts = draw(
        st.lists(st.floats(0, HORIZON), min_size=n, max_size=n)
    )
    durs = draw(st.lists(st.floats(0.01, 200.0), min_size=n, max_size=n))
    sevs = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return EpisodeSet(np.array(starts), np.array(durs), np.array(sevs))


class TestTimelineProperties:
    @given(episode_sets())
    @settings(max_examples=60, deadline=None)
    def test_sweep_invariants(self, episodes):
        tl = Timeline.from_episodes(episodes, HORIZON)
        assert tl.boundaries[0] == 0.0
        assert np.all(np.diff(tl.boundaries) > 0)
        assert np.all((tl.severity >= 0.0) & (tl.severity <= 1.0))
        assert 0.0 <= tl.coverage() <= 1.0
        assert tl.mean_severity() <= tl.max_severity() + 1e-12

    @given(episode_sets(), st.floats(0, HORIZON - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_point_query_matches_bruteforce(self, episodes, t):
        tl = Timeline.from_episodes(episodes, HORIZON)
        active = (episodes.start <= t) & (t < np.minimum(episodes.end, HORIZON))
        expected = episodes.severity[active].max() if active.any() else 0.0
        got = tl.severity_at(np.array([t]))[0]
        assert got == pytest.approx(expected, abs=1e-12)


class TestSamplers:
    def test_lognormal_median(self, rng):
        sample = lognormal_sampler(120.0, 1.0)(rng, 20000)
        assert np.median(sample) == pytest.approx(120.0, rel=0.05)

    def test_lognormal_rejects_bad_median(self):
        with pytest.raises(ValueError):
            lognormal_sampler(0.0, 1.0)

    def test_pareto_minimum_and_cap(self, rng):
        sample = pareto_sampler(30.0, 1.3, cap=900.0)(rng, 5000)
        assert sample.min() >= 30.0
        assert sample.max() <= 900.0

    def test_pareto_heavy_tail(self, rng):
        sample = pareto_sampler(30.0, 1.3)(rng, 20000)
        assert (sample > 300).mean() > 0.01


class TestGeneratePoisson:
    def test_count_matches_rate(self, rng):
        out = generate_poisson_episodes(
            rng, 3600.0 * 100, 5.0, lambda r, n: np.ones(n), lambda r, n: np.full(n, 0.5)
        )
        assert len(out) == pytest.approx(500, rel=0.2)

    def test_zero_rate_empty(self, rng):
        out = generate_poisson_episodes(
            rng, 3600.0, 0.0, lambda r, n: np.ones(n), lambda r, n: np.ones(n)
        )
        assert len(out) == 0

    def test_hourly_profile_shapes_arrivals(self, rng):
        rates = np.array([50.0, 0.0])
        out = generate_poisson_episodes(
            rng, 7200.0, rates, lambda r, n: np.ones(n), lambda r, n: np.full(n, 0.5)
        )
        assert np.all(out.start < 3600.0)

    def test_rejects_negative_rate(self, rng):
        with pytest.raises(ValueError):
            generate_poisson_episodes(
                rng, 3600.0, -1.0, lambda r, n: np.ones(n), lambda r, n: np.ones(n)
            )

    def test_severity_clipped(self, rng):
        out = generate_poisson_episodes(
            rng, 3600.0 * 10, 5.0, lambda r, n: np.ones(n), lambda r, n: np.full(n, 7.0)
        )
        assert np.all(out.severity <= 1.0)

    def test_one_hour_count_is_drawn_as_scalar(self):
        # the scalar draw gives the array draw's variate and leaves the
        # stream in the same state (small rates and PTRS-sized ones)
        for i, lam in enumerate([0.0, 1e-4, 0.05, 0.9, 3.0, 12.0, 250.0] * 40):
            a = RngFactory(i).stream("counts", str(lam))
            b = RngFactory(i).stream("counts", str(lam))
            scalar = draw_counts(a, np.array([lam]))
            assert isinstance(scalar, int)
            assert scalar == int(b.poisson(np.array([lam]))[0])
            assert a.bit_generator.state == b.bit_generator.state

    def test_hourly_rates_broadcast_and_validate(self):
        np.testing.assert_array_equal(hourly_rates(7200.0, 0.5), [0.5, 0.5])
        assert hourly_rates(300.0, np.array([2.0])).shape == (1,)
        with pytest.raises(ValueError, match="non-negative"):
            hourly_rates(7200.0, np.array([1.0, -1.0]))


class TestCheckTimelines:
    def ok(self):
        # two timelines: quiet, then [0, 5) at 0 and [5, 8) at 0.4
        return np.array([0, 1, 3]), np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 0.4])

    def test_accepts_valid_csr(self):
        check_timelines(*self.ok(), 8.0)

    def test_matches_timeline_checks(self):
        offsets, bounds, sev = self.ok()
        with pytest.raises(ValueError, match="t=0"):
            check_timelines(offsets, np.array([0.0, 1.0, 5.0]), sev, 8.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            check_timelines(offsets, np.array([0.0, 0.0, 0.0]), sev, 8.0)
        with pytest.raises(ValueError, match="horizon"):
            check_timelines(offsets, bounds, sev, 4.0)
        with pytest.raises(ValueError, match="t=0"):
            check_timelines(np.array([0, 0, 3]), bounds, sev, 8.0)  # empty timeline
        with pytest.raises(ValueError, match="equal length"):
            check_timelines(offsets, bounds, sev[:2], 8.0)
        with pytest.raises(ValueError, match="offsets"):
            check_timelines(np.array([0, 1, 2]), bounds, sev, 8.0)
