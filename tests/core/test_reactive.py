"""Vectorised probing subsystem and routing-table construction."""

import numpy as np
import pytest

from repro.core.reactive import (
    ProbeSeries,
    _rolling_mean_excl,
    build_routing_tables,
    build_table_block,
    probe_estimates,
    run_probing,
)
from repro.netsim import RngFactory, config_2003


@pytest.fixture(scope="module")
def series(tiny_network):
    return run_probing(tiny_network, config_2003().probing, RngFactory(4))


@pytest.fixture(scope="module")
def tables(series):
    return build_routing_tables(series, config_2003().probing)


class TestRollingMean:
    def test_excludes_current_index(self):
        x = np.array([1.0, 0.0, 0.0, 1.0]).reshape(-1, 1)
        out = _rolling_mean_excl(x, window=100).ravel()
        np.testing.assert_allclose(out, [0.0, 1.0, 0.5, 1 / 3])

    def test_window_limits_history(self):
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0]).reshape(-1, 1)
        out = _rolling_mean_excl(x, window=2).ravel()
        np.testing.assert_allclose(out, [0.0, 1.0, 1.0, 0.5, 0.0])

    def test_matches_bruteforce_random(self, rng):
        x = rng.random((50, 3))
        out = _rolling_mean_excl(x, window=7)
        for g in range(1, 50):
            lo = max(g - 7, 0)
            np.testing.assert_allclose(out[g], x[lo:g].mean(axis=0))


class TestRunProbing:
    def test_grid_dimensions(self, series, tiny_network):
        n = tiny_network.topology.n_hosts
        expected_slots = int(tiny_network.horizon // 15.0)
        assert series.lost.shape == (expected_slots, n, n)
        assert series.interval == 15.0

    def test_latency_nan_iff_lost(self, series):
        lost_lat = series.latency[series.lost]
        assert np.all(np.isnan(lost_lat))
        n = series.n_hosts
        off_diag = ~np.eye(n, dtype=bool)
        ok_lat = series.latency[:, off_diag][~series.lost[:, off_diag]]
        assert not np.any(np.isnan(ok_lat))

    def test_loss_rates_plausible(self, series):
        n = series.n_hosts
        off_diag = ~np.eye(n, dtype=bool)
        rate = series.lost[:, off_diag].mean()
        assert 0.0 < rate < 0.05  # sub-5% average loss on direct paths

    def test_deterministic(self, tiny_network):
        a = run_probing(tiny_network, config_2003().probing, RngFactory(4))
        b = run_probing(tiny_network, config_2003().probing, RngFactory(4))
        np.testing.assert_array_equal(a.lost, b.lost)


class TestRoutingTables:
    def test_choices_in_range(self, tables, series):
        n = series.n_hosts
        assert tables.loss_best.min() >= -1
        assert tables.loss_best.max() < n

    def test_mostly_direct_when_healthy(self, tables, series):
        n = series.n_hosts
        off_diag = ~np.eye(n, dtype=bool)
        frac_direct = (tables.loss_best[:, off_diag] == -1).mean()
        assert frac_direct > 0.5

    def test_lookup_slot_mapping(self, tables):
        times = np.array([0.0, 14.9, 15.0, 1e9])
        slots = tables.slot_of(times)
        assert slots[0] == 0 and slots[1] == 0 and slots[2] == 1
        assert slots[3] == tables.n_slots - 1

    def test_lookup_criteria(self, tables):
        t = np.array([100.0])
        s = np.array([0])
        d = np.array([1])
        for criterion in ("loss", "lat"):
            for alt in (False, True):
                r = tables.lookup(criterion, t, s, d, alternate=alt)
                assert r.shape == (1,)

    def test_lookup_rejects_unknown_criterion(self, tables):
        # the error must name the offending value, not just reject it
        with pytest.raises(ValueError, match="'bandwidth'"):
            tables.lookup("bandwidth", np.array([0.0]), np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="'latency'"):
            tables.lookup(
                "latency", np.array([0.0]), np.array([0]), np.array([1]), alternate=True
            )

    def test_slot_of_clamps_past_horizon(self, tables):
        """Regression: send times past the last grid slot (and before the
        first) clamp to the stale table instead of indexing out of
        bounds."""
        last = tables.n_slots - 1
        beyond = np.array([last * 15.0 + 15.0, 1e12, np.float64(2**40)])
        np.testing.assert_array_equal(tables.slot_of(beyond), [last, last, last])
        np.testing.assert_array_equal(tables.slot_of(np.array([-1.0, -1e9])), [0, 0])
        # and the full lookup path serves the clamped slots' entries
        src = np.zeros(3, dtype=np.int64)
        dst = np.ones(3, dtype=np.int64)
        got = tables.lookup("loss", beyond, src, dst)
        np.testing.assert_array_equal(got, tables.loss_best[last, 0, 1].repeat(3))
        got = tables.lookup("lat", np.array([-50.0]), src[:1], dst[:1], alternate=True)
        assert got[0] == tables.lat_second[0, 0, 1]

    def test_block_lookup_is_the_full_lookup(self, tables, series):
        """A table block answers like the full tables for its sources
        (same slot clamp, same criterion map) and rejects the rest."""
        params = config_2003().probing
        est = probe_estimates(series, params)
        block = build_table_block(*est, series.interval, params, 1, 3)
        times = np.array([-5.0, 0.0, 100.0, 1e12])
        src = np.array([1, 2, 1, 2])
        dst = np.array([0, 4, 3, 0])
        for criterion in ("loss", "lat"):
            for alt in (False, True):
                np.testing.assert_array_equal(
                    block.lookup(criterion, times, src, dst, alternate=alt),
                    tables.lookup(criterion, times, src, dst, alternate=alt),
                )
        with pytest.raises(IndexError, match=r"\[1, 3\)"):
            block.lookup("loss", times[:1], np.array([3]), np.array([0]))
        with pytest.raises(ValueError, match="'bandwidth'"):
            block.lookup("bandwidth", times[:1], src[:1], dst[:1])

    def test_best_and_alternate_differ(self, tables):
        g = tables.n_slots // 2
        n = tables.loss_best.shape[1]
        off = ~np.eye(n, dtype=bool)
        assert np.all(
            tables.loss_best[g][off] != tables.loss_second[g][off]
        )


class TestReaction:
    def test_outage_triggers_reroute(self):
        """A sustained fake outage must flip the loss choice off direct."""
        n = 4
        slots = 60
        lost = np.zeros((slots, n, n), dtype=bool)
        lat = np.full((slots, n, n), 0.05, dtype=np.float32)
        lost[20:, 0, 1] = True  # direct leg 0->1 dies at slot 20
        lat[lost] = np.nan
        series = ProbeSeries(interval=15.0, lost=lost, latency=lat)
        tables = build_routing_tables(series, config_2003().probing)
        assert tables.loss_best[10, 0, 1] == -1
        # after a few slots of losses the estimate crosses the margin
        assert tables.loss_best[30, 0, 1] != -1
        # and the failure detector sees it
        assert tables.failed[30, 0, 1]

    def test_estimates_lag_one_slot(self):
        n = 3
        lost = np.zeros((4, n, n), dtype=bool)
        lost[0, 0, 1] = True
        lat = np.full((4, n, n), 0.05, dtype=np.float32)
        series = ProbeSeries(interval=15.0, lost=lost, latency=lat)
        tables = build_routing_tables(series, config_2003().probing)
        assert tables.loss_est[0, 0, 1] == 0.0  # nothing seen yet
        assert tables.loss_est[1, 0, 1] == 1.0  # the slot-0 loss, next slot
