"""Best-path selection with hysteresis and failure avoidance."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.selector import DIRECT, _UNATTRACTIVE, _top2, combine_loss, select_paths


def matrices(n, loss=0.0, lat=0.050):
    return (
        np.full((n, n), loss),
        np.full((n, n), lat),
        np.zeros((n, n), dtype=bool),
    )


class TestCombineLoss:
    def test_formula(self):
        assert combine_loss(np.float64(0.1), np.float64(0.2)) == pytest.approx(0.28)

    def test_zero_legs(self):
        assert combine_loss(np.float64(0.0), np.float64(0.0)) == 0.0

    def test_never_exceeds_one(self):
        assert combine_loss(np.float64(1.0), np.float64(1.0)) == pytest.approx(1.0)


class TestLossSelection:
    def test_healthy_network_prefers_direct(self):
        loss, lat, failed = matrices(4)
        t = select_paths(loss, lat, failed, margin=0.01)
        off_diag = ~np.eye(4, dtype=bool)
        assert np.all(t.loss_best[off_diag] == DIRECT)

    def test_bad_direct_path_routed_around(self):
        loss, lat, failed = matrices(4, loss=0.001)
        loss[0, 1] = 0.30  # outage-grade loss on the direct (0, 1) leg
        t = select_paths(loss, lat, failed, margin=0.01)
        assert t.loss_best[0, 1] != DIRECT

    def test_margin_prevents_noise_switching(self):
        # one lost probe in a 100-window = 1% estimate: must NOT reroute
        loss, lat, failed = matrices(4, loss=0.0)
        loss[0, 1] = 0.01
        t = select_paths(loss, lat, failed, margin=0.012)
        assert t.loss_best[0, 1] == DIRECT

    def test_picks_the_best_relay(self):
        loss, lat, failed = matrices(5, loss=0.05)
        loss[0, 1] = 0.5
        # legs via relay 3 are pristine
        loss[0, 3] = 0.0
        loss[3, 1] = 0.0
        t = select_paths(loss, lat, failed, margin=0.01)
        assert t.loss_best[0, 1] == 3

    def test_second_differs_from_best(self):
        loss, lat, failed = matrices(5, loss=0.01)
        t = select_paths(loss, lat, failed, margin=0.012)
        off_diag = ~np.eye(5, dtype=bool)
        assert np.all(t.loss_best[off_diag] != t.loss_second[off_diag])

    def test_relay_estimate_composes_legs(self):
        # relay whose combined loss is worse than direct must lose
        loss, lat, failed = matrices(3, loss=0.0)
        loss[0, 1] = 0.04
        loss[0, 2] = 0.03
        loss[2, 1] = 0.03  # combined ~5.9% > direct 4%
        t = select_paths(loss, lat, failed, margin=0.012)
        assert t.loss_best[0, 1] == DIRECT


class TestLatencySelection:
    def test_prefers_direct_on_equal_latency(self):
        loss, lat, failed = matrices(4, lat=0.040)
        t = select_paths(loss, lat, failed)
        off_diag = ~np.eye(4, dtype=bool)
        assert np.all(t.lat_best[off_diag] == DIRECT)

    def test_triangle_inequality_violation_used(self):
        loss, lat, failed = matrices(4, lat=0.050)
        lat[0, 1] = 0.200  # circuitous direct route
        lat[0, 2] = 0.040
        lat[2, 1] = 0.040  # 80 ms via relay 2
        t = select_paths(loss, lat, failed)
        assert t.lat_best[0, 1] == 2

    def test_avoids_failed_direct_link(self):
        # "Lat: ... avoids completely failed links"
        loss, lat, failed = matrices(4, lat=0.040)
        failed[0, 1] = True
        t = select_paths(loss, lat, failed)
        assert t.lat_best[0, 1] != DIRECT

    def test_avoids_failed_relay_legs(self):
        loss, lat, failed = matrices(4, lat=0.050)
        lat[0, 1] = 0.200
        lat[0, 2] = 0.010
        lat[2, 1] = 0.010
        failed[2, 1] = True  # the attractive relay's second leg is down
        t = select_paths(loss, lat, failed)
        assert t.lat_best[0, 1] != 2

    def test_everything_failed_falls_back_to_direct(self):
        loss, lat, failed = matrices(3, lat=0.040)
        failed[:] = True
        t = select_paths(loss, lat, failed)
        assert t.lat_best[0, 1] == DIRECT

    def test_unprobed_legs_have_inf_latency(self):
        loss, lat, failed = matrices(3, lat=0.040)
        lat[0, 2] = np.inf  # never successfully probed
        lat[0, 1] = 0.100
        t = select_paths(loss, lat, failed)
        assert t.lat_best[0, 1] != 2


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            select_paths(np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((3, 3), bool))


#: few distinct option values, so ties are common; +inf is a forbidden
#: option and _UNATTRACTIVE a failed or unprobed one
GRID = (0.0, 0.01, 0.02, 0.5, 1.0, _UNATTRACTIVE, np.inf)


@st.composite
def option_tensors(draw):
    """``(direct, relay)``: one to three leading dims, 1-40 relay options."""
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    k = draw(st.integers(1, 40))
    values = st.sampled_from(GRID)
    direct = draw(arrays(np.float64, lead, elements=values))
    relay = draw(arrays(np.float64, lead + (k,), elements=values))
    relay[draw(arrays(np.bool_, lead))] = np.inf  # rows with every relay forbidden
    return direct, relay


class TestTop2Kernel:
    @given(option_tensors())
    @example(  # direct ties a relay; every option ties
        (
            np.array([0.01, 0.01, np.inf]),
            np.array([[0.02, 0.01], [0.01, 0.0], [np.inf, np.inf]]),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort(self, tensors):
        """Best and runner-up are the first two entries of a stable
        argsort of ``[direct, *relay]``, shifted so direct is -1."""
        direct, relay = tensors
        options = np.concatenate([direct[..., None], relay], axis=-1)
        order = np.argsort(options, axis=-1, kind="stable") - 1
        best, second = _top2(direct, relay.copy())
        np.testing.assert_array_equal(best, order[..., 0])
        np.testing.assert_array_equal(second, order[..., 1])
