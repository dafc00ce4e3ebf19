"""Random relay choice and per-method route resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mesh import random_candidate_relays
from repro.core.methods import METHODS
from repro.core.reactive import ProbeSeries, build_routing_tables
from repro.core.router import resolve_routes
from repro.core.selector import DIRECT
from repro.netsim import config_2003
from repro.relaysets import RelayPolicySpec, compile_relay_set


def every_host(n):
    """The complete candidate set: every third host relays (policy ``all``)."""
    return compile_relay_set(RelayPolicySpec(), n)


class TestRandomRelays:
    def test_never_src_or_dst(self, rng):
        src = rng.integers(0, 10, 5000)
        dst = (src + 1 + rng.integers(0, 9, 5000)) % 10
        r = random_candidate_relays(rng, every_host(10), src, dst)
        assert np.all(r != src) and np.all(r != dst)

    def test_exclusion_respected(self, rng):
        src = np.zeros(5000, dtype=np.int64)
        dst = np.ones(5000, dtype=np.int64)
        ex = np.full(5000, 2, dtype=np.int64)
        r = random_candidate_relays(rng, every_host(10), src, dst, exclude=ex)
        assert np.all(r != 2) and np.all(r > 1)

    def test_uniform_over_allowed(self, rng):
        src = np.zeros(60000, dtype=np.int64)
        dst = np.ones(60000, dtype=np.int64)
        r = random_candidate_relays(rng, every_host(6), src, dst)
        counts = np.bincount(r, minlength=6)
        assert counts[0] == counts[1] == 0
        # remaining four hosts equally likely (chi-square-ish bound)
        assert counts[2:].min() > 0.9 * counts[2:].max()

    @given(st.integers(4, 20), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_property_valid_relays(self, n_hosts, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n_hosts, 50)
        dst = (src + 1 + rng.integers(0, n_hosts - 1, 50)) % n_hosts
        r = random_candidate_relays(rng, every_host(n_hosts), src, dst)
        assert np.all((r >= 0) & (r < n_hosts))
        assert np.all(r != src) and np.all(r != dst)

    def test_src_equals_dst_rejected(self, rng):
        with pytest.raises(ValueError):
            random_candidate_relays(rng, every_host(5), np.array([1]), np.array([1]))

    def test_too_few_hosts_rejected(self, rng):
        with pytest.raises(ValueError):
            random_candidate_relays(rng, every_host(2), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            random_candidate_relays(
                rng, every_host(3), np.array([0]), np.array([1]), exclude=np.array([2])
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 30, 100, 300])
    def test_complete_set_draws_order_statistics(self, n):
        """On a complete set the draw is the order-statistics one over all
        hosts: the same values, and the generator left in the same state."""

        def order_statistics(rng, src, dst, exclude):
            forbidden = [src, dst] if exclude is None else [src, dst, exclude]
            k = rng.integers(0, n - len(forbidden), size=src.shape)
            for f in np.sort(np.stack(forbidden), axis=0):
                k = k + (k >= f)
            return k

        rs = every_host(n)
        for seed in range(20):
            pick = np.random.default_rng(seed)
            src = pick.integers(0, n, 50)
            dst = (src + 1 + pick.integers(0, n - 1, 50)) % n
            excludes = [None]
            if n > 3:
                excludes.append(order_statistics(pick, src, dst, None))
            for ex in excludes:
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                want = order_statistics(a, src, dst, ex)
                got = random_candidate_relays(b, rs, src, dst, exclude=ex)
                np.testing.assert_array_equal(got, want)
                assert b.bit_generator.state == a.bit_generator.state


@pytest.fixture(scope="module")
def flat_tables():
    """Healthy-network tables: every choice is direct, runner-up relay 0/1."""
    n = 5
    slots = 10
    lost = np.zeros((slots, n, n), dtype=bool)
    lat = np.full((slots, n, n), 0.05, dtype=np.float32)
    return build_routing_tables(
        ProbeSeries(interval=15.0, lost=lost, latency=lat), config_2003().probing
    )


class TestResolveRoutes:
    def _args(self, tiny_network, n=64):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 5, n)
        dst = (src + 1 + rng.integers(0, 4, n)) % 5
        times = rng.uniform(0, 100, n)
        return src, dst, times

    def test_direct_single(self, tiny_network, flat_tables):
        src, dst, times = self._args(tiny_network)
        r = resolve_routes(
            METHODS["direct"], src, dst, times, tiny_network.paths, None,
            np.random.default_rng(1),
        )
        assert np.all(r.relay1 == DIRECT)
        assert r.pid2 is None
        np.testing.assert_array_equal(r.pid1, tiny_network.paths.direct_pids(src, dst))

    def test_same_path_pair(self, tiny_network, flat_tables):
        src, dst, times = self._args(tiny_network)
        r = resolve_routes(
            METHODS["dd_10ms"], src, dst, times, tiny_network.paths, None,
            np.random.default_rng(1),
        )
        np.testing.assert_array_equal(r.pid1, r.pid2)

    def test_direct_rand_distinct(self, tiny_network, flat_tables):
        src, dst, times = self._args(tiny_network)
        r = resolve_routes(
            METHODS["direct_rand"], src, dst, times, tiny_network.paths, None,
            np.random.default_rng(1),
        )
        assert np.all(r.relay1 == DIRECT)
        assert np.all(r.relay2 != DIRECT)
        assert np.all(r.pid1 != r.pid2)

    def test_rand_rand_two_distinct_relays(self, tiny_network, flat_tables):
        src, dst, times = self._args(tiny_network, n=256)
        r = resolve_routes(
            METHODS["rand_rand"], src, dst, times, tiny_network.paths, None,
            np.random.default_rng(1),
        )
        assert np.all(r.relay1 != DIRECT)
        assert np.all(r.relay2 != DIRECT)
        assert np.all(r.relay1 != r.relay2)

    def test_lat_loss_falls_back_on_clash(self, tiny_network, flat_tables):
        # healthy tables: both optimisers pick direct; the second packet
        # must take the runner-up (2-redundant needs two paths)
        src, dst, times = self._args(tiny_network)
        r = resolve_routes(
            METHODS["lat_loss"], src, dst, times, tiny_network.paths,
            flat_tables, np.random.default_rng(1),
        )
        assert np.all(r.relay1 == DIRECT)  # lat picks direct when healthy
        assert np.all(r.relay2 != DIRECT)  # forced onto best indirect
        assert np.all(r.pid1 != r.pid2)

    def test_reactive_method_requires_tables(self, tiny_network):
        src, dst, times = self._args(tiny_network)
        with pytest.raises(ValueError, match="routing tables"):
            resolve_routes(
                METHODS["loss"], src, dst, times, tiny_network.paths, None,
                np.random.default_rng(1),
            )

    def test_length_mismatch_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            resolve_routes(
                METHODS["direct"], np.array([0]), np.array([1, 2]),
                np.array([0.0]), tiny_network.paths, None,
                np.random.default_rng(1),
            )

    def test_all_resolved_paths_valid(self, tiny_network, flat_tables):
        src, dst, times = self._args(tiny_network, n=512)
        for name in METHODS:
            r = resolve_routes(
                METHODS[name], src, dst, times, tiny_network.paths,
                flat_tables, np.random.default_rng(2),
            )
            assert tiny_network.paths.valid[r.pid1].all(), name
            if r.pid2 is not None:
                assert tiny_network.paths.valid[r.pid2].all(), name
