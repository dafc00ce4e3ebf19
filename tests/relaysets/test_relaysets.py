"""repro.relaysets unit surface: policy specs, the compiled CSR layout
and its invariants, the construction-time degenerate-relay validation
that replaced the selector's late ``+inf`` masking, and the sparse
random-relay draw."""

import dataclasses

import numpy as np
import pytest

from repro.core.mesh import random_candidate_relays
from repro.netsim.topology import PathTable
from repro.relaysets import (
    RELAY_POLICIES,
    RelayPolicySpec,
    RelaySet,
    compile_relay_set,
)


class TestRelayPolicySpec:
    def test_default_is_dense_reference(self):
        spec = RelayPolicySpec()
        assert spec.policy == "all"
        assert spec.k is None
        assert spec.canonical() == ("all", None, 0, 0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RelayPolicySpec().policy = "region"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown relay policy"):
            RelayPolicySpec(policy="nearest")

    @pytest.mark.parametrize("policy", ["k_nearest", "random_k"])
    def test_k_policies_require_k(self, policy):
        with pytest.raises(ValueError, match="needs an integer k"):
            RelayPolicySpec(policy=policy)
        with pytest.raises(ValueError, match="needs an integer k"):
            RelayPolicySpec(policy=policy, k=0)

    @pytest.mark.parametrize("policy", ["all", "region"])
    def test_non_k_policies_forbid_k(self, policy):
        with pytest.raises(ValueError, match="does not take k"):
            RelayPolicySpec(policy=policy, k=4)

    def test_backbone_only_for_region(self):
        RelayPolicySpec(policy="region", backbone=3)  # fine
        with pytest.raises(ValueError, match="backbone"):
            RelayPolicySpec(policy="all", backbone=3)
        with pytest.raises(ValueError, match="backbone"):
            RelayPolicySpec(policy="region", backbone=-1)

    def test_labels_are_compact_tokens(self):
        assert RelayPolicySpec().label == "all"
        assert RelayPolicySpec(policy="k_nearest", k=8).label == "k_nearest-8"
        assert RelayPolicySpec(policy="region", backbone=3).label == "region-b3"
        assert RelayPolicySpec(policy="random_k", k=4, seed=2).label == "random_k-4-s2"

    @pytest.mark.parametrize(
        "spec",
        [
            RelayPolicySpec(),
            RelayPolicySpec(policy="region", backbone=2, seed=5),
            RelayPolicySpec(policy="k_nearest", k=6),
            RelayPolicySpec(policy="random_k", k=3, seed=9),
        ],
    )
    def test_dict_round_trip(self, spec):
        assert RelayPolicySpec.from_dict(spec.to_dict()) == spec


def _distances(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return d


class TestCompile:
    def test_all_policy_is_the_dense_enumeration(self):
        n = 7
        rs = compile_relay_set(RelayPolicySpec(), n)
        assert rs.is_complete
        assert rs.nnz == n * (n - 1) * (n - 2)
        for s in range(n):
            for d in range(n):
                want = sorted(set(range(n)) - {s, d}) if s != d else []
                assert rs.candidates(s, d).tolist() == want

    def test_all_policy_below_three_hosts_is_empty(self):
        assert compile_relay_set(RelayPolicySpec(), 2).nnz == 0

    def test_k_nearest_contains_the_forward_choice(self):
        n, k = 10, 3
        dist = _distances(n, seed=4)
        rs = compile_relay_set(RelayPolicySpec(policy="k_nearest", k=k), n, distances=dist)
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                score = dist[s] + dist[:, d]
                score[[s, d]] = np.inf
                # ties broken by ascending relay id: stable argsort
                forward = np.argsort(score, kind="stable")[:k]
                got = set(rs.candidates(s, d).tolist())
                assert set(forward.tolist()) <= got
                # symmetrization can at most double the set
                assert k <= len(got) <= 2 * k

    def test_k_nearest_needs_distances(self):
        with pytest.raises(ValueError, match="distance"):
            compile_relay_set(RelayPolicySpec(policy="k_nearest", k=2), 6)

    def test_region_candidates_stay_in_endpoint_regions(self):
        n = 9
        regions = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        rs = compile_relay_set(RelayPolicySpec(policy="region"), n, regions=regions)
        for s in range(n):
            for d in range(n):
                for r in rs.candidates(s, d).tolist():
                    assert regions[r] in (regions[s], regions[d])

    def test_region_backbone_adds_shared_relays(self):
        n = 9
        regions = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        plain = compile_relay_set(RelayPolicySpec(policy="region"), n, regions=regions)
        wide = compile_relay_set(RelayPolicySpec(policy="region", backbone=n), n, regions=regions)
        # a full backbone makes every host a candidate everywhere
        assert wide.is_complete and not plain.is_complete
        assert wide.nnz > plain.nnz

    def test_region_needs_regions(self):
        with pytest.raises(ValueError, match="region"):
            compile_relay_set(RelayPolicySpec(policy="region"), 6)

    def test_random_k_counts_and_determinism(self):
        n, k = 11, 2
        spec = RelayPolicySpec(policy="random_k", k=k, seed=3)
        a = compile_relay_set(spec, n)
        b = compile_relay_set(spec, n)
        assert a.fingerprint() == b.fingerprint()
        counts = a.counts.reshape(n, n)
        off = ~np.eye(n, dtype=bool)
        assert (counts[off] >= k).all() and (counts[off] <= 2 * k).all()
        other = compile_relay_set(RelayPolicySpec(policy="random_k", k=k, seed=4), n)
        assert other.fingerprint() != a.fingerprint()

    @pytest.mark.parametrize("policy", RELAY_POLICIES)
    def test_every_policy_is_symmetric(self, policy):
        n = 8
        kwargs = {"k": 2} if policy in ("k_nearest", "random_k") else {}
        rs = compile_relay_set(
            RelayPolicySpec(policy=policy, **kwargs),
            n,
            regions=np.arange(n) % 3,
            distances=_distances(n),
        )
        for s in range(n):
            for d in range(n):
                assert rs.candidates(s, d).tolist() == rs.candidates(d, s).tolist()


def _tiny_set() -> RelaySet:
    """n=4, pairs (0,1)/(1,0) -> {2, 3}; everything else empty."""
    n = 4
    offsets = np.zeros(n * n + 1, dtype=np.int64)
    counts = np.zeros(n * n, dtype=np.int64)
    counts[0 * n + 1] = 2
    counts[1 * n + 0] = 2
    offsets[1:] = np.cumsum(counts)
    return RelaySet(
        n_hosts=n,
        spec=RelayPolicySpec(),
        offsets=offsets,
        relay_ids=np.array([2, 3, 2, 3]),
    )


class TestRelaySetInvariants:
    def test_wrong_offsets_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            RelaySet(4, RelayPolicySpec(), np.zeros(3, dtype=np.int64), np.empty(0))

    def test_offsets_must_cover_relay_ids(self):
        offsets = np.zeros(17, dtype=np.int64)
        with pytest.raises(ValueError, match="end at len"):
            RelaySet(4, RelayPolicySpec(), offsets, np.array([2]))

    def test_unsorted_pair_slice_rejected(self):
        bad = _tiny_set()
        with pytest.raises(ValueError, match="ascending"):
            RelaySet(4, bad.spec, bad.offsets, np.array([3, 2, 2, 3]))

    def test_degenerate_candidate_named(self):
        bad = _tiny_set()
        with pytest.raises(
            ValueError, match=r"degenerate relay candidate \(src=0, relay=1, dst=1\)"
        ):
            RelaySet(4, bad.spec, bad.offsets, np.array([1, 3, 2, 3]))

    def test_out_of_range_candidate_named(self):
        bad = _tiny_set()
        with pytest.raises(ValueError, match="out of range"):
            RelaySet(4, bad.spec, bad.offsets, np.array([2, 9, 2, 3]))

    def test_asymmetric_set_rejected(self):
        n = 4
        counts = np.zeros(n * n, dtype=np.int64)
        counts[0 * n + 1] = 2
        counts[1 * n + 0] = 1  # reverse pair misses relay 3
        counts[2 * n + 3] = 1
        counts[3 * n + 2] = 1
        offsets = np.concatenate([[0], np.cumsum(counts)])
        with pytest.raises(ValueError, match="symmetric"):
            RelaySet(n, RelayPolicySpec(), offsets, np.array([2, 3, 2, 1, 1]))

    def test_diagonal_pair_candidates_rejected(self):
        n = 4
        counts = np.zeros(n * n, dtype=np.int64)
        counts[0] = 1  # pair (0, 0)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        with pytest.raises(ValueError, match="diagonal"):
            RelaySet(n, RelayPolicySpec(), offsets, np.array([2]))


class TestLookups:
    def test_positions_are_absolute_csr_indices(self):
        rs = compile_relay_set(RelayPolicySpec(), 6)
        src = np.array([0, 0, 5])
        relay = np.array([2, 4, 1])
        dst = np.array([1, 3, 2])
        pos = rs.positions(src, relay, dst)
        np.testing.assert_array_equal(rs.relay_ids[pos].astype(np.int64), relay)
        pair = src * 6 + dst
        rel = pos - rs.offsets[pair]
        assert (rel >= 0).all() and (rel < rs.counts[pair]).all()

    def test_positions_raise_naming_the_pair_and_policy(self):
        rs = _tiny_set()
        with pytest.raises(
            ValueError, match=r"relay 2 is not a candidate for pair \(src=2, dst=3\)"
        ):
            rs.positions(np.array([2]), np.array([2]), np.array([3]))

    def test_contains_matches_candidate_lists(self):
        rs = compile_relay_set(RelayPolicySpec(policy="random_k", k=2, seed=1), 8)
        for s in range(8):
            for d in range(8):
                cand = set(rs.candidates(s, d).tolist())
                got = rs.contains(np.full(8, s), np.arange(8), np.full(8, d))
                assert set(np.nonzero(got)[0].tolist()) == cand

    def test_padded_block_matches_candidates(self):
        rs = compile_relay_set(RelayPolicySpec(policy="random_k", k=3, seed=2), 9)
        block = rs.padded_block(2, 5)
        assert block.shape[0] == 3 and block.shape[1] == 9
        for i, s in enumerate(range(2, 5)):
            for d in range(9):
                row = block[i, d]
                cand = rs.candidates(s, d)
                np.testing.assert_array_equal(row[: len(cand)], cand)
                assert (row[len(cand) :] == -1).all()

    def test_padded_block_validates_range(self):
        rs = _tiny_set()
        with pytest.raises(ValueError, match="bad host block"):
            rs.padded_block(3, 1)

    def test_shape_accessors(self):
        rs = _tiny_set()
        assert rs.nnz == 4
        assert rs.max_k == 2
        assert rs.counts.sum() == rs.nnz
        assert rs.nbytes > 0
        assert not rs.is_complete

    def test_fingerprint_distinguishes_specs(self):
        a = compile_relay_set(RelayPolicySpec(), 6)
        b = compile_relay_set(RelayPolicySpec(policy="random_k", k=4, seed=0), 6)
        assert a.fingerprint() != b.fingerprint()


class FakeSeg:
    def __init__(self, sid, prop=0.001):
        self.sid = sid
        self.prop_delay_s = prop


def every_host_table(n):
    return PathTable(n, compile_relay_set(RelayPolicySpec(), n))


class TestDegenerateRelayRows:
    """set_path/set_paths_batch validate relay_host against the pid's
    decoded endpoints at construction time."""

    def test_scalar_set_path_names_offender(self):
        t = every_host_table(5)
        pid = t.relay_pid(0, 2, 4)
        with pytest.raises(ValueError, match=r"degenerate relay path \(src=0, relay=0, dst=4\)"):
            t.set_path(pid, [FakeSeg(0)], relay_host=0)

    def test_scalar_set_path_rejects_relay_equal_dst(self):
        t = every_host_table(5)
        pid = t.relay_pid(1, 2, 3)
        with pytest.raises(ValueError, match=r"relay=3, dst=3"):
            t.set_path(pid, [FakeSeg(0)], relay_host=3)

    def test_batch_names_offender(self):
        t = every_host_table(5)
        pids = np.array([t.relay_pid(0, 2, 4), t.relay_pid(1, 2, 3)])
        with pytest.raises(ValueError, match=r"degenerate relay path \(src=1, relay=1, dst=3\)"):
            t.set_paths_batch(
                pids,
                np.zeros((2, 6), dtype=np.int64),
                np.full(1, 0.001),
                relay_host=np.array([2, 1]),
            )

    def test_valid_relay_rows_pass(self):
        t = every_host_table(5)
        t.set_path(t.relay_pid(0, 2, 4), [FakeSeg(0)], relay_host=2)
        assert t.valid[t.relay_pid(0, 2, 4)]

    def test_sparse_table_rejects_degenerate_rows_too(self):
        rs = compile_relay_set(RelayPolicySpec(), 5)
        t = PathTable(5, relay_set=rs)
        pid = t.relay_pid(0, 2, 4)
        with pytest.raises(ValueError, match="degenerate relay path"):
            t.set_path(pid, [FakeSeg(0)], relay_host=0)

    def test_degenerate_policy_output_raises_at_compile(self):
        """A policy emitting a candidate equal to an endpoint cannot
        produce a RelaySet: the constructor names the triple."""
        n = 4
        counts = np.zeros(n * n, dtype=np.int64)
        counts[0 * n + 1] = 1
        counts[1 * n + 0] = 1
        offsets = np.concatenate([[0], np.cumsum(counts)])
        with pytest.raises(ValueError, match=r"\(src=0, relay=0, dst=1\)"):
            RelaySet(n, RelayPolicySpec(), offsets, np.array([0, 0]))


class TestRandomCandidateRelays:
    def test_draws_stay_in_candidate_sets(self):
        rs = compile_relay_set(RelayPolicySpec(policy="random_k", k=3, seed=1), 10)
        rng = np.random.default_rng(5)
        src = np.repeat(np.arange(10), 9)
        dst = np.concatenate([np.delete(np.arange(10), s) for s in range(10)])
        relay = random_candidate_relays(rng, rs, src, dst)
        assert rs.contains(src, relay, dst).all()

    def test_exclude_never_drawn(self):
        rs = compile_relay_set(RelayPolicySpec(), 6)
        rng = np.random.default_rng(7)
        src = np.zeros(200, dtype=np.int64)
        dst = np.ones(200, dtype=np.int64)
        ex = np.full(200, 3, dtype=np.int64)
        relay = random_candidate_relays(rng, rs, src, dst, exclude=ex)
        assert not (relay == 3).any()
        assert rs.contains(src, relay, dst).all()
        # the other candidates all remain reachable
        assert set(relay.tolist()) == {2, 4, 5}

    def test_complete_set_covers_all_valid_relays(self):
        rs = compile_relay_set(RelayPolicySpec(), 5)
        rng = np.random.default_rng(0)
        relay = random_candidate_relays(
            rng, rs, np.zeros(300, dtype=np.int64), np.ones(300, dtype=np.int64)
        )
        assert set(relay.tolist()) == {2, 3, 4}

    def test_too_few_candidates_named(self):
        rs = _tiny_set()  # pair (0,1) has {2, 3}; pair (2,3) has none
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=r"pair \(src=2, dst=3\) has only 0 relay"):
            random_candidate_relays(rng, rs, np.array([2]), np.array([3]))
        # an exclusion needs two candidates; (0,1) has exactly two, so fine
        got = random_candidate_relays(rng, rs, np.array([0]), np.array([1]), exclude=np.array([2]))
        assert got.tolist() == [3]

    def test_endpoint_checks(self):
        rs = _tiny_set()
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="must differ"):
            random_candidate_relays(rng, rs, np.array([1]), np.array([1]))
        with pytest.raises(ValueError, match="exclude"):
            random_candidate_relays(rng, rs, np.array([0]), np.array([1]), exclude=np.array([1]))
