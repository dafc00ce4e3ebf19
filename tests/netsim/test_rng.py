"""Deterministic named random streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import RngFactory


class TestRngFactory:
    def test_same_name_same_stream(self):
        a = RngFactory(7).stream("congestion", "seg-1").random(8)
        b = RngFactory(7).stream("congestion", "seg-1").random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        rngs = RngFactory(7)
        a = rngs.stream("congestion", "seg-1").random(8)
        b = rngs.stream("congestion", "seg-2").random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x").random(8)
        b = RngFactory(2).stream("x").random(8)
        assert not np.array_equal(a, b)

    def test_creation_order_irrelevant(self):
        r1 = RngFactory(9)
        first = r1.stream("a").random()
        _ = r1.stream("b").random()
        r2 = RngFactory(9)
        _ = r2.stream("b").random()
        again = r2.stream("a").random()
        assert first == again

    def test_requires_name(self):
        with pytest.raises(ValueError):
            RngFactory(0).stream()

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RngFactory("zero")  # type: ignore[arg-type]

    def test_child_namespacing(self):
        parent = RngFactory(5)
        child = parent.child("netsim")
        assert isinstance(child, RngFactory)
        a = child.stream("x").random(4)
        b = parent.stream("x").random(4)
        assert not np.array_equal(a, b)

    def test_child_deterministic(self):
        a = RngFactory(5).child("n").stream("x").random(4)
        b = RngFactory(5).child("n").stream("x").random(4)
        np.testing.assert_array_equal(a, b)

    def test_name_separator_not_ambiguous(self):
        rngs = RngFactory(3)
        a = rngs.stream("ab", "c").random(4)
        b = rngs.stream("a", "bc").random(4)
        # "ab/c" vs "a/bc" differ as joined strings
        assert not np.array_equal(a, b)


def _list_entropy_stream(seed: int, *names: str) -> np.random.Generator:
    """The stream construction from a Python list of entropy words: the
    reference the uint32-array construction must match word for word."""
    digest = hashlib.sha256("/".join(str(n) for n in names).encode("utf-8")).digest()
    entropy = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF]
    entropy.extend(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
def test_stream_state_matches_list_entropy(seed):
    rngs = RngFactory(seed)
    names = [("congestion", f"mid:h{i}:h{i + 1}") for i in range(150)]
    names += [("outage", f"acc-out:host{i}") for i in range(100)]
    names += [("srg", "line:MIT"), ("host-down", "Cornell"), ("x",), ("a", "b", "c")]
    for path in names:
        assert (
            rngs.stream(*path).bit_generator.state
            == _list_entropy_stream(seed, *path).bit_generator.state
        ), path


#: seeds on both sides of 2**32 (one seed word or two), up to 2**64 - 1
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=SEEDS,
    prefix=st.lists(st.text(max_size=10), max_size=2),
    names=st.lists(st.text(max_size=16), min_size=1, max_size=12),
    m=st.integers(1, 6),
)
def test_first_draws_match_streams(seed, prefix, names, m):
    rngs = RngFactory(seed)
    got = rngs.first_draws(prefix, names, m)
    want = np.array([rngs.stream(*prefix, name).random(m) for name in names])
    assert got.shape == (len(names), m)
    assert got.tobytes() == want.tobytes()


def test_first_draws_shapes():
    rngs = RngFactory(3)
    assert rngs.first_draws(("outage",), [], 2).shape == (0, 2)
    assert rngs.first_draws(("outage",), ["a", "b"], 0).shape == (2, 0)
