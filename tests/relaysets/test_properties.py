"""Property tests for the compiled relay candidate sets.

Hypothesis drives the policy surface; the invariants asserted here are
recomputed from the raw arrays (not via :class:`RelaySet` accessors) so
a constructor bug cannot vouch for itself.  Process-boundary
determinism is checked with a real subprocess: the same spec must
compile to the same fingerprint in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import relaysets
from repro.relaysets import RelayPolicySpec, compile_relay_set

ns = st.integers(min_value=3, max_value=12)


@st.composite
def specs(draw, ks=st.integers(min_value=1, max_value=6)):
    policy = draw(st.sampled_from(["all", "region", "k_nearest", "random_k"]))
    if policy in ("k_nearest", "random_k"):
        return RelayPolicySpec(
            policy=policy,
            k=draw(ks),
            seed=draw(st.integers(min_value=0, max_value=5)),
        )
    if policy == "region":
        return RelayPolicySpec(
            policy=policy,
            seed=draw(st.integers(min_value=0, max_value=5)),
            backbone=draw(st.integers(min_value=0, max_value=3)),
        )
    return RelayPolicySpec()


def topology_inputs(n: int, salt: int = 0):
    """Deterministic synthetic per-host regions and distances."""
    rng = np.random.default_rng(salt)
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return np.arange(n) % min(3, n), dist


def compile_for(spec: RelayPolicySpec, n: int, salt: int = 0):
    """Compile with deterministic synthetic regions/distances."""
    regions, dist = topology_inputs(n, salt)
    return compile_relay_set(spec, n, regions=regions, distances=dist)


@settings(max_examples=60, deadline=None)
@given(spec=specs(), n=ns, salt=st.integers(min_value=0, max_value=3))
def test_csr_invariants(spec, n, salt):
    rs = compile_for(spec, n, salt)
    offsets = np.asarray(rs.offsets)
    ids = np.asarray(rs.relay_ids, dtype=np.int64)
    # offsets monotone, starting at 0, covering relay_ids exactly
    assert offsets[0] == 0 and offsets[-1] == len(ids)
    assert (np.diff(offsets) >= 0).all()
    # every id a real host, never an endpoint, sorted per pair
    pair = np.repeat(np.arange(n * n), np.diff(offsets))
    src, dst = pair // n, pair % n
    assert ((ids >= 0) & (ids < n)).all()
    assert ((ids != src) & (ids != dst)).all()
    assert (src != dst).all()
    keys = pair * n + ids
    assert (np.diff(keys) > 0).all() if len(keys) > 1 else True
    # symmetry: C(s, d) == C(d, s)
    rev = (dst * n + src) * n + ids
    np.testing.assert_array_equal(np.sort(rev), keys)


@settings(max_examples=60, deadline=None)
@given(
    spec=specs(ks=st.integers(min_value=1, max_value=12)),
    n=st.integers(min_value=1, max_value=30),
    salt=st.integers(min_value=0, max_value=3),
)
def test_symmetrized_keys_equal_union1d(spec, n, salt):
    """The compiler's sort-and-dedupe symmetrization gives exactly the
    layout of the policy's choices united with their reverses by
    ``np.union1d``."""
    regions, dist = topology_inputs(n, salt)
    raw = {
        "all": lambda: relaysets._keys_all(n),
        "region": lambda: relaysets._keys_region(spec, n, regions),
        "k_nearest": lambda: relaysets._keys_k_nearest(spec, n, dist),
        "random_k": lambda: relaysets._keys_random_k(spec, n),
    }[spec.policy]()
    pair, relay = raw // n, raw % n
    keys = np.union1d(raw, ((pair % n) * n + pair // n) * n + relay)
    counts = np.bincount(keys // n, minlength=n * n)
    rs = compile_relay_set(spec, n, regions=regions, distances=dist)
    np.testing.assert_array_equal(rs.offsets, np.concatenate([[0], np.cumsum(counts)]))
    np.testing.assert_array_equal(rs.relay_ids, keys % n)


@settings(max_examples=80, deadline=None)
@given(
    spec=specs(ks=st.integers(min_value=1, max_value=40)),
    n=st.integers(min_value=1, max_value=40),
)
def test_is_complete_matches_per_pair_counts(spec, n):
    rs = compile_for(spec, n)
    counts = np.diff(rs.offsets).reshape(n, n)
    per_pair = bool((counts[~np.eye(n, dtype=bool)] == max(n - 2, 0)).all())
    assert rs.is_complete == per_pair


@settings(max_examples=25, deadline=None)
@given(n=ns)
def test_all_policy_equals_dense_enumeration(n):
    rs = compile_for(RelayPolicySpec(), n)
    assert rs.is_complete
    for s in range(n):
        for d in range(n):
            want = sorted(set(range(n)) - {s, d}) if s != d else []
            assert rs.candidates(s, d).tolist() == want


@settings(max_examples=40, deadline=None)
@given(spec=specs(), n=ns, salt=st.integers(min_value=0, max_value=3))
def test_recompilation_is_bitwise_deterministic(spec, n, salt):
    a = compile_for(spec, n, salt)
    b = compile_for(spec, n, salt)
    assert a.fingerprint() == b.fingerprint()
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.relay_ids, b.relay_ids)


@settings(max_examples=30, deadline=None)
@given(
    n=ns,
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=5),
)
def test_random_k_budget_bounds(n, k, seed):
    rs = compile_for(RelayPolicySpec(policy="random_k", k=k, seed=seed), n)
    kk = min(k, n - 2)
    counts = rs.counts.reshape(n, n)
    off = ~np.eye(n, dtype=bool)
    assert (counts[off] >= kk).all()
    assert (counts[off] <= 2 * kk).all()
    assert (counts[~off] == 0).all()


@pytest.mark.parametrize(
    ("spec", "spec_expr"),
    [
        (RelayPolicySpec(), "RelayPolicySpec()"),
        (
            RelayPolicySpec(policy="random_k", k=3, seed=5),
            "RelayPolicySpec(policy='random_k', k=3, seed=5)",
        ),
        (
            RelayPolicySpec(policy="region", seed=2, backbone=2),
            "RelayPolicySpec(policy='region', seed=2, backbone=2)",
        ),
    ],
)
def test_fingerprint_stable_across_process_boundary(spec, spec_expr):
    """The seeded policies carry no ambient entropy: a fresh interpreter
    compiles the same spec to the same fingerprint."""
    n = 13
    regions = "np.arange(13) % 3"
    code = (
        "import numpy as np\n"
        "from repro.relaysets import RelayPolicySpec, compile_relay_set\n"
        f"rs = compile_relay_set({spec_expr}, {n}, regions={regions})\n"
        "print(rs.fingerprint())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    rs = compile_relay_set(spec, n, regions=np.arange(13) % 3)
    assert out.stdout.strip() == rs.fingerprint()
