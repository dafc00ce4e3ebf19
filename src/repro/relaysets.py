"""Per-(src, dst) relay candidate sets: the path table's one layout.

Every network compiles one.  The paper's overlay lets *every* third
host relay for every pair — policy ``all``, which a network built
without a policy compiles — at the cost of O(N³) relay paths and
O(G·n³) selector tensors, which caps such runs near 100 hosts no matter
how well they are sharded or spilled.  Interdomain measurements (BGP
multipath, path-diversity surveys) show that real path diversity at
thousands of vantage points is served by a *small* per-pair candidate
set, so this module makes the candidate set a first-class, pluggable
object:

* :class:`RelayPolicySpec` — a frozen, serializable description of how
  candidates are chosen (``all`` / ``region`` / ``k_nearest`` /
  ``random_k``), carried on experiment specs and folded into spill run
  slugs;
* :class:`RelaySet` — the compiled result: one ragged CSR layout
  (``offsets``/``relay_ids``) shared read-only by topology build,
  selector, router and every probing/collection shard;
* :func:`compile_relay_set` — the deterministic compiler, a pure
  function of ``(spec, topology inputs)`` with no ambient entropy, so
  the same dataset + seed always yields bitwise-identical candidate
  sets in every process.

Candidate sets are always **symmetric** (``C(s, d) == C(d, s)``): RTT
evaluation traverses the reverse relay path, so a relay usable for
``(s, d)`` must exist for ``(d, s)`` too.  The compiler enforces this
by taking the union of each policy's forward and reverse choices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.netsim.rng import RngFactory
from repro.trace.records import id_dtype

__all__ = ["RELAY_POLICIES", "RelayPolicySpec", "RelaySet", "compile_relay_set"]

#: the policy catalogue; ``all`` is the paper's overlay and the default.
RELAY_POLICIES = ("all", "region", "k_nearest", "random_k")

#: policies that take a per-pair candidate budget ``k``.
_K_POLICIES = ("k_nearest", "random_k")

#: src-row chunk for the O(n³)-shaped compile scans (k_nearest scores,
#: region membership masks); bounds transient memory to ~chunk·n² cells.
_COMPILE_CHUNK_CELLS = 16_000_000


@dataclass(frozen=True)
class RelayPolicySpec:
    """How per-pair relay candidates are chosen. Frozen and serializable.

    ``policy``:
        ``"all"``       — every third host (the paper's overlay, and
        what a network built without a policy compiles);
        ``"region"``    — hosts in either endpoint's region plus a
        seeded shared ``backbone`` sample;
        ``"k_nearest"`` — the ``k`` relays with the lowest static
        two-leg propagation distance ``dist(s, r) + dist(r, d)``;
        ``"random_k"``  — a seeded per-pair sample of ``k`` relays.
    ``k``:
        per-pair candidate budget; required for ``k_nearest`` /
        ``random_k``, forbidden otherwise.
    ``seed``:
        extra salt for the seeded policies (``random_k`` sampling, the
        ``region`` backbone pick); independent of the run seed so one
        candidate universe can be reused across seeds.
    ``backbone``:
        size of the shared backbone sample (``region`` only).
    """

    policy: str = "all"
    k: int | None = None
    seed: int = 0
    backbone: int = 0

    def __post_init__(self) -> None:
        if self.policy not in RELAY_POLICIES:
            raise ValueError(f"unknown relay policy {self.policy!r}; choose from {RELAY_POLICIES}")
        if self.policy in _K_POLICIES:
            if self.k is None or not isinstance(self.k, int) or self.k < 1:
                raise ValueError(f"policy {self.policy!r} needs an integer k >= 1")
        elif self.k is not None:
            raise ValueError(f"policy {self.policy!r} does not take k")
        if not isinstance(self.seed, int):
            raise TypeError("seed must be an int")
        if not isinstance(self.backbone, int) or self.backbone < 0:
            raise ValueError("backbone must be an int >= 0")
        if self.backbone and self.policy != "region":
            raise ValueError("backbone only applies to the 'region' policy")

    def canonical(self) -> tuple:
        """Identity tuple (stable across processes) for slugs and keys."""
        return (self.policy, self.k, self.seed, self.backbone)

    @property
    def label(self) -> str:
        """Compact human label for sweep axes and file names."""
        parts = [self.policy]
        if self.k is not None:
            parts.append(str(self.k))
        if self.policy == "region" and self.backbone:
            parts.append(f"b{self.backbone}")
        if self.policy == "random_k" and self.seed:
            parts.append(f"s{self.seed}")
        return "-".join(parts)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "k": self.k,
            "seed": self.seed,
            "backbone": self.backbone,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RelayPolicySpec":
        return cls(
            policy=d.get("policy", "all"),
            k=d.get("k"),
            seed=int(d.get("seed", 0)),
            backbone=int(d.get("backbone", 0)),
        )


def _check_candidates(n: int, pair: np.ndarray, relay: np.ndarray) -> None:
    """Reject degenerate or out-of-range candidates, naming the offender."""
    src = pair // n
    dst = pair % n
    bad = (relay < 0) | (relay >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"relay candidate out of range for pair (src={int(src[i])}, "
            f"dst={int(dst[i])}): relay {int(relay[i])} not in [0, {n})"
        )
    degenerate = (relay == src) | (relay == dst)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise ValueError(
            f"degenerate relay candidate (src={int(src[i])}, "
            f"relay={int(relay[i])}, dst={int(dst[i])}): a relay must "
            "differ from both endpoints"
        )
    diagonal = src == dst
    if diagonal.any():
        i = int(np.argmax(diagonal))
        raise ValueError(
            f"pair (src={int(src[i])}, dst={int(dst[i])}) is diagonal and "
            "cannot have relay candidates"
        )


@dataclass(frozen=True, eq=False)
class RelaySet:
    """Compiled per-pair relay candidates in a ragged CSR layout.

    Pair ``(s, d)`` owns the slice
    ``relay_ids[offsets[s * n + d] : offsets[s * n + d + 1]]`` — host
    ids sorted strictly ascending.  The layout is read-only after
    construction and cheap to share: every shard reads the same two
    flat arrays, with no per-pair Python objects.

    Invariants (checked at construction): offsets start at 0, are
    monotone and cover ``relay_ids`` exactly; every candidate is a real
    host distinct from both endpoints; diagonal pairs are empty; the
    set is symmetric (``C(s, d) == C(d, s)``, required by RTT-mode
    reverse-path evaluation).
    """

    n_hosts: int
    spec: RelayPolicySpec
    offsets: np.ndarray  # (n*n + 1,) int64
    relay_ids: np.ndarray  # (nnz,) id_dtype(n_hosts), sorted within pair

    def __post_init__(self) -> None:
        n = self.n_hosts
        if n < 1:
            raise ValueError("n_hosts must be >= 1")
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        relay_ids = np.ascontiguousarray(self.relay_ids, dtype=id_dtype(n))
        if offsets.shape != (n * n + 1,):
            raise ValueError(f"offsets must have shape ({n * n + 1},), got {offsets.shape}")
        if offsets[0] != 0 or offsets[-1] != len(relay_ids):
            raise ValueError("offsets must start at 0 and end at len(relay_ids)")
        counts = np.diff(offsets)
        if (counts < 0).any():
            raise ValueError("offsets must be monotone non-decreasing")
        pair = np.repeat(np.arange(n * n, dtype=np.int64), counts)
        _check_candidates(n, pair, relay_ids.astype(np.int64))
        # global keys pair*n + relay are strictly increasing iff each
        # pair's slice is sorted strictly ascending (no duplicates)
        keys = pair * n + relay_ids.astype(np.int64)
        if len(keys) and not (np.diff(keys) > 0).all():
            raise ValueError("relay_ids must be sorted strictly ascending per pair")
        rev = ((pair % n) * n + pair // n) * n + relay_ids.astype(np.int64)
        if not np.array_equal(np.sort(rev), keys):
            raise ValueError(
                "candidate sets must be symmetric: C(s, d) == C(d, s) "
                "(RTT mode evaluates the reverse relay path)"
            )
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "relay_ids", relay_ids)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_counts", counts)

    # ------------------------------------------------------------------
    # shape and identity
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Total candidate entries (== number of relay paths)."""
        return int(len(self.relay_ids))

    @property
    def counts(self) -> np.ndarray:
        """Per-pair candidate counts, flat ``(n*n,)``."""
        return self._counts

    @property
    def max_k(self) -> int:
        """The widest per-pair candidate list."""
        return int(self._counts.max()) if len(self._counts) else 0

    @property
    def nbytes(self) -> int:
        return int(self.offsets.nbytes + self.relay_ids.nbytes)

    @property
    def is_complete(self) -> bool:
        """True when every off-diagonal pair lists all ``n - 2`` relays.

        Construction rejects out-of-range, endpoint, duplicate and
        diagonal entries, so no pair holds more than ``n - 2``
        candidates and the total count decides completeness.
        """
        n = self.n_hosts
        return self.nnz == n * (n - 1) * max(n - 2, 0)

    def fingerprint(self) -> str:
        """sha256 over the canonical layout (dtype-independent)."""
        h = hashlib.sha256()
        h.update(repr((self.n_hosts, self.spec.canonical())).encode())
        h.update(np.ascontiguousarray(self.offsets, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.relay_ids, dtype=np.int64).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def candidates(self, src: int, dst: int) -> np.ndarray:
        """The sorted candidate relay ids of one pair (a view)."""
        p = int(src) * self.n_hosts + int(dst)
        return self.relay_ids[self.offsets[p] : self.offsets[p + 1]]

    def positions(self, src, relay, dst) -> np.ndarray:
        """Global CSR positions of ``(src, relay, dst)`` candidates.

        Vectorized; raises :class:`ValueError` naming the first triple
        whose relay is not in the pair's candidate set.
        """
        n = self.n_hosts
        src = np.asarray(src, dtype=np.int64)
        relay = np.asarray(relay, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        want = (src * n + dst) * n + relay
        pos = np.searchsorted(self._keys, want)
        found = (pos < len(self._keys)) & (self._keys[np.minimum(pos, len(self._keys) - 1)] == want)
        if not found.all():
            i = int(np.argmax(~found))
            raise ValueError(
                f"relay {int(relay.flat[i] if relay.ndim else relay)} is not a "
                f"candidate for pair (src={int(src.flat[i] if src.ndim else src)}, "
                f"dst={int(dst.flat[i] if dst.ndim else dst)}) under policy "
                f"{self.spec.label!r}"
            )
        return pos

    def contains(self, src, relay, dst) -> np.ndarray:
        """Boolean membership test, vectorized."""
        n = self.n_hosts
        want = (
            np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64)
        ) * n + np.asarray(relay, dtype=np.int64)
        pos = np.searchsorted(self._keys, want)
        in_range = pos < len(self._keys)
        return in_range & (self._keys[np.minimum(pos, len(self._keys) - 1)] == want)

    def padded_block(self, host_lo: int, host_hi: int) -> np.ndarray:
        """Candidate ids for sources ``[host_lo, host_hi)`` as a dense
        ``(width, n, k_pad)`` block, padded with ``-1``.

        ``k_pad`` is the widest candidate list *within the block*
        (floored at 1 so empty blocks still index), which is what lets
        the selector's per-block budget adapt to ragged k instead of
        paying the global worst case.
        """
        n = self.n_hosts
        if not (0 <= host_lo <= host_hi <= n):
            raise ValueError(f"bad host block [{host_lo}, {host_hi}) for n={n}")
        width = host_hi - host_lo
        lo_p, hi_p = host_lo * n, host_hi * n
        counts = self._counts[lo_p:hi_p]
        k_pad = max(int(counts.max()) if len(counts) else 0, 1)
        out = np.full((width * n, k_pad), -1, dtype=self.relay_ids.dtype)
        entries = self.relay_ids[self.offsets[lo_p] : self.offsets[hi_p]]
        if len(entries):
            row = np.repeat(np.arange(width * n, dtype=np.int64), counts)
            starts = self.offsets[lo_p:hi_p] - self.offsets[lo_p]
            col = np.arange(len(entries), dtype=np.int64) - np.repeat(starts, counts)
            out[row, col] = entries
        return out.reshape(width, n, k_pad)


# ----------------------------------------------------------------------
# policy compilers — each returns flat (pair, relay) int64 key arrays
# ----------------------------------------------------------------------


def _src_chunk(n: int) -> int:
    return max(1, _COMPILE_CHUNK_CELLS // max(n * n, 1))


def _keys_all(n: int) -> np.ndarray:
    if n < 3:
        return np.empty(0, dtype=np.int64)
    j = np.arange(n - 2, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    off = src != dst
    a = np.minimum(src[off], dst[off])[:, None]
    b = np.maximum(src[off], dst[off])[:, None]
    relay = j[None, :] + (j[None, :] >= a)
    relay += relay >= b
    pair = (src[off] * n + dst[off])[:, None]
    return (pair * n + relay).ravel()


def _keys_region(spec: RelayPolicySpec, n: int, regions: np.ndarray) -> np.ndarray:
    regions = np.asarray(regions, dtype=np.int64)
    n_regions = int(regions.max()) + 1 if len(regions) else 0
    member = np.zeros((n_regions, n), dtype=bool)
    member[regions, np.arange(n)] = True
    backbone = np.zeros(n, dtype=bool)
    if spec.backbone:
        perm = RngFactory(spec.seed).stream("relaysets", "backbone").permutation(n)
        backbone[perm[: min(spec.backbone, n)]] = True
    keys: list[np.ndarray] = []
    dst = np.arange(n, dtype=np.int64)
    for lo in range(0, n, _src_chunk(n)):
        hi = min(lo + _src_chunk(n), n)
        src = np.arange(lo, hi, dtype=np.int64)
        # (w, n_dst, n_relay) candidate mask for this source block
        mask = member[regions[src]][:, None, :] | member[regions[dst]][None, :, :]
        mask = mask | backbone[None, None, :]
        w = hi - lo
        mask[np.arange(w), :, src] = False  # r == s
        mask[:, dst, dst] = False  # r == d
        mask[np.arange(w), src, :] = False  # diagonal pair s == d
        si, di, ri = np.nonzero(mask)
        keys.append(((src[si] * n + di) * n + ri).astype(np.int64))
    return np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)


def _keys_k_nearest(spec: RelayPolicySpec, n: int, distances: np.ndarray) -> np.ndarray:
    """The k relays minimising static two-leg distance, per pair.

    Fully deterministic: the cut is made on the k-th smallest *value*
    (ties broken by ascending relay id), never on partition order.
    """
    if n < 3:
        return np.empty(0, dtype=np.int64)
    dist = np.asarray(distances, dtype=np.float64)
    kk = min(spec.k, n - 2)
    keys: list[np.ndarray] = []
    dst = np.arange(n)
    for lo in range(0, n, _src_chunk(n)):
        hi = min(lo + _src_chunk(n), n)
        src = np.arange(lo, hi)
        w = hi - lo
        # score[i, r, d] = dist(src_i, r) + dist(r, d)
        score = dist[src][:, :, None] + dist[None, :, :]
        score[np.arange(w), src, :] = np.inf  # r == s
        score[:, dst, dst] = np.inf  # r == d
        kth = np.partition(score, kk - 1, axis=1)[:, kk - 1 : kk, :]
        less = score < kth
        n_less = less.sum(axis=1)
        eq = score == kth
        take = less | (eq & (np.cumsum(eq, axis=1) <= (kk - n_less)[:, None, :]))
        take[np.arange(w), :, src] = False  # diagonal pair s == d
        si, ri, di = np.nonzero(take)
        keys.append(((src[si] * n + di) * n + ri).astype(np.int64))
    return np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Stateless 64-bit mixer (splitmix64 finalizer), vectorized."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _keys_random_k(spec: RelayPolicySpec, n: int) -> np.ndarray:
    """A seeded per-pair sample: k distinct relays for every pair.

    One global seeded permutation plus a per-pair hashed start offset:
    each pair reads a ``k + 2`` circular window of the permutation
    (enough to survive skipping both endpoints) and keeps the first k
    valid entries.  Pure function of ``(seed, n, k)`` — no generator
    state crosses pairs, so the sample is identical in every process.
    """
    if n < 3:
        return np.empty(0, dtype=np.int64)
    kk = min(spec.k, n - 2)
    perm = (
        RngFactory(spec.seed)
        .stream("relaysets", "permutation")
        .permutation(n)
        .astype(np.int64)
    )
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    off = src != dst
    src, dst = src[off], dst[off]
    h = _splitmix64(
        src.astype(np.uint64) * np.uint64(n) + dst.astype(np.uint64)
        + (np.uint64(spec.seed & 0xFFFFFFFFFFFFFFFF) << np.uint64(1))
    )
    start = (h % np.uint64(n)).astype(np.int64)
    window = (start[:, None] + np.arange(kk + 2, dtype=np.int64)[None, :]) % n
    cand = perm[window]
    valid = (cand != src[:, None]) & (cand != dst[:, None])
    keep = valid & (np.cumsum(valid, axis=1) <= kk)
    # every pair keeps exactly kk entries; sort each pair's sample
    relay = np.sort(cand[keep].reshape(-1, kk), axis=1)
    pair = (src * n + dst)[:, None]
    return (pair * n + relay).ravel()


def compile_relay_set(
    spec: RelayPolicySpec,
    n_hosts: int,
    *,
    regions: np.ndarray | None = None,
    distances: np.ndarray | None = None,
) -> RelaySet:
    """Compile a policy into a :class:`RelaySet` for one topology.

    ``regions`` (per-host region codes) feeds the ``region`` policy;
    ``distances`` (the static ``(n, n)`` direct-path propagation matrix)
    feeds ``k_nearest``.  The result is symmetrized — each pair's set is
    the union of the policy's forward and reverse choices — and fully
    validated (see :class:`RelaySet`).
    """
    n = int(n_hosts)
    if spec.policy == "all":
        keys = _keys_all(n)
    elif spec.policy == "region":
        if regions is None:
            raise ValueError("the 'region' policy needs per-host regions")
        keys = _keys_region(spec, n, regions)
    elif spec.policy == "k_nearest":
        if distances is None:
            raise ValueError("the 'k_nearest' policy needs a distance matrix")
        keys = _keys_k_nearest(spec, n, distances)
    else:  # random_k
        keys = _keys_random_k(spec, n)

    # symmetrize: key (s*n + d)*n + r  <->  (d*n + s)*n + r.  One sort
    # of both halves and a dedupe give their sorted unique union (NumPy's
    # hash-based unique made the n = 100 "all" compile 8x slower)
    pair, relay = keys // n, keys % n
    rev = ((pair % n) * n + pair // n) * n + relay
    keys = np.sort(np.concatenate((keys, rev)))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0

    pair = keys // n
    counts = np.bincount(pair, minlength=n * n)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    rs = RelaySet(
        n_hosts=n,
        spec=spec,
        offsets=offsets,
        relay_ids=(keys % n).astype(id_dtype(n)),
    )

    from repro import telemetry

    rec = telemetry.get_recorder()
    if rec.enabled:
        rec.counter_add("relayset.candidates", rs.nnz)
    return rs
