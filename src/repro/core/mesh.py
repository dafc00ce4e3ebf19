"""Redundant multi-path (mesh) routing helpers (Section 3.2).

Mesh routing duplicates each packet: "the first packet is sent directly
over the Internet, and the second is sent through a randomly chosen
intermediate node."  :func:`random_candidate_relays` picks the random
intermediates from each pair's relay candidates, vectorised, with the
constraints the scheme implies (the relay differs from both endpoints;
two-relay methods use two *different* relays).
"""

from __future__ import annotations

import numpy as np

__all__ = ["random_candidate_relays"]


def random_candidate_relays(
    rng: np.random.Generator,
    relay_set,
    src: np.ndarray,
    dst: np.ndarray,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Uniformly random relay per row, drawn from the pair's candidate set.

    Each row's relay is drawn uniformly over
    ``relay_set.candidates(src, dst)`` (minus ``exclude``),
    rejection-free: one index draw per row, shifted past the excluded
    candidate's position.  Candidates are sorted by host id, so on a
    complete set (policy ``all``) this is the order-statistics draw over
    all hosts: ``integers(0, n - 2)`` shifted past the sorted endpoints
    (and ``exclude``), the same values and generator state.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same shape")
    if np.any(src == dst):
        raise ValueError("src and dst must differ")
    n = relay_set.n_hosts
    pair = src * n + dst
    off = relay_set.offsets[pair]
    cnt = relay_set.counts[pair]

    if exclude is None:
        need = 1
        has_ex = np.zeros(src.shape, dtype=bool)
        pos_ex = np.zeros(src.shape, dtype=np.int64)
    else:
        ex = np.asarray(exclude, dtype=np.int64)
        if np.any((ex == src) | (ex == dst)):
            raise ValueError("exclude must differ from src and dst")
        need = 2
        has_ex = np.ones(src.shape, dtype=bool)
        pos_ex = relay_set.positions(src, ex, dst) - off
    short = cnt < need
    if short.any():
        i = int(np.argmax(short))
        raise ValueError(
            f"pair (src={int(src.flat[i])}, dst={int(dst.flat[i])}) has only "
            f"{int(cnt.flat[i])} relay candidate(s) under policy "
            f"{relay_set.spec.policy!r}; random relay selection needs {need}"
        )

    k = rng.integers(0, cnt - has_ex, size=src.shape)
    k = k + (has_ex & (k >= pos_ex))
    return relay_set.relay_ids[off + k].astype(np.int64)
