"""Deterministic named random streams.

Every stochastic component of the simulator draws from its own named
substream derived from a single master seed.  This keeps experiments
reproducible (same seed, same trace) while guaranteeing that adding a new
consumer of randomness does not perturb the draws seen by existing ones —
the property that makes ablation benchmarks comparable run-to-run.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RngFactory", "seeded_rng"]

# -- NumPy's stream construction, replayed in array arithmetic ---------------
# The constants of ``SeedSequence`` (numpy/random/bit_generator.pyx) and of
# PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).

_M32 = 0xFFFFFFFF


def _running_constants(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's running hash constant before each of ``n`` hash
    calls and after the last: ``init * mult**i mod 2**32`` as a column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


#: the entropy hash's constants: 4 pool words, 12 all-pairs mixes and 2
#: late entropy words × 4 pool words (six entropy words in all)
_HASH_A = _running_constants(0x43B0D7E5, 0x931E8875, 4 + 12 + 8)
#: the state hash's constants: ``generate_state(4, np.uint64)`` is 8 words
_HASH_B = _running_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: PCG64's multiplier as (high, low) 64-bit words, and the low word's
#: 32-bit limbs
_PCG_HI, _PCG_LO = 2549297995355413924, 4865540595714422341
_PCG_LO0, _PCG_LO1 = _PCG_LO & _M32, _PCG_LO >> 32


def _hashmix(value: np.ndarray, k: int, n: int, consts: np.ndarray) -> np.ndarray:
    """``n`` successive hash calls (calls ``k`` to ``k + n - 1``), each
    on one row of ``value`` (broadcast): xor the running constant,
    advance it, multiply by the new one, fold the high half down."""
    out = value ^ consts[k : k + n]
    out *= consts[k + 1 : k + n + 1]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    out ^= out >> 16
    return out


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each column
    ``e`` of a (6, n) uint32 entropy array: (4, n) uint64."""
    pool = _hashmix(entropy[:4], 0, 4, _HASH_A)
    k = 4
    for src in range(4):
        # a source word is not its own destination, so the three
        # destinations' mixes are independent of each other
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], k, 3, _HASH_A))
        k += 3
    for src in range(4, entropy.shape[0]):
        pool = _mix(pool, _hashmix(entropy[src], k, 4, _HASH_A))
        k += 4
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 0, 8, _HASH_B).astype(np.uint64)
    return words[0::2] | (words[1::2] << 32)  # little-endian word pairs


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, ``state * multiplier + inc`` mod 2**128, on (high,
    low) uint64 words; the high word of ``lo * _PCG_LO`` in 32-bit limbs."""
    a0, a1 = lo & _M32, lo >> 32
    p01, p10 = a0 * _PCG_LO1, a1 * _PCG_LO0
    mid = ((a0 * _PCG_LO0) >> 32) + (p01 & _M32) + (p10 & _M32)
    prod_hi = a1 * _PCG_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_hi = prod_hi + lo * _PCG_HI + hi * _PCG_LO + inc_hi
    new_lo = lo * _PCG_LO
    new_lo += inc_lo
    return new_hi + (new_lo < inc_lo), new_lo  # carry out of the low word


def _pcg64_doubles(val: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` ``random()`` doubles of ``PCG64`` seeded with
    each column of a (4, n) ``generate_state`` array: (n, m)."""
    # pcg_setseq_128_srandom_r: state 0, inc = (initseq << 1) | 1, step,
    # add initstate, step; initstate = val[0:2], initseq = val[2:4]
    inc_hi = (val[2] << 1) | (val[3] >> 63)
    inc_lo = (val[3] << 1) | 1
    lo = inc_lo + val[1]
    hi = inc_hi + val[0] + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((val.shape[1], m))
    for j in range(m):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58  # XSL-RR output: rotr64(hi ^ lo, hi >> 58)
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, j] = x >> 11
    return out * (1.0 / 9007199254740992.0)  # next_double: (x >> 11) * 2**-53


def seeded_rng(seed: int) -> np.random.Generator:
    """The audited construction site for parameter-derived generators.

    Frozen parameter objects (topology families, pathologies) own a
    ``seed`` field and need a generator that is a pure function of it.
    All such construction is routed through this helper so repro-lint's
    DET002 can forbid ad-hoc ``np.random.default_rng(...)`` everywhere
    else; simulation state should prefer named :class:`RngFactory`
    substreams, which stay stable when new consumers are added.
    """
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    return np.random.default_rng(seed)  # repro-lint: disable=DET002 -- the audited construction site DET002 points everyone at


class RngFactory:
    """Factory of independent, reproducible ``numpy.random.Generator`` streams.

    >>> rngs = RngFactory(seed=7)
    >>> a = rngs.stream("congestion", "seg-12")
    >>> b = rngs.stream("congestion", "seg-13")
    >>> a.random() != b.random()
    True

    Streams are identified by a path of names.  The same path always yields
    a generator with the same state, independent of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        #: the seed's low and high 32-bit words, little-endian: the first
        #: two entropy words of every stream
        self._seed_bytes = b"".join(
            ((seed >> shift) & 0xFFFFFFFF).to_bytes(4, "little") for shift in (0, 32)
        )

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, *names: str) -> np.random.Generator:
        """Return a fresh generator for the given name path."""
        if not names:
            raise ValueError("at least one stream name is required")
        # entropy words: seed low, seed high, then the first four
        # little-endian words of the name path's sha256.  A uint32 array
        # gives SeedSequence the same words as the equivalent int list
        # (each int below 2**32 is one word), at a third less cost.
        digest = hashlib.sha256("/".join(map(str, names)).encode("utf-8")).digest()
        entropy = np.frombuffer(self._seed_bytes + digest[:16], dtype="<u4")
        return np.random.default_rng(np.random.SeedSequence(entropy))  # repro-lint: disable=DET002 -- the named-substream factory DET002 exists to protect

    def first_draws(self, prefix: Sequence[str], names: Iterable[str], m: int) -> np.ndarray:
        """The first ``m`` ``random()`` values of many streams at once.

        Row ``i`` is bitwise ``self.stream(*prefix, names[i]).random(m)``,
        but no ``Generator`` is built.  Each name path is hashed as
        :meth:`stream` hashes it; ``SeedSequence``'s entropy mixing (pool
        size 4), ``PCG64``'s seeding and its first ``m`` doubles then run
        as uint32 and uint64 array arithmetic over all the streams at
        once, with the 128-bit LCG state held as (high, low) 64-bit
        words.  Temporaries scale with the number of streams, so pass
        very many in blocks.
        """
        head = "".join(f"{p}/" for p in prefix)
        digests = b"".join(
            hashlib.sha256(f"{head}{name}".encode("utf-8")).digest()[:16] for name in names
        )
        words = np.frombuffer(digests, dtype="<u4").reshape(-1, 4).T
        entropy = np.empty((6, words.shape[1]), dtype=np.uint32)
        entropy[:2] = np.frombuffer(self._seed_bytes, dtype="<u4")[:, None]
        entropy[2:] = words
        return _pcg64_doubles(_seed_state(entropy), m)

    def child(self, *names: str) -> "RngFactory":
        """Derive a factory whose streams are namespaced under ``names``.

        Useful when a subsystem wants to hand out sub-streams without
        knowing the global naming scheme.
        """
        digest = hashlib.sha256(
            ("child:" + "/".join(str(n) for n in names) + f":{self._seed}").encode()
        ).digest()
        return RngFactory(int.from_bytes(digest[:8], "little"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self._seed})"
