"""The lazy substrate: the eager layout, generated on first use.

A 100-host mesh has ~10k segments, each with three stochastic
timelines, and most of them are quiet.  Both banks hold the layout of
:class:`~repro.netsim.state.TimelineBank`: a per-segment flag plus the
busy segments' shifted boundaries and severities, searched in one
``np.searchsorted``.  They differ only in when segments are generated:

* the eager bank (:func:`repro.netsim.state.build_state`) generates
  every segment up front, in one batch per cause;
* :class:`LazyTimelineBank` keeps one state per segment (not generated,
  quiet or busy).  A query generates its not-yet-generated segments in
  one batch, then answers through the same busy-only search.  With
  ``max_cached`` set, at most that many generated segments per cause
  stay resident and the least recently used is evicted first.

Because every timeline comes from its own named RNG substream
(:class:`~repro.netsim.state.SegmentTimelineRecipe`), generation order
and batching — and eviction followed by regeneration — cannot change a
single drawn value, so both banks answer every query bitwise
identically.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.telemetry import clock

from .state import (
    SENTINEL,
    SegmentTimelineRecipe,
    TimelineBank,
    busy_flags,
    busy_lookup,
    shifted_busy,
)

__all__ = ["LazyTimelineBank"]

#: per-segment states of a lazy bank
ABSENT, QUIET, BUSY = 0, 1, 2


class _Resident(NamedTuple):
    """An immutable snapshot of a lazy bank's generated segments.

    Queries read one snapshot throughout, so a concurrent insert or
    eviction (which publishes a new snapshot) never mixes states.
    """

    state: np.ndarray  # (n_segments,) int8: ABSENT, QUIET or BUSY
    bounds: np.ndarray  # the sentinel, then busy segments' shifted boundaries
    sev: np.ndarray
    owner: np.ndarray  # segment id of each entry (-1: the sentinel)

    @staticmethod
    def empty(n_segments: int) -> "_Resident":
        return _Resident(
            np.zeros(n_segments, dtype=np.int8),
            np.array([SENTINEL]),
            np.zeros(1),
            np.array([-1], dtype=np.int64),
        )

    def add(self, sids, offsets, boundaries, severity, shift: float) -> "_Resident":
        """This snapshot plus freshly generated segments ``sids``."""
        busy = busy_flags(offsets, severity)
        state = self.state.copy()
        state[sids] = np.where(busy, BUSY, QUIET)
        bounds, sev, owner = shifted_busy(sids, offsets, boundaries, severity, busy, shift)
        # new segments never interleave with resident ones: a merge by
        # insertion keeps the shifted boundaries sorted
        at = np.searchsorted(self.bounds, bounds)
        return _Resident(
            state,
            np.insert(self.bounds, at, bounds),
            np.insert(self.sev, at, sev),
            np.insert(self.owner, at, owner),
        )

    def drop(self, sids: np.ndarray) -> "_Resident":
        """This snapshot without segments ``sids``."""
        state = self.state.copy()
        state[sids] = ABSENT
        keep = ~np.isin(self.owner, sids)
        return _Resident(state, self.bounds[keep], self.sev[keep], self.owner[keep])


class LazyTimelineBank:
    """Drop-in for :class:`~repro.netsim.state.TimelineBank` that
    generates segments on first use.

    Queries use the same shifted-boundary arithmetic as the eager bank
    (``t + sid * shift`` against busy boundaries ``+ sid * shift``) over
    the resident segments, so results match the eager bank bit for bit.
    Generation runs under the bank's lock, so concurrent shard threads
    generate each segment once; a query that finds its segments
    resident takes no lock unless the bank has a ``max_cached`` budget.
    """

    def __init__(
        self,
        recipe: SegmentTimelineRecipe,
        kind: str,
        max_cached: int | None = None,
    ) -> None:
        if max_cached is not None and max_cached < 1:
            raise ValueError("max_cached must be None (unbounded) or >= 1")
        self.recipe = recipe
        self.kind = kind
        self.horizon = recipe.horizon
        self.shift = self.horizon * 2.0 + 1.0
        self.corr_length = recipe.corr_lengths(kind)
        self.n_segments = len(recipe.topology.registry)
        self.max_cached = max_cached
        self._resident = _Resident.empty(self.n_segments)
        self._lock = threading.Lock()
        self._generated = 0
        #: LRU clock: the query count at each segment's last use
        self._tick = 0
        self._last_used = None if max_cached is None else np.zeros(self.n_segments, np.int64)
        self._mean_severity: np.ndarray | None = None

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------

    @property
    def cached_segments(self) -> int:
        return int(np.count_nonzero(self._resident.state))

    @property
    def generated_segments(self) -> int:
        """Lifetime generation count (> n_segments means LRU churn)."""
        return self._generated

    def _distinct(self, sids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """The ascending distinct ids of ``sids`` where ``mask`` holds."""
        seen = np.zeros(self.n_segments + 1, dtype=bool)
        seen[np.where(mask, sids, -1)] = True  # -1 marks the spare last slot
        return np.flatnonzero(seen[:-1])

    def _load(self, sids: np.ndarray) -> _Resident:
        """Make segments ``sids`` resident and return a snapshot that
        holds all of them (evictions publish a newer one).

        The state of each segment is re-checked under the lock, so a
        segment another thread generated meanwhile is neither generated
        nor counted twice.
        """
        rec = telemetry.get_recorder()
        generate_ns = evicted = 0
        with self._lock:
            view = self._resident
            missing = sids[view.state[sids] == ABSENT]
            if missing.size:
                t0 = clock.monotonic_ns()
                csr = self.recipe.generate(self.kind, missing)
                generate_ns = clock.monotonic_ns() - t0
                view = view.add(missing, *csr, self.shift)
                self._generated += missing.size
            resident = view
            if self.max_cached is not None:
                self._tick += 1
                self._last_used[sids] = self._tick
                held = np.flatnonzero(view.state)
                evicted = max(held.size - self.max_cached, 0)
                if evicted:
                    order = np.argsort(self._last_used[held], kind="stable")
                    resident = view.drop(held[order[:evicted]])
            self._resident = resident
        if rec.enabled:
            rec.counter_add("substrate.lru_hits", sids.size - missing.size)
            rec.counter_add("substrate.lru_misses", missing.size)
            rec.counter_add("substrate.lru_evictions", evicted)
            rec.counter_add("substrate.generate_ns", generate_ns)
        return view

    # ------------------------------------------------------------------
    # queries (TimelineBank-compatible)
    # ------------------------------------------------------------------

    def severity_at(self, sids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Severity of segment ``sids[i]`` at ``times[i]`` (vectorised).

        ``sids`` may contain NO_SEGMENT (-1) padding; those entries and
        out-of-horizon times return 0.
        """
        sids = np.asarray(sids)
        t = np.asarray(times, dtype=np.float64)
        ok = (sids >= 0) & (t >= 0.0) & (t < self.horizon)
        safe_sid = np.where(ok, sids, 0)
        view = self._resident
        state = view.state[safe_sid]
        if self.max_cached is not None:
            # every query refreshes its segments' recency
            view = self._load(self._distinct(safe_sid, ok))
            state = view.state[safe_sid]
        else:
            missing = ok & (state == ABSENT)
            if missing.any():
                view = self._load(self._distinct(safe_sid, missing))
                state = view.state[safe_sid]
        ok &= state == BUSY
        return busy_lookup(view.bounds, view.sev, ok, safe_sid, t, self.horizon, self.shift)

    @property
    def mean_severity(self) -> np.ndarray:
        """Per-segment time-average severity (generates every segment —
        a diagnostics accessor, not a hot path)."""
        if self._mean_severity is None:
            self._mean_severity = self.materialize().mean_severity
        return self._mean_severity

    def materialize(self) -> TimelineBank:
        """The equivalent eager bank (generates every segment; leaves
        this bank's residency alone)."""
        csr = self.recipe.generate(self.kind, np.arange(self.n_segments))
        return TimelineBank.from_csr(*csr, self.horizon, self.corr_length)

