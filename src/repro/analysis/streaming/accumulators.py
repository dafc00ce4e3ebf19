"""Mergeable one-pass accumulators: the single implementation behind
``repro.analysis``.

Every Table 5/6/7 and Figure 2-6 reduction is a fold over probe rows,
so each gets an accumulator with the contract

* ``update(trace)`` — fold a partial trace (a spill shard, or the whole
  run) into the state, in place;
* ``merge(other)``  — combine two partial states into a new one;
* ``finalize(...)`` — produce exactly the object the eager function
  returns (:class:`~repro.analysis.lossstats.MethodStats`,
  :class:`~repro.analysis.windows.WindowLossRates`,
  :class:`~repro.analysis.latency_analysis.PathLatencies`, raw percent
  arrays for the CDFs).

The eager functions themselves are thin wrappers — construct, one
``update``, ``finalize`` — so streaming-vs-batch equality is equality
by construction, and the test suite only has to pin the algebra.

Exactness
---------
All tallies are ``int64`` counters, exact under *any* partition of the
rows.  Delivered-latency state is per-ordered-pair ``float64`` bincount
sums with ``update`` folding rows in canonical (ascending ``probe_id``)
order; the engine shards rows by *source host*, so every ordered pair
lives entirely inside one shard and ``merge`` adds a partial sum to
0.0 — bitwise identical to one ``update`` over the merged trace.  Under
partitions that split a pair across parts (not something the engine
produces) the counters stay exact and only the last ~1 ulp of the
latency means may differ.
"""

from __future__ import annotations

import numpy as np

from repro.trace.records import Trace, TraceMeta, probe_order

__all__ = [
    "Accumulator",
    "MethodStatsAccumulator",
    "PathClpAccumulator",
    "WindowLossAccumulator",
    "HourlyLossAccumulator",
    "PathLossAccumulator",
    "DIRECT_FIRST",
    "STARRED_SOURCES",
    "table_row",
    "table_row_names",
]

#: methods whose first packet rides the direct path (used to infer the
#: paper's ``direct*`` row).
DIRECT_FIRST = ("direct_rand", "direct_direct", "dd_10ms", "dd_20ms")

#: the paper's starred Table 5/7 rows: a row not probed itself is
#: inferred from the first packets of whichever of its sources a run
#: probed.
STARRED_SOURCES = {"direct": DIRECT_FIRST, "lat": ("lat_loss",)}


def _canonical(trace: Trace) -> Trace:
    """``trace`` with rows in canonical (ascending probe-id) order.

    Already-canonical traces (every merge path sorts) are returned
    as-is; anything else is sorted so per-pair float folds happen in a
    shard-invariant order.
    """
    pid = trace.probe_id
    if len(pid) > 1 and not bool(np.all(pid[1:] >= pid[:-1])):
        return trace.select(probe_order(pid))
    return trace


def _method_id(meta: TraceMeta, name: str) -> int:
    try:
        return meta.method_names.index(name)
    except ValueError:
        raise KeyError(
            f"trace has no method {name!r}; methods: {meta.method_names}"
        ) from None


def _is_pair(name: str) -> bool:
    from repro.core.methods import METHODS  # analysis <-> core layering

    return METHODS[name].is_pair


class Accumulator:
    """Base class carrying the run meta and the merge/update checks."""

    meta: TraceMeta

    def _config(self) -> tuple:
        """Identity of this accumulator's parameters; merge requires equality."""
        return ()

    def _check_trace(self, trace: Trace) -> None:
        if trace.meta != self.meta:
            raise ValueError(
                f"accumulator is bound to run {self.meta.dataset!r} seed "
                f"{self.meta.seed}; cannot fold a trace from "
                f"{trace.meta.dataset!r} seed {trace.meta.seed}"
            )

    def _check_other(self, other: "Accumulator") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if other.meta != self.meta or other._config() != self._config():
            raise ValueError(
                f"cannot merge {type(self).__name__} states from different "
                f"runs or parameterisations"
            )

    def update(self, trace: Trace) -> "Accumulator":
        raise NotImplementedError

    def copy(self) -> "Accumulator":
        raise NotImplementedError

    def _iadd(self, other: "Accumulator") -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> "Accumulator":
        """A new accumulator holding the combined state (pure)."""
        self._check_other(other)
        out = self.copy()
        out._iadd(other)
        return out


class MethodStatsAccumulator(Accumulator):
    """Loss counters + per-path delivered-latency sums for one table row.

    Covers probed rows (``sources=(name,)``) and the paper's starred
    inferred rows — the first packets of one or more two-packet methods
    (``first_packet=True``), which the single-packet fold then treats
    like a plain method.  Finalizes to a
    :class:`~repro.analysis.lossstats.MethodStats` row
    (:meth:`finalize`) or the per-path mean-latency matrix
    (:meth:`finalize_paths`).
    """

    def __init__(
        self,
        meta: TraceMeta,
        name: str,
        *,
        sources: tuple[str, ...] | None = None,
        first_packet: bool = False,
        inferred: bool = False,
    ) -> None:
        self.meta = meta
        self.name = name
        self.inferred = inferred
        self.first_packet = first_packet
        if sources is None:
            sources = (name,)
        self.sources = tuple(sources)
        if first_packet:
            ids = [
                meta.method_names.index(s)
                for s in self.sources
                if s in meta.method_names
            ]
            if not ids:
                raise KeyError(f"no source methods for inferred row {name!r}")
            self.pair = False
        else:
            if len(self.sources) != 1:
                raise ValueError("multi-source rows must use first_packet=True")
            ids = [_method_id(meta, self.sources[0])]
            self.pair = _is_pair(self.sources[0])
        self._ids = np.array(sorted(ids))
        n = len(meta.host_names)
        self._n_hosts = n
        self.n = 0
        self.n_lost1 = 0
        self.n_lost2 = 0
        self.n_both = 0
        self.lat_count = np.zeros(n * n, dtype=np.int64)
        self.lat_sum = np.zeros(n * n, dtype=np.float64)

    def _config(self) -> tuple:
        return (self.name, self.sources, self.first_packet, self.inferred)

    def update(self, trace: Trace) -> "MethodStatsAccumulator":
        self._check_trace(trace)
        t = _canonical(trace)
        mask = np.isin(t.method_id, self._ids)
        lost1 = t.lost1[mask]
        self.n += int(lost1.size)
        self.n_lost1 += int(lost1.sum())
        if self.pair:
            lost2 = t.lost2[mask]
            self.n_lost2 += int(lost2.sum())
            self.n_both += int((lost1 & lost2).sum())
            l1 = np.where(lost1, np.inf, np.nan_to_num(t.latency1[mask], nan=np.inf))
            l2 = np.where(lost2, np.inf, np.nan_to_num(t.latency2[mask], nan=np.inf))
            lat = np.minimum(l1, l2)
        else:
            lat = np.where(lost1, np.inf, np.nan_to_num(t.latency1[mask], nan=np.inf))
        ok = np.isfinite(lat)
        pair_key = t.src[mask].astype(np.int64) * self._n_hosts + t.dst[mask]
        size = self._n_hosts * self._n_hosts
        self.lat_count += np.bincount(pair_key[ok], minlength=size)
        self.lat_sum += np.bincount(pair_key[ok], weights=lat[ok], minlength=size)
        return self

    def copy(self) -> "MethodStatsAccumulator":
        out = MethodStatsAccumulator(
            self.meta,
            self.name,
            sources=self.sources,
            first_packet=self.first_packet,
            inferred=self.inferred,
        )
        out.n, out.n_lost1 = self.n, self.n_lost1
        out.n_lost2, out.n_both = self.n_lost2, self.n_both
        out.lat_count = self.lat_count.copy()
        out.lat_sum = self.lat_sum.copy()
        return out

    def _iadd(self, other: "MethodStatsAccumulator") -> None:
        self.n += other.n
        self.n_lost1 += other.n_lost1
        self.n_lost2 += other.n_lost2
        self.n_both += other.n_both
        self.lat_count += other.lat_count
        self.lat_sum += other.lat_sum

    def _latency_ms(self) -> float:
        delivered = int(self.lat_count.sum())
        if delivered == 0:
            return float("nan")
        return float(self.lat_sum.sum() / delivered) * 1e3

    def finalize(self):
        """The Table 5/7 row for the folded rows.

        Zero probes gives a defined all-NaN row (``n_probes=0``) rather
        than a divide-by-zero — the empty-selection contract.
        """
        from repro.analysis.lossstats import MethodStats  # wrapper <-> impl cycle

        if self.n == 0:
            return MethodStats(
                self.name, 0, float("nan"), None, float("nan"), None,
                float("nan"), self.inferred,
            )
        lp1 = 100.0 * (self.n_lost1 / self.n)
        if not self.pair:
            return MethodStats(
                self.name, self.n, lp1, None, lp1, None,
                self._latency_ms(), self.inferred,
            )
        lp2 = 100.0 * (self.n_lost2 / self.n)
        totlp = 100.0 * (self.n_both / self.n)
        clp = 100.0 * self.n_both / self.n_lost1 if self.n_lost1 else None
        return MethodStats(
            self.name, self.n, lp1, lp2, totlp, clp,
            self._latency_ms(), self.inferred,
        )

    def finalize_paths(self):
        """Per-ordered-pair mean delivered latency (Figure 5 input)."""
        from repro.analysis.latency_analysis import PathLatencies

        n = self._n_hosts
        with np.errstate(invalid="ignore"):
            mean = np.where(
                self.lat_count > 0, self.lat_sum / np.maximum(self.lat_count, 1), np.nan
            )
        return PathLatencies(method=self.name, mean_latency=mean.reshape(n, n))


def table_row(meta: TraceMeta, name: str) -> MethodStatsAccumulator:
    """The accumulator of Table 5/7 row ``name`` for a run.

    A probed method is its own row; a starred row not probed is
    inferred from the first packets of its probed sources
    (:data:`STARRED_SOURCES`).  Any other name raises ``KeyError``.
    """
    if name in meta.method_names:
        return MethodStatsAccumulator(meta, name)
    sources = tuple(s for s in STARRED_SOURCES.get(name, ()) if s in meta.method_names)
    if not sources:
        raise KeyError(f"method {name!r} neither probed nor inferrable")
    return MethodStatsAccumulator(meta, name, sources=sources, first_packet=True, inferred=True)


def table_row_names(meta: TraceMeta) -> list[str]:
    """The standard Table 5/7 rows of a run: the starred rows it can
    infer but did not probe, then every probed method."""
    probed = meta.method_names
    starred = [
        name
        for name, sources in STARRED_SOURCES.items()
        if name not in probed and any(s in probed for s in sources)
    ]
    return starred + list(probed)


class PathClpAccumulator(Accumulator):
    """Per-path first-loss / both-lost tallies for one two-packet method
    (Figure 4's conditional loss probabilities)."""

    def __init__(self, meta: TraceMeta, name: str) -> None:
        if not _is_pair(name):
            raise ValueError(f"{name} is not a two-packet method")
        self.meta = meta
        self.name = name
        self._mid = _method_id(meta, name)
        n = len(meta.host_names)
        self._n_hosts = n
        self.first = np.zeros(n * n, dtype=np.int64)
        self.both = np.zeros(n * n, dtype=np.int64)

    def _config(self) -> tuple:
        return (self.name,)

    def update(self, trace: Trace) -> "PathClpAccumulator":
        self._check_trace(trace)
        mask = trace.method_id == self._mid
        n = self._n_hosts
        pair_key = trace.src[mask].astype(np.int64) * n + trace.dst[mask]
        lost1 = trace.lost1[mask]
        lost2 = trace.lost2[mask]
        self.first += np.bincount(pair_key[lost1], minlength=n * n)
        self.both += np.bincount(pair_key[lost1 & lost2], minlength=n * n)
        return self

    def copy(self) -> "PathClpAccumulator":
        out = PathClpAccumulator(self.meta, self.name)
        out.first = self.first.copy()
        out.both = self.both.copy()
        return out

    def _iadd(self, other: "PathClpAccumulator") -> None:
        self.first += other.first
        self.both += other.both

    def finalize(self, min_first_losses: int = 1) -> np.ndarray:
        """CLP percent per ordered path with enough first-packet losses."""
        if min_first_losses < 1:
            raise ValueError(
                f"min_first_losses must be >= 1 (paths with zero first-packet "
                f"losses would divide 0/0), got {min_first_losses}"
            )
        ok = self.first >= min_first_losses
        return 100.0 * self.both[ok] / self.first[ok]


class WindowLossAccumulator(Accumulator):
    """Per-(path, window) probe/loss tallies for one method at one
    window size (Figure 3's samples, Table 6's path-hours)."""

    def __init__(self, meta: TraceMeta, name: str, window_s: float = 1200.0) -> None:
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.meta = meta
        self.name = name
        self.window_s = float(window_s)
        self._mid = _method_id(meta, name)
        self.pair = _is_pair(name)
        n = len(meta.host_names)
        self._n_hosts = n
        self.n_windows = max(int(np.ceil(meta.horizon_s / window_s)), 1)
        size = n * n * self.n_windows
        self.total = np.zeros(size, dtype=np.int64)
        self.bad = np.zeros(size, dtype=np.int64)

    def _config(self) -> tuple:
        return (self.name, self.window_s)

    def update(self, trace: Trace) -> "WindowLossAccumulator":
        self._check_trace(trace)
        mask = trace.method_id == self._mid
        if self.pair:
            lost = trace.lost1[mask] & trace.lost2[mask]
        else:
            lost = trace.lost1[mask]
        n = self._n_hosts
        win = np.minimum(
            (trace.t_send[mask] // self.window_s).astype(np.int64), self.n_windows - 1
        )
        pair_key = trace.src[mask].astype(np.int64) * n + trace.dst[mask]
        cell = pair_key * self.n_windows + win
        size = n * n * self.n_windows
        self.total += np.bincount(cell, minlength=size)
        self.bad += np.bincount(cell[lost], minlength=size)
        return self

    def copy(self) -> "WindowLossAccumulator":
        out = WindowLossAccumulator(self.meta, self.name, self.window_s)
        out.total = self.total.copy()
        out.bad = self.bad.copy()
        return out

    def _iadd(self, other: "WindowLossAccumulator") -> None:
        self.total += other.total
        self.bad += other.bad

    def finalize(self, min_samples: int = 5):
        """Loss rates of the cells with at least ``min_samples`` probes.

        No qualifying cell gives empty ``rates``/``samples`` arrays (and
        an empty Figure 3 CDF downstream), not a 0/0.
        """
        from repro.analysis.windows import WindowLossRates

        if min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1 (cells with zero probes would "
                f"divide 0/0), got {min_samples}"
            )
        ok = self.total >= min_samples
        rates = self.bad[ok] / self.total[ok]
        return WindowLossRates(
            method=self.name,
            window_s=self.window_s,
            n_windows=self.n_windows,
            rates=rates,
            samples=self.total[ok],
        )


class HourlyLossAccumulator(Accumulator):
    """Testbed-wide per-hour probe/loss tallies (Section 4.2's worst
    one-hour period).  ``name="direct"`` falls back to the first packets
    of direct-first pair methods, mirroring Table 5's inference."""

    def __init__(self, meta: TraceMeta, name: str = "direct") -> None:
        self.meta = meta
        self.name = name
        if name in meta.method_names:
            self._ids = np.array([meta.method_names.index(name)])
            self.pair = _is_pair(name)
        elif name == "direct":
            ids = [
                meta.method_names.index(s)
                for s in DIRECT_FIRST
                if s in meta.method_names
            ]
            if not ids:
                raise KeyError("trace has no direct or direct-first method")
            self._ids = np.array(sorted(ids))
            self.pair = False
        else:
            raise KeyError(f"method {name!r} not in trace")
        self.n_hours = max(int(np.ceil(meta.horizon_s / 3600.0)), 1)
        self.total = np.zeros(self.n_hours, dtype=np.int64)
        self.bad = np.zeros(self.n_hours, dtype=np.int64)

    def _config(self) -> tuple:
        return (self.name,)

    def update(self, trace: Trace) -> "HourlyLossAccumulator":
        self._check_trace(trace)
        mask = np.isin(trace.method_id, self._ids)
        if self.pair:
            lost = trace.lost1[mask] & trace.lost2[mask]
        else:
            lost = trace.lost1[mask]
        hour = np.minimum(
            (trace.t_send[mask] // 3600.0).astype(np.int64), self.n_hours - 1
        )
        self.total += np.bincount(hour, minlength=self.n_hours)
        self.bad += np.bincount(hour[lost], minlength=self.n_hours)
        return self

    def copy(self) -> "HourlyLossAccumulator":
        out = HourlyLossAccumulator(self.meta, self.name)
        out.total = self.total.copy()
        out.bad = self.bad.copy()
        return out

    def _iadd(self, other: "HourlyLossAccumulator") -> None:
        self.total += other.total
        self.bad += other.bad

    def finalize(self) -> np.ndarray:
        """Mean loss fraction per hour; NaN for hours with no probes."""
        with np.errstate(invalid="ignore"):
            return np.where(self.total > 0, self.bad / np.maximum(self.total, 1), np.nan)


class PathLossAccumulator(Accumulator):
    """Per-path direct-packet probe/loss tallies (Figure 2's long-term
    loss rates), from single ``direct`` probes when probed, otherwise
    the first packets of direct-first pair methods."""

    def __init__(self, meta: TraceMeta) -> None:
        self.meta = meta
        if "direct" in meta.method_names:
            ids = [meta.method_names.index("direct")]
        else:
            ids = [
                meta.method_names.index(s)
                for s in DIRECT_FIRST
                if s in meta.method_names
            ]
            if not ids:
                raise KeyError("trace has no direct-path observations")
        self._ids = np.array(sorted(ids))
        n = len(meta.host_names)
        self._n_hosts = n
        self.total = np.zeros(n * n, dtype=np.int64)
        self.bad = np.zeros(n * n, dtype=np.int64)

    def update(self, trace: Trace) -> "PathLossAccumulator":
        self._check_trace(trace)
        mask = np.isin(trace.method_id, self._ids)
        n = self._n_hosts
        pair_key = trace.src[mask].astype(np.int64) * n + trace.dst[mask]
        lost = trace.lost1[mask]
        self.total += np.bincount(pair_key, minlength=n * n)
        self.bad += np.bincount(pair_key[lost], minlength=n * n)
        return self

    def copy(self) -> "PathLossAccumulator":
        out = PathLossAccumulator(self.meta)
        out.total = self.total.copy()
        out.bad = self.bad.copy()
        return out

    def _iadd(self, other: "PathLossAccumulator") -> None:
        self.total += other.total
        self.bad += other.bad

    def finalize(self, min_samples: int = 50) -> np.ndarray:
        """Loss percent per path with at least ``min_samples`` probes.

        No qualifying path gives an empty array (and an empty Figure 2
        CDF downstream), not a 0/0.
        """
        if min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1 (paths with zero probes would "
                f"divide 0/0), got {min_samples}"
            )
        ok = self.total >= min_samples
        return 100.0 * self.bad[ok] / self.total[ok]
