"""Per-segment stochastic state: generation and fast vectorised lookup.

:func:`build_state` draws, for every segment of a topology and a given
horizon, the three timelines that drive packet fate:

* ``congestion`` — bursty elevated-loss episodes (diurnally modulated),
* ``outage``     — near-total loss episodes (edge-biased, SRG-correlated),
* ``delay``      — added one-way delay in seconds (latency pathologies).

Most timelines are quiet: the Internet is "mostly quiescent"
(Section 4.2), and at the horizons the benchmarks run 90–100 % of a
cause's segments draw no episode at all.  The layout is built around
that.  :meth:`SegmentTimelineRecipe.generate` draws a batch of segments
straight into CSR arrays (offsets, boundaries, severities), where a
quiet segment is one zero entry and never becomes a Python object.
:class:`TimelineBank` keeps one busy flag per segment plus the busy
segments' boundaries, shifted into one sorted array, so a whole batch
of (segment, time) queries is a single ``np.searchsorted`` and a quiet
segment answers 0 through its flag — the trick that keeps
million-probe trace generation fast.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro import telemetry

from .config import CongestionParams, MajorEvent, OutageParams, PathologyParams
from .episodes import (
    EpisodeSet,
    Timeline,
    check_episodes,
    check_timelines,
    draw_counts,
    draw_episodes,
    generate_poisson_episodes,
    hourly_rates,
    lognormal_sampler,
    max_sweep,
    pareto_sampler,
)
from .rng import RngFactory
from .segments import Segment, SegmentKind
from .topology import Topology
from .units import HOUR, MILLISECOND

__all__ = [
    "KINDS",
    "TimelineBank",
    "SegmentState",
    "SegmentTimelineRecipe",
    "build_state",
    "busy_flags",
    "busy_lookup",
    "check_cache_budget",
    "shifted_busy",
]

#: the three causes every segment has a timeline for
KINDS = ("congestion", "outage", "delay")

#: the first entry of every bank's boundary array: below any query, so
#: ``searchsorted`` always lands on a real index, and its severity is 0
SENTINEL = -np.inf


def busy_flags(offsets: np.ndarray, severity: np.ndarray) -> np.ndarray:
    """Per CSR timeline: does any piece have non-zero severity?"""
    nonzero = np.zeros(severity.size + 1, dtype=np.int64)
    np.cumsum(severity != 0.0, out=nonzero[1:])
    return nonzero[offsets[1:]] > nonzero[offsets[:-1]]


def shifted_busy(
    sids: np.ndarray,
    offsets: np.ndarray,
    boundaries: np.ndarray,
    severity: np.ndarray,
    busy: np.ndarray,
    shift: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The busy timelines' entries of a CSR batch over segments ``sids``:
    boundaries shifted by ``sid * shift``, severities, and owning ids."""
    lengths = np.diff(offsets)
    keep = np.repeat(busy, lengths)
    owner = np.repeat(sids, lengths)[keep]
    return boundaries[keep] + owner * shift, severity[keep], owner


def busy_lookup(
    bounds: np.ndarray,
    sev: np.ndarray,
    busy: np.ndarray,
    sids: np.ndarray,
    t: np.ndarray,
    horizon: float,
    shift: float,
) -> np.ndarray:
    """Severity at ``(sids, t)`` on the busy entries inside the horizon, else 0.

    ``bounds``/``sev`` are a bank's busy entries behind the sentinel;
    ``busy`` says which entries' segments are busy and must be False on
    padding.  The arguments broadcast together.  Only the busy entries
    are compressed out, checked against ``0 <= t < horizon`` and
    searched; every other entry answers 0 without a search.
    """
    busy, sids, t = np.broadcast_arrays(busy, sids, t)
    out = np.zeros(t.shape)
    at = np.flatnonzero(busy)
    q = t.ravel()[at]
    s = sids.ravel()[at]
    inside = (q >= 0.0) & (q < horizon)
    if not inside.all():
        at, q, s = at[inside], q[inside], s[inside]
    q += s * shift
    out.put(at, sev[np.searchsorted(bounds, q, side="right") - 1])
    return out


def mean_severities(
    offsets: np.ndarray,
    boundaries: np.ndarray,
    severity: np.ndarray,
    busy: np.ndarray,
    horizon: float,
) -> np.ndarray:
    """Per CSR timeline, :meth:`Timeline.mean_severity`: the same
    expression on each busy timeline (so the same bits), 0 on quiet
    ones."""
    out = np.zeros(busy.size)
    if horizon <= 0:
        return out
    offs = offsets.tolist()
    for i in np.flatnonzero(busy).tolist():
        lo, hi = offs[i], offs[i + 1]
        widths = np.diff(np.append(boundaries[lo:hi], horizon))
        out[i] = (widths * severity[lo:hi]).sum() / horizon
    return out


class TimelineBank:
    """Many segments' timelines, laid out for one-shot vectorised queries.

    The bank keeps a busy flag per segment and, for the busy segments
    only, their boundaries shifted by ``sid * shift`` with
    ``shift > horizon`` behind one sentinel entry.  The shifted array
    stays sorted, so a query for ``(sid, t)`` is a single global
    ``searchsorted`` on ``t + sid * shift``; a quiet segment, a padding
    id or an out-of-horizon time reads the sentinel's 0 instead.

    Build it from CSR arrays (:meth:`from_csr`, what
    :func:`build_state` does) or from a list of :class:`Timeline`.
    """

    def __init__(self, timelines: list[Timeline], horizon: float) -> None:
        if not timelines:
            raise ValueError("a TimelineBank needs at least one timeline")
        if any(tl.horizon != horizon for tl in timelines):
            raise ValueError("all timelines in a bank must share the horizon")
        offsets = np.zeros(len(timelines) + 1, dtype=np.int64)
        np.cumsum([len(tl.boundaries) for tl in timelines], out=offsets[1:])
        self._init_csr(
            offsets,
            np.concatenate([tl.boundaries for tl in timelines]),
            np.concatenate([tl.severity for tl in timelines]),
            horizon,
            np.array([tl.corr_length for tl in timelines], dtype=np.float64),
        )

    @classmethod
    def from_csr(
        cls,
        offsets: np.ndarray,
        boundaries: np.ndarray,
        severity: np.ndarray,
        horizon: float,
        corr_length: np.ndarray,
    ) -> "TimelineBank":
        """A bank over timelines in CSR form: timeline ``i`` is
        ``boundaries[offsets[i]:offsets[i + 1]]`` with its severities
        (the shape :meth:`SegmentTimelineRecipe.generate` returns)."""
        bank = cls.__new__(cls)
        bank._init_csr(offsets, boundaries, severity, horizon, corr_length)
        return bank

    def _init_csr(self, offsets, boundaries, severity, horizon, corr_length) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        boundaries = np.asarray(boundaries, dtype=np.float64)
        severity = np.asarray(severity, dtype=np.float64)
        check_timelines(offsets, boundaries, severity, horizon)
        if offsets.size < 2:
            raise ValueError("a TimelineBank needs at least one timeline")
        corr_length = np.asarray(corr_length, dtype=np.float64)
        if corr_length.shape != (offsets.size - 1,):
            raise ValueError("corr_length needs one value per timeline")
        self.horizon = float(horizon)
        self.shift = self.horizon * 2.0 + 1.0
        busy = busy_flags(offsets, severity)
        bounds, sev, _ = shifted_busy(
            np.arange(busy.size), offsets, boundaries, severity, busy, self.shift
        )
        #: the busy flags plus one trailing False that NO_SEGMENT (-1) reads
        self._flags = np.append(busy, False)
        self._busy = self._flags[:-1]
        self._bounds = np.concatenate([[SENTINEL], bounds])
        self._sev = np.concatenate([[0.0], sev])
        self.corr_length = corr_length
        self.mean_severity = mean_severities(offsets, boundaries, severity, busy, self.horizon)

    def __len__(self) -> int:
        return int(self._busy.size)

    def severity_at(self, sids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Severity of segment ``sids[i]`` at ``times[i]`` (vectorised).

        ``sids`` may contain NO_SEGMENT (-1) padding; those entries and
        out-of-horizon times return 0.  One gather of the busy flags
        (padding reads the trailing False) is the only full-shape pass
        before the output: the horizon check and the search run on the
        busy entries alone (:func:`busy_lookup`).
        """
        sids = np.asarray(sids)
        t = np.asarray(times, dtype=np.float64)
        # a gather with intp indices takes NumPy's fast path
        busy = self._flags[sids.astype(np.intp, copy=False)]
        return busy_lookup(self._bounds, self._sev, busy, sids, t, self.horizon, self.shift)


#: per source field of :class:`SegmentState`: the padded array packet
#: evaluation reads, and how it is derived from the field
_PADDED = {
    "base_loss": ("base_loss_pad", lambda values: values),
    "jitter_s": ("half_jitter_pad", lambda values: values / 2.0),
    "queue_s": ("queue_pad", lambda values: values),
    "congestion": ("cong_corr_pad", lambda bank: bank.corr_length),
    "outage": ("out_corr_pad", lambda bank: bank.corr_length),
}


@dataclass
class SegmentState:
    """Generated state for one topology over one horizon.

    Packet evaluation gathers five per-segment arrays at every (packet,
    segment) entry, padding included, so it reads them through copies
    with one trailing 0 that NO_SEGMENT (-1) reads: ``base_loss_pad``,
    ``half_jitter_pad`` (``jitter_s / 2.0``), ``queue_pad`` and the
    congestion and outage correlation lengths ``cong_corr_pad`` and
    ``out_corr_pad``.  Each is built when its source field is assigned,
    at construction or when a caller replaces the field, never on first
    use, so shard threads sharing a state only read them.
    """

    topology: Topology
    horizon: float
    congestion: TimelineBank
    outage: TimelineBank
    delay: TimelineBank
    base_loss: np.ndarray  # (n_segments,)
    jitter_s: np.ndarray  # (n_segments,) mean jitter in seconds
    queue_s: np.ndarray  # (n_segments,) queue delay at severity 1.0
    host_down: TimelineBank  # over host ids

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name in _PADDED:
            pad, derive = _PADDED[name]
            super().__setattr__(pad, np.append(derive(value), 0.0))

    def host_down_at(self, host_ids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Boolean: was each host down at the given time?"""
        return self.host_down.severity_at(host_ids, times) > 0


def _diurnal_profile(
    horizon: float, amplitude: float, tz_offset_h: float
) -> np.ndarray:
    """Hourly rate multipliers: a sinusoid peaking mid-afternoon local time.

    The paper notes "during many hours of the day, the Internet is mostly
    quiescent" (Section 4.2); congestion concentrates in busy hours.
    """
    n_hours = max(int(np.ceil(horizon / HOUR)), 1)
    hours = (np.arange(n_hours) + tz_offset_h) % 24.0
    # peak at 15:00 local, trough at 03:00
    return 1.0 + amplitude * np.sin((hours - 9.0) / 24.0 * 2.0 * np.pi)


class _Process(NamedTuple):
    """One cause's episode process on one class of segments."""

    rate_per_hour: np.ndarray | float
    duration: Callable[[np.random.Generator, int], np.ndarray]
    severity: Callable[[np.random.Generator, int], np.ndarray]


def _congestion_process(
    params: CongestionParams, rate_mult: float, profile: np.ndarray
) -> _Process:
    return _Process(
        params.rate_per_hour * rate_mult * profile,
        lognormal_sampler(params.duration_median_s, params.duration_sigma),
        params.severity.sampler(),
    )


def _outage_process(params: OutageParams, rate_mult: float) -> _Process:
    return _Process(
        params.rate_per_day * rate_mult / 24.0,
        pareto_sampler(params.duration_min_s, params.duration_alpha, params.duration_cap_s),
        lambda r, size: np.full(size, params.severity),
    )


def _pathology_process(params: PathologyParams) -> _Process:
    def delay_sampler(r: np.random.Generator, size: int) -> np.ndarray:
        delays = r.lognormal(
            np.log(params.added_delay_median_ms * MILLISECOND), params.added_delay_sigma, size
        )
        # Timeline severities must stay in [0, 1]; we store seconds of
        # added delay, capped at 1 s (the magnitude the paper reports
        # for the Cornell incident).
        return np.minimum(delays, 1.0)

    return _Process(
        params.rate_per_day / 24.0,
        lognormal_sampler(params.duration_median_s, params.duration_sigma),
        delay_sampler,
    )


def _apply_major_events(
    topology: Topology,
    horizon: float,
    events: tuple[MajorEvent, ...],
    outage_eps: dict[int, list[EpisodeSet]],
    delay_eps: dict[int, list[EpisodeSet]],
) -> None:
    for ev in events:
        targets: list[int] = []
        if ev.target.startswith("trunk:"):
            _, r1, r2 = ev.target.split(":")
            for pair in [(r1, r2), (r2, r1)]:
                name = topology.trunk_name(*pair)
                try:
                    targets.append(topology.registry.by_name(name).sid)
                except KeyError:
                    pass  # region absent from this (scaled) host set
        elif ev.target.startswith("host:"):
            host = ev.target.split(":", 1)[1]
            if host in topology.host_index:
                targets = [
                    s
                    for s in topology.registry.sids_of_host(host)
                    if topology.registry[s].kind
                    in (SegmentKind.ACCESS_IN, SegmentKind.ACCESS_OUT)
                ]
        else:
            raise ValueError(f"unknown major-event target: {ev.target!r}")
        start = ev.start_frac * horizon
        for sid in targets:
            if ev.severity > 0:
                outage_eps.setdefault(sid, []).append(
                    EpisodeSet(
                        np.array([start]),
                        np.array([ev.duration_s]),
                        np.array([min(ev.severity, 0.999)]),
                    )
                )
            if ev.added_delay_ms > 0:
                delay_eps.setdefault(sid, []).append(
                    EpisodeSet(
                        np.array([start]),
                        np.array([ev.duration_s]),
                        np.array([min(ev.added_delay_ms * MILLISECOND, 1.0)]),
                    )
                )


#: the named stream each cause draws a segment's own episodes from
_STREAM = {"congestion": "congestion", "outage": "outage", "delay": "pathology"}

_ACCESS = (SegmentKind.ACCESS_IN, SegmentKind.ACCESS_OUT)

#: streams per first-draw pass: bounds the pass's temporaries
_BLOCK = 1 << 16


def _first_draw_test(rates: np.ndarray) -> list[float] | None:
    """e^-λ of each positive hour, in order: a stream draws a count of 0
    in every hour iff its j-th double is at most the j-th value.  ``None``
    when an hour is outside 0 <= λ < 10, where NumPy's Poisson sampler
    does not take that form (λ >= 10 runs PTRS; a NaN rate raises).

    ``math.exp`` is libm's ``exp``, the one NumPy's sampler calls;
    ``np.exp`` may differ in the last ulp.
    """
    lams = rates.tolist()
    if not all(0.0 <= lam < 10.0 for lam in lams):
        return None
    return [math.exp(-lam) for lam in lams if lam > 0.0]


class SegmentTimelineRecipe:
    """Deterministic per-segment timeline generation, kind by kind.

    Every segment's congestion/outage/delay timeline is a pure function
    of (topology, horizon, seed) through its own named RNG substream, so
    timelines can be generated in any order and in any batch — eagerly
    all at once (:func:`build_state`) or on demand by
    :class:`repro.netsim.substrate.LazyTimelineBank` — and come out
    bitwise identical.  :meth:`generate` is the batch path;
    :meth:`timeline` draws one segment through :class:`EpisodeSet` and
    :class:`Timeline` objects and is the reference the batch is held to.
    Shared-risk-group episodes are drawn once per group (thread-safe)
    from the group's own stream.
    """

    def __init__(self, topology: Topology, horizon: float, rngs: RngFactory) -> None:
        self.topology = topology
        self.horizon = float(horizon)
        self._rngs = rngs
        cfg = topology.config
        self.cfg = cfg
        self.class_cfg = {
            SegmentKind.ACCESS_OUT: cfg.access,
            SegmentKind.ACCESS_IN: cfg.access,
            SegmentKind.ISP: cfg.isp,
            SegmentKind.TRUNK: cfg.trunk,
            SegmentKind.MIDDLE: cfg.middle,
        }
        self._outage_extra: dict[int, list[EpisodeSet]] = {}
        self._delay_extra: dict[int, list[EpisodeSet]] = {}
        _apply_major_events(
            topology, horizon, cfg.major_events, self._outage_extra, self._delay_extra
        )
        # SRG-correlated outages: physical events (fibre cuts, line
        # drops) drawn once per shared-risk group, applied to all members.
        # The group's outage params and rate multiplier come from its
        # lowest-sid member with an outage config — pinned here so
        # generation order (eager sweep, lazy first-touch, concurrent
        # shard threads) can never change which member's settings win.
        self._srg_outage: dict[str, tuple[OutageParams, float]] = {}
        self._srg_events: dict[str, EpisodeSet] = {}
        self._srg_lock = threading.Lock()
        self._index_processes()

    def _index_processes(self) -> None:
        """One pass over the registry builds everything generation reads
        per segment, as arrays.

        Each cause's episode processes are built once per distinct
        (segment class, link class, time zone); a segment holds only an
        index into them per cause (-1: the cause draws nothing there).
        Each process also gets its first-draw test (see
        :meth:`generate`).  The pass flags the segments with shared
        pieces (shared-risk-group or major-event episodes) and gathers
        names, correlation lengths and the static values
        :func:`build_state` hands to :class:`SegmentState`.
        """
        registry = self.topology.registry
        n = len(registry)
        # a segment's processes depend only on its kind and its host
        members: dict[tuple, list[int]] = {}
        names: list[str] = []
        base_loss: list[float] = []
        jitter_ms: list[float] = []
        queue_ms: list[float] = []
        srg_members: list[int] = []
        for seg in registry:
            members.setdefault((seg.kind, seg.host), []).append(seg.sid)
            names.append(seg.name)
            base_loss.append(seg.base_loss)
            jitter_ms.append(seg.jitter_ms)
            queue_ms.append(seg.queue_ms)
            op = self.class_cfg[seg.kind].outage
            if seg.srg is not None and op is not None:
                srg_members.append(seg.sid)
                if seg.srg not in self._srg_outage:
                    self._srg_outage[seg.srg] = (op, self._mults(seg)[1])
        self._names = names
        #: per-segment background loss, mean jitter (s) and queueing
        #: delay at severity 1.0 (s)
        self.base_loss = np.array(base_loss, dtype=np.float64)
        self.jitter_s = np.array(jitter_ms, dtype=np.float64) * MILLISECOND
        self.queue_s = np.array(queue_ms, dtype=np.float64) * MILLISECOND
        self._shared = {kind: np.zeros(n, dtype=bool) for kind in KINDS}
        self._shared["outage"][srg_members] = True
        self._shared["outage"][list(self._outage_extra)] = True
        self._shared["delay"][list(self._delay_extra)] = True
        #: (hourly rates, duration sampler, severity sampler) per process
        self._processes: list[_Process] = []
        #: per process: e^-λ of its positive hours, or None (see
        #: _first_draw_test)
        quiet_tests: list[list[float] | None] = []
        self._process_of = {kind: np.full(n, -1, dtype=np.int32) for kind in KINDS}
        self._corr = {kind: np.empty(n) for kind in KINDS}
        known: dict[tuple, int] = {}
        profiles: dict[float, np.ndarray] = {}
        for group in members.values():
            seg = registry[group[0]]
            sids = np.array(group)
            scfg = self.class_cfg[seg.kind]
            cong_mult, outage_mult, tz = self._mults(seg)
            made = []
            if scfg.congestion is not None:
                if tz not in profiles:
                    profiles[tz] = _diurnal_profile(self.horizon, self.cfg.diurnal_amplitude, tz)
                proc = _congestion_process(scfg.congestion, cong_mult, profiles[tz])
                made.append(("congestion", (seg.kind, cong_mult, tz), proc))
            if scfg.outage is not None:
                proc = _outage_process(scfg.outage, outage_mult)
                made.append(("outage", (seg.kind, outage_mult), proc))
            if seg.kind in _ACCESS:
                made.append(("delay", (), _pathology_process(self.cfg.pathology)))
            for kind, key, proc in made:
                if (kind, key) not in known:
                    known[kind, key] = len(self._processes)
                    rates = hourly_rates(max(self.horizon, 0.0), proc.rate_per_hour)
                    self._processes.append(proc._replace(rate_per_hour=rates))
                    quiet_tests.append(_first_draw_test(rates))
                self._process_of[kind][sids] = known[kind, key]
            for kind in KINDS:
                self._corr[kind][sids] = self.corr_length(seg, kind)
        # the tests as a table: row p holds process p's thresholds, padded
        # with 1.0 (every double passes), and -1 draws marks a process
        # without a test
        self._draws = np.array([-1 if t is None else len(t) for t in quiet_tests], dtype=np.int64)
        self._thresholds = np.ones((len(quiet_tests), int(self._draws.max(initial=0))))
        for p, t in enumerate(quiet_tests):
            if t:
                self._thresholds[p, : len(t)] = t

    def _mults(self, seg: Segment) -> tuple[float, float, float]:
        """(congestion multiplier, outage multiplier, tz offset) of a segment."""
        cong_mult = outage_mult = 1.0
        tz = 0.0
        if seg.host is not None:
            host = self.topology.host(seg.host)
            tz = host.tz_offset_h
            if seg.kind in _ACCESS:
                cong_mult = host.link_class.congestion_mult
                outage_mult = host.link_class.outage_mult
        return cong_mult, outage_mult, tz

    # -- batch generation ------------------------------------------------

    def generate(self, kind: str, sids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One cause's timelines for a batch of segment ids, in CSR form.

        Returns ``(offsets, boundaries, severity)``: the timeline of
        segment ``sids[i]`` is ``boundaries[offsets[i]:offsets[i + 1]]``
        with the matching severities, bitwise equal to
        ``self.timeline(kind, seg)``.  A quiet segment (no episode of
        its own, no shared-risk-group or major-event episode) is one
        zero entry and no Python object.

        Most segments' own streams draw a count of 0 in every hour, and
        that is decided before any ``Generator`` exists.  For
        0 < λ < 10, NumPy's Poisson sampler returns 0 exactly when its
        first double is at most e^-λ, having consumed that one double;
        λ = 0 draws nothing.  So a stream is quiet when its j-th double
        (:meth:`RngFactory.first_draws`, vectorised over the batch)
        passes the j-th positive hour's test.  Only the streams that
        fail it, or whose process has an hour with λ >= 10 (the PTRS
        branch, which draws differently), get a real ``Generator`` and
        the per-segment draws; segments with shared pieces join them.
        A stream that fails the test still comes out quiet when every
        episode it draws starts past the horizon.  The batch is
        validated once, vectorised.
        """
        if kind not in _STREAM:
            raise ValueError(f"unknown timeline kind {kind!r}")
        stream = _STREAM[kind]
        extra = {"outage": self._outage_pieces, "delay": self._delay_pieces}.get(kind)
        sids = np.asarray(sids, dtype=np.int64).reshape(-1)
        pids = self._process_of[kind][sids]
        own = np.flatnonzero(pids >= 0)
        draws = self._draws[pids[own]]
        needs = np.zeros(sids.size, dtype=bool)
        needs[own[draws < 0]] = True
        tested = own[draws > 0]  # no positive hour: no draw, no episode
        m = int(draws.max(initial=0))
        names = self._names
        for lo in range(0, tested.size, _BLOCK):
            block = tested[lo : lo + _BLOCK]
            first = self._rngs.first_draws(
                (stream,), [names[sid] for sid in sids[block].tolist()], m
            )
            needs[block] = (first > self._thresholds[pids[block], :m]).any(axis=1)
        shared = self._shared[kind][sids]
        segments = self.topology.registry
        processes = self._processes
        horizon = self.horizon
        lengths = np.ones(sids.size, dtype=np.int64)
        busy: list[tuple[int, np.ndarray, np.ndarray]] = []
        durations: list[np.ndarray] = []
        severities: list[np.ndarray] = []
        rows = np.flatnonzero(needs | shared)
        for i, sid, pid, real, with_pieces in zip(
            rows.tolist(),
            sids[rows].tolist(),
            pids[rows].tolist(),
            needs[rows].tolist(),
            shared[rows].tolist(),
        ):
            parts = []
            if real:
                proc = processes[pid]
                rng = self._rngs.stream(stream, names[sid])
                counts = draw_counts(rng, proc.rate_per_hour)
                drawn = draw_episodes(rng, counts, horizon, proc.duration, proc.severity)
                if drawn is not None:
                    parts.append(drawn)
                    durations.append(drawn[1])
                    severities.append(drawn[2])
            if with_pieces:
                parts.extend(
                    (e.start, e.duration, e.severity) for e in extra(segments[sid]) if len(e)
                )
            if not parts:
                continue  # quiet: its one zero entry is already in lengths
            start, dur, sev = (np.concatenate(c) for c in zip(*parts))
            b, v = max_sweep(start, start + dur, sev, horizon)
            lengths[i] = b.size
            busy.append((i, b, v))
        offsets = np.zeros(sids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        boundaries = np.zeros(int(offsets[-1]))
        severity = np.zeros(int(offsets[-1]))
        for i, b, v in busy:
            boundaries[offsets[i] : offsets[i + 1]] = b
            severity[offsets[i] : offsets[i + 1]] = v
        if durations:
            check_episodes(np.concatenate(durations), np.concatenate(severities))
        check_timelines(offsets, boundaries, severity, horizon)
        rec = telemetry.get_recorder()
        if rec.enabled:
            rec.counter_add("substrate.timelines", sids.size)
            rec.counter_add("substrate.quiet", sids.size - int(busy_flags(offsets, severity).sum()))
            rec.counter_add("substrate.generators", int(needs.sum()))
        return offsets, boundaries, severity

    def _outage_pieces(self, seg: Segment) -> list[EpisodeSet]:
        """Outage episodes a segment shares: its group's and major events'."""
        pieces = []
        if seg.srg is not None and self.class_cfg[seg.kind].outage is not None:
            pieces.append(self._srg(seg.srg))
        pieces.extend(self._outage_extra.get(seg.sid, ()))
        return pieces

    def _delay_pieces(self, seg: Segment) -> list[EpisodeSet]:
        """Delay episodes major events add to a segment."""
        return self._delay_extra.get(seg.sid, [])

    def _srg(self, srg: str) -> EpisodeSet:
        with self._srg_lock:
            if srg not in self._srg_events:
                params, mult = self._srg_outage[srg]
                srg_rng = self._rngs.stream("srg", srg)
                # shared events are rarer than per-direction ones
                self._srg_events[srg] = generate_poisson_episodes(
                    srg_rng, self.horizon, *_outage_process(params, 0.5 * mult)
                )
            return self._srg_events[srg]

    # -- the per-segment reference -----------------------------------------

    def congestion(self, seg: Segment) -> Timeline:
        scfg = self.class_cfg[seg.kind]
        if scfg.congestion is None:
            return Timeline.quiet(self.horizon)
        cp = scfg.congestion
        cong_mult, _, tz = self._mults(seg)
        profile = _diurnal_profile(self.horizon, self.cfg.diurnal_amplitude, tz)
        rng = self._rngs.stream("congestion", seg.name)
        eps = generate_poisson_episodes(
            rng, self.horizon, *_congestion_process(cp, cong_mult, profile)
        )
        return Timeline.from_episodes(eps, self.horizon, cp.corr_length_s)

    def outage(self, seg: Segment) -> Timeline:
        scfg = self.class_cfg[seg.kind]
        _, outage_mult, _ = self._mults(seg)
        pieces: list[EpisodeSet] = []
        if scfg.outage is not None:
            rng = self._rngs.stream("outage", seg.name)
            pieces.append(
                generate_poisson_episodes(
                    rng, self.horizon, *_outage_process(scfg.outage, outage_mult)
                )
            )
        pieces.extend(self._outage_pieces(seg))
        return Timeline.from_episodes(
            EpisodeSet.concat(pieces), self.horizon, self.corr_length(seg, "outage")
        )

    def delay(self, seg: Segment) -> Timeline:
        dpieces: list[EpisodeSet] = []
        if seg.kind in _ACCESS:
            rng = self._rngs.stream("pathology", seg.name)
            dpieces.append(
                generate_poisson_episodes(
                    rng, self.horizon, *_pathology_process(self.cfg.pathology)
                )
            )
        dpieces.extend(self._delay_pieces(seg))
        return Timeline.from_episodes(EpisodeSet.concat(dpieces), self.horizon, 60.0)

    def timeline(self, kind: str, seg: Segment) -> Timeline:
        return {"congestion": self.congestion, "outage": self.outage, "delay": self.delay}[
            kind
        ](seg)

    def corr_length(self, seg: Segment, kind: str) -> float:
        """Correlation length of one cause on one segment (config-only:
        needs no episode generation, so lazy banks can expose the full
        ``corr_length`` array up front)."""
        scfg = self.class_cfg[seg.kind]
        if kind == "congestion":
            return scfg.congestion.corr_length_s if scfg.congestion else 0.0
        if kind == "outage":
            return scfg.outage.corr_length_s if scfg.outage else 120.0
        if kind == "delay":
            return 60.0
        raise ValueError(f"unknown timeline kind {kind!r}")

    def corr_lengths(self, kind: str) -> np.ndarray:
        """Every segment's :meth:`corr_length` of one cause."""
        if kind not in self._corr:
            raise ValueError(f"unknown timeline kind {kind!r}")
        return self._corr[kind]


def check_cache_budget(substrate: str, max_cached_segments: int | None) -> None:
    """Reject a segment-cache budget that nothing would read: only the
    lazy bank caches, and its budget is ``None`` (unbounded) or >= 1."""
    if max_cached_segments is None:
        return
    if max_cached_segments < 1:
        raise ValueError("max_cached_segments must be None (unbounded) or >= 1")
    if substrate != "lazy":
        raise ValueError(
            "max_cached_segments bounds the lazy bank's cache; it needs "
            f"substrate='lazy', not {substrate!r}"
        )


def build_state(
    topology: Topology,
    horizon: float,
    rngs: RngFactory,
    substrate: str = "eager",
    max_cached_segments: int | None = None,
) -> SegmentState:
    """Draw all stochastic state for ``topology`` over ``[0, horizon)``.

    ``substrate="eager"`` (the default) generates every segment's
    timelines up front; ``"lazy"`` defers generation to first use behind
    an LRU budget of ``max_cached_segments`` per cause (see
    :mod:`repro.netsim.substrate`).  Both hold the same layout and
    produce bitwise-identical query results.  The work is recorded as
    a ``substrate`` stage span.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if substrate not in ("eager", "lazy"):
        raise ValueError(f"substrate must be 'eager' or 'lazy', got {substrate!r}")
    check_cache_budget(substrate, max_cached_segments)
    with telemetry.get_recorder().span("substrate", cat="stage", substrate=substrate):
        cfg = topology.config
        recipe = SegmentTimelineRecipe(topology, horizon, rngs)

        if substrate == "lazy":
            # function-level: netsim.substrate imports this module's types
            from .substrate import LazyTimelineBank

            banks = {
                kind: LazyTimelineBank(recipe, kind, max_cached=max_cached_segments)
                for kind in KINDS
            }
        else:
            every = np.arange(len(topology.registry))
            banks = {
                kind: TimelineBank.from_csr(
                    *recipe.generate(kind, every), horizon, recipe.corr_lengths(kind)
                )
                for kind in KINDS
            }

        # -- whole-host failures -----------------------------------------
        host_down: list[Timeline] = []
        hf = cfg.host_failure
        for h in topology.hosts:
            rng = rngs.stream("host-down", h.name)
            eps = generate_poisson_episodes(
                rng,
                horizon,
                hf.rate_per_day / 24.0,
                lognormal_sampler(hf.duration_median_s, hf.duration_sigma),
                lambda r, size: np.ones(size),
            )
            host_down.append(Timeline.from_episodes(eps, horizon))

        return SegmentState(
            topology=topology,
            horizon=horizon,
            congestion=banks["congestion"],
            outage=banks["outage"],
            delay=banks["delay"],
            base_loss=recipe.base_loss,
            jitter_s=recipe.jitter_s,
            queue_s=recipe.queue_s,
            host_down=TimelineBank(host_down, horizon),
        )
