"""Span/counter recording: a no-op by default, cheap when enabled.

The module holds one process-wide recorder.  Disabled (the default) it
is the :class:`NullRecorder`: every instrumentation site costs one
global load plus an attribute check or a no-op context manager, so the
hot path pays nothing measurable.  :func:`enable` swaps in a
:class:`Recorder` that captures

* **spans** — named, categorised intervals with monotonic begin/end
  nanoseconds, pid/tid and free-form args (one dict per span);
* **counters** — named sums aggregated in place (``collect.rows``,
  ``spill.bytes``, substrate LRU hits), so high-frequency increments
  never grow an event list;
* **gauges** — named last-value samples (peak RSS).

Cross-process propagation: process-pool shard kernels cannot append to
the parent's recorder, so their module-level workers wrap the kernel in
:func:`run_instrumented` — a fresh recorder for the duration, with the
batched events shipped back in a :class:`ShardEnvelope` alongside the
shard's result and folded into the parent's recorder by
:func:`unwrap_envelope` (called where results drain, see
:class:`repro.engine.ShardedCollector`).  Thread and serial executors
record straight into the shared recorder; envelopes simply never appear.

Determinism: recording touches no RNG and no simulation state, so the
golden trace fingerprint is byte-identical with telemetry fully enabled
(``tests/telemetry/test_determinism.py`` holds this across executors).

Set ``REPRO_TELEMETRY=1`` to enable recording at import time (how CLI
runs like ``tools/golden.py`` get instrumented without code changes).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from . import clock

__all__ = [
    "NullRecorder",
    "Recorder",
    "ShardEnvelope",
    "get_recorder",
    "set_recorder",
    "enable",
    "disable",
    "recording",
    "span",
    "counter_add",
    "gauge_set",
    "run_instrumented",
    "unwrap_envelope",
]


class _NullSpan:
    """The shared do-nothing context manager disabled spans return."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    A singleton (:data:`NULL`) shared by all callers; ``enabled`` is the
    one attribute instrumentation sites may branch on to skip building
    args for hot-loop counters.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: str = "run", **args) -> _NullSpan:
        return _NULL_SPAN

    def counter_add(self, name: str, value: float = 1) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass

    def record_span(
        self, name: str, cat: str = "run", *, ts_ns: int, dur_ns: int, **args
    ) -> None:
        pass

    def absorb(self, events) -> None:
        pass

    def mark(self) -> int:
        return 0

    def counter_snapshot(self) -> dict:
        return {}

    def events(self, mark: int = 0, counters_base: dict | None = None) -> list:
        return []

    def events_since(self, mark: int) -> list:
        return []


NULL = NullRecorder()


class _Span:
    """One live span: records itself into the recorder on exit."""

    __slots__ = ("_rec", "name", "cat", "args", "t0_ns")

    def __init__(self, rec: "Recorder", name: str, cat: str, args: dict) -> None:
        self._rec = rec
        self.name = name
        self.cat = cat
        self.args = args
        self.t0_ns = 0

    def __enter__(self) -> "_Span":
        self.t0_ns = clock.monotonic_ns()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = clock.monotonic_ns()
        self._rec._append(
            {
                "ev": "span",
                "name": self.name,
                "cat": self.cat,
                "ts_ns": self.t0_ns,
                "dur_ns": t1 - self.t0_ns,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": self.args,
            }
        )
        return False


class Recorder:
    """An enabled recorder: thread-safe span list + aggregated counters.

    Span events are plain dicts (the manifest/Chrome line format);
    counters and gauges aggregate into name->value maps and materialise
    as events only in :meth:`events` output.  ``mark()`` /
    ``events_since`` / ``counter_snapshot`` let a caller scope one
    run's events out of a longer-lived recorder (exact for spans; for
    counters the scope is a snapshot diff, so concurrent runs sharing
    one recorder fold their counter increments together — the engine's
    documented single-run-at-a-time profiling scope).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    # -- recording -----------------------------------------------------

    def span(self, name: str, cat: str = "run", **args) -> _Span:
        return _Span(self, name, cat, args)

    def counter_add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def record_span(
        self, name: str, cat: str = "run", *, ts_ns: int, dur_ns: int, **args
    ) -> None:
        """Record a span from timestamps taken earlier.

        The post-hoc form of :meth:`span`, for intervals whose bounds a
        caller measured itself — e.g. the engine's overlapping logical
        stage spans, which overlap each other and so cannot be nested
        context managers.  ``ts_ns``/``dur_ns`` must come from the same
        monotonic clock spans use (:func:`repro.telemetry.clock.monotonic_ns`).
        """
        self._append(
            {
                "ev": "span",
                "name": name,
                "cat": cat,
                "ts_ns": ts_ns,
                "dur_ns": dur_ns,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": args,
            }
        )

    def _append(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def absorb(self, events) -> None:
        """Fold a worker's shipped events in: spans append with their
        original pid/tid, counter/gauge records re-aggregate."""
        with self._lock:
            for ev in events:
                kind = ev.get("ev")
                if kind == "counter":
                    self._counters[ev["name"]] = (
                        self._counters.get(ev["name"], 0) + ev["value"]
                    )
                elif kind == "gauge":
                    self._gauges[ev["name"]] = ev["value"]
                else:
                    self._events.append(ev)

    # -- scoping / extraction ------------------------------------------

    def mark(self) -> int:
        """Current span-event count; pass to :meth:`events_since`."""
        with self._lock:
            return len(self._events)

    def counter_snapshot(self) -> dict:
        with self._lock:
            return dict(self._counters)

    def events_since(self, mark: int) -> list[dict]:
        """The span events recorded since ``mark`` (live references, so
        a parent may annotate args in place before exporting)."""
        with self._lock:
            return self._events[mark:]

    def events(self, mark: int = 0, counters_base: dict | None = None) -> list[dict]:
        """Spans since ``mark`` plus counter/gauge records.

        ``counters_base`` (a prior :meth:`counter_snapshot`) subtracts
        out increments from before the scope; zero deltas are dropped.
        """
        pid = os.getpid()
        with self._lock:
            out = list(self._events[mark:])
            for name in sorted(self._counters):
                value = self._counters[name]
                if counters_base is not None:
                    value -= counters_base.get(name, 0)
                if value:
                    out.append({"ev": "counter", "name": name, "value": value, "pid": pid})
            for name in sorted(self._gauges):
                out.append(
                    {"ev": "gauge", "name": name, "value": self._gauges[name], "pid": pid}
                )
        return out


# -- the process-wide recorder ----------------------------------------------

_RECORDER: NullRecorder | Recorder = NULL


def get_recorder() -> NullRecorder | Recorder:
    """The active recorder (the shared :data:`NULL` when disabled)."""
    return _RECORDER


def set_recorder(recorder: NullRecorder | Recorder | None):
    """Install ``recorder`` (``None`` = disable); returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder if recorder is not None else NULL
    return previous


def enable(recorder: Recorder | None = None) -> Recorder:
    """Install (and return) an enabled recorder."""
    recorder = recorder if recorder is not None else Recorder()
    set_recorder(recorder)
    return recorder


def disable() -> NullRecorder | Recorder:
    """Restore the no-op recorder; returns the one that was active."""
    return set_recorder(NULL)


@contextmanager
def recording(recorder: Recorder | None = None):
    """Temporarily enable recording; yields the active recorder."""
    recorder = recorder if recorder is not None else Recorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


# -- module-level conveniences (resolve the recorder per call) ---------------


def span(name: str, cat: str = "run", **args):
    """A span context manager on the active recorder (no-op if disabled)."""
    return _RECORDER.span(name, cat=cat, **args)


def counter_add(name: str, value: float = 1) -> None:
    _RECORDER.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    _RECORDER.gauge_set(name, value)


# -- cross-process propagation -----------------------------------------------


@dataclass
class ShardEnvelope:
    """A shard kernel's result plus the telemetry it recorded.

    What a process-pool worker ships back over the pipe when telemetry
    is enabled: the kernel's ordinary return value and the worker-side
    events (batched — one list per shard, not a stream).
    """

    value: Any
    events: list[dict]


def run_instrumented(fn, /, *args):
    """Run ``fn(*args)`` in a process-pool worker, capturing telemetry.

    Disabled recorder (the inherited default): calls straight through —
    same object flow as before telemetry existed.  Enabled: installs a
    fresh worker-local recorder for the duration (pool workers are
    reused across shards, so state must not leak between calls) and
    returns a :class:`ShardEnvelope` carrying the result plus the
    batched events for the parent to absorb.
    """
    if not _RECORDER.enabled:
        return fn(*args)
    local = Recorder()
    previous = set_recorder(local)
    try:
        value = fn(*args)
    finally:
        set_recorder(previous)
    return ShardEnvelope(value, local.events())


def unwrap_envelope(part):
    """Fold an envelope's events into the active recorder, pass the value.

    Non-envelope parts (serial/thread executors, or telemetry disabled)
    pass through untouched.
    """
    if isinstance(part, ShardEnvelope):
        _RECORDER.absorb(part.events)
        return part.value
    return part
