"""Audited clock reads — the only place ``repro`` touches a clock.

The determinism contract (DET002, see README) bans ambient entropy and
wall-clock reads from simulation code: results must be pure functions
of ``(seed, stream name)``.  Telemetry *measures* the machine rather
than feeding it, so its clock reads are legitimate — but they are
confined to this module so the static analyzer can keep the ban
enforceable everywhere else in ``src/`` (``src/repro/telemetry/`` is
the one per-path DET002 exemption in ``pyproject.toml``).  Instrumented
code never calls ``time.*`` directly; it calls these helpers (or, far
more commonly, records through :mod:`repro.telemetry.recorder`, which
calls them).

Shard threads and the thread that submits them read one monotonic
clock, so a shard span's begin time minus its submit stamp is the
shard's pool queue wait (see :mod:`repro.engine.sharding`).
"""

from __future__ import annotations

import time

__all__ = ["monotonic_ns", "wall_unix_s", "peak_rss_bytes"]


def monotonic_ns() -> int:
    """Monotonic timestamp in nanoseconds (span begin/end, latencies)."""
    return time.monotonic_ns()


def wall_unix_s() -> float:
    """Wall-clock Unix time (manifest headers only, never span math)."""
    return time.time()


def peak_rss_bytes() -> int | None:
    """This process's lifetime peak resident set, in bytes.

    Read from ``VmHWM`` in ``/proc/self/status`` — unlike
    ``ru_maxrss``, it is per-process even right after a ``fork`` (a
    forked child's ``ru_maxrss`` inherits the parent's high-water
    mark).  Returns ``None`` where procfs is unavailable.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None
