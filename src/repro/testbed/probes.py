"""Probe scheduling, exactly as Section 4.1 describes it.

"Each node periodically initiates probes to other nodes.  [...]  The
nodes cycle through the different probe types, and for each probe, they
pick a random destination node.  After sending the probe, the host
waits for a random amount of time between 0.6 and 1.2 seconds, and then
repeats the process.  Each probe has a random 64-bit identifier."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.records import id_dtype

__all__ = ["ProbeSchedule", "generate_schedule", "PROBE_GAP_MIN_S", "PROBE_GAP_MAX_S"]

PROBE_GAP_MIN_S = 0.6
PROBE_GAP_MAX_S = 1.2
#: draws per block of hosts in :func:`generate_schedule` (512 KB of float64)
SCHEDULE_BLOCK = 1 << 16


@dataclass
class ProbeSchedule:
    """All measurement probes of a run, before routing/evaluation."""

    t_send: np.ndarray  # float64, sorted within each source
    src: np.ndarray  # int64; rows are grouped by source (host 0 first)
    dst: np.ndarray  # int64
    method_id: np.ndarray  # id_dtype(n_methods) into the run's method list
    probe_id: np.ndarray  # uint64 random identifiers

    def __len__(self) -> int:
        return len(self.t_send)

    def source_bounds(self, n_hosts: int) -> np.ndarray:
        """Row bounds of each source host's contiguous block.

        Host ``h`` owns rows ``[bounds[h], bounds[h+1])`` — the layout
        :func:`generate_schedule` emits, which is what lets sharded
        collection slice the schedule without reordering it.
        """
        return np.searchsorted(self.src, np.arange(n_hosts + 1))


def generate_schedule(
    n_hosts: int,
    n_methods: int,
    horizon_s: float,
    rng: np.random.Generator,
    gap_min_s: float = PROBE_GAP_MIN_S,
    gap_max_s: float = PROBE_GAP_MAX_S,
) -> ProbeSchedule:
    """Generate each host's probe initiations over the horizon.

    Probe types are cycled per host (with a per-host starting offset so
    hosts are not synchronised), destinations are uniform over the other
    hosts, and inter-probe gaps are U(gap_min, gap_max) — the paper's
    0.6-1.2 s.
    """
    if n_hosts < 2:
        raise ValueError("need at least two hosts")
    if n_methods < 1:
        raise ValueError("need at least one method")
    if not 0 < gap_min_s <= gap_max_s:
        raise ValueError("gaps must satisfy 0 < gap_min <= gap_max")
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")

    # each host's stream holds ``est`` gaps, then its start phase; as
    # ``uniform`` is ``low + (high - low) * random()``, one ``random``
    # block over several hosts draws the same values in the same order
    mean_gap = 0.5 * (gap_min_s + gap_max_s)
    est = int(horizon_s / mean_gap * 1.05) + 8
    rows = max(1, SCHEDULE_BLOCK // (est + 1))
    t_parts, counts = [], []
    for lo in range(0, n_hosts, rows):
        u = rng.random((min(rows, n_hosts - lo), est + 1))
        gaps = gap_min_s + (gap_max_s - gap_min_s) * u[:, :est]
        times = np.cumsum(gaps, axis=1)
        times -= gaps[:, :1] * u[:, est:]
        keep = times < horizon_s
        t_parts.append(times[keep])
        counts.append(keep.sum(axis=1))
    t_send = np.concatenate(t_parts)
    per_host = np.concatenate(counts)
    src = np.repeat(np.arange(n_hosts, dtype=np.int64), per_host)
    # cycle methods per host, offset by host index
    cycle = np.arange(len(t_send)) - (np.cumsum(per_host) - per_host)[src] + src
    method_id = (cycle % n_methods).astype(id_dtype(n_methods))
    # uniform destination != src; emitted at int64 so routing and path-id
    # arithmetic downstream never needs widening copies
    dst = rng.integers(0, n_hosts - 1, len(t_send))
    dst = dst + (dst >= src)
    probe_id = rng.integers(0, 2**63, len(t_send), dtype=np.uint64)
    return ProbeSchedule(
        t_send=t_send, src=src, dst=dst, method_id=method_id, probe_id=probe_id
    )
