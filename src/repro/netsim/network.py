"""The network facade: sample the fate of packets on overlay paths.

Single packets are evaluated segment-by-segment against three loss
causes — congestion bursts, outages, and memoryless background loss —
plus application-level forwarding loss on relay paths.

Packet *pairs* (the paper's two-packet probes, Table 4) are evaluated
jointly: on segments shared by both copies, the second packet's fate is
drawn conditionally on the first packet's per-cause outcome using a
burst-persistence model

    P(lost2 | lost1) = rho + (1 - rho) * p2,      rho = exp(-dt / L)

where ``dt`` is the spacing between the copies *at that segment* and
``L`` the cause's correlation length.  The marginal loss probability of
the second packet is preserved.  This one mechanism produces the paper's
Section 4.4 measurements: near-total correlation for back-to-back
packets on one path, partial correlation through a random intermediate
(shared edge segments only), and decay with 10/20 ms spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .rng import RngFactory
from .state import SegmentState, build_state
from .topology import HostSpec, Topology, build_topology

__all__ = ["PacketOutcome", "PairOutcome", "Network", "conditional_loss_prob"]

#: rows per evaluation chunk; bounds peak memory for giant batches.
CHUNK = 131_072


def conditional_loss_prob(
    p1: np.ndarray, p2: np.ndarray, rho: np.ndarray, lost1: np.ndarray
) -> np.ndarray:
    """Conditional loss probability for the second packet of a pair.

    Given the first packet's outcome ``lost1`` for one loss cause on a
    shared segment, returns P(second lost).  If the first packet was
    lost, the burst persists with probability ``rho`` (then the second
    is lost for sure) and otherwise the second sees a fresh draw at
    ``p2``.  The complementary branch is chosen to keep the marginal at
    ``p2`` when the severity is unchanged between the two instants.
    """
    on = rho + (1.0 - rho) * p2
    denom = np.maximum(1.0 - p1, 1e-12)
    off = np.clip((p2 - p1 * on) / denom, 0.0, 1.0)
    return np.where(lost1, on, off)


@dataclass
class PacketOutcome:
    """Vectorised result of sampling single packets."""

    lost: np.ndarray  # bool
    latency: np.ndarray  # seconds; meaningful only where ~lost (we keep it anyway)

    def __len__(self) -> int:
        return len(self.lost)


@dataclass
class PairOutcome:
    """Vectorised result of sampling two-packet probes."""

    lost1: np.ndarray
    lost2: np.ndarray
    latency1: np.ndarray
    latency2: np.ndarray

    @property
    def both_lost(self) -> np.ndarray:
        return self.lost1 & self.lost2

    def __len__(self) -> int:
        return len(self.lost1)


@dataclass
class _Detail:
    """Per-segment cause bits retained for joint pair evaluation."""

    segs: np.ndarray  # (n, L) int32
    t: np.ndarray  # (n, L) time each copy reaches each segment
    p_cong: np.ndarray
    p_out: np.ndarray
    lost_cong: np.ndarray  # (n, L) bool
    lost_out: np.ndarray
    lost_base: np.ndarray
    lost_fwd: np.ndarray  # (n,) bool
    lost: np.ndarray  # (n,) bool
    latency: np.ndarray  # (n,)


class Network:
    """Topology + stochastic state + sampling, behind one object."""

    def __init__(
        self, topology: Topology, state: SegmentState, rngs: RngFactory
    ) -> None:
        self.topology = topology
        self.state = state
        self._rng = rngs.stream("traffic")

    @classmethod
    def build(
        cls,
        hosts: list[HostSpec],
        config: NetworkConfig,
        horizon: float,
        seed: int = 0,
        substrate: str = "eager",
        max_cached_segments: int | None = None,
        relay_policy=None,
    ) -> "Network":
        """Convenience constructor: topology + state in one call.

        ``substrate="lazy"`` defers per-segment timeline generation to
        first use behind an LRU budget of ``max_cached_segments`` (see
        :mod:`repro.netsim.substrate`); query results are bitwise
        identical to the eager default.  ``relay_policy``
        (a :class:`repro.relaysets.RelayPolicySpec`) switches the path
        table to the sparse per-pair candidate layout; ``None`` keeps
        the dense all-relays reference.
        """
        rngs = RngFactory(seed)
        topology = build_topology(hosts, config, rngs, relay_policy=relay_policy)
        state = build_state(
            topology,
            horizon,
            rngs,
            substrate=substrate,
            max_cached_segments=max_cached_segments,
        )
        return cls(topology, state, rngs)

    @property
    def horizon(self) -> float:
        return self.state.horizon

    @property
    def traffic_rng_state(self) -> dict:
        """State of the internal traffic RNG (what default sampling
        draws from).  Collection no longer touches it — every
        ``collect()`` passes explicit per-source substreams — but other
        default-rng consumers (``sample_*`` without ``rng``, the
        event-driven Overlay) still do; snapshot after :meth:`build` and
        restore before reuse to keep those reproducible."""
        return self._rng.bit_generator.state

    @traffic_rng_state.setter
    def traffic_rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    @property
    def paths(self):
        return self.topology.paths

    @property
    def relay_set(self):
        """The compiled relay candidate set (None = dense layout)."""
        return self.topology.relay_set

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_packets(
        self, pids: np.ndarray, times: np.ndarray, rng: np.random.Generator | None = None
    ) -> PacketOutcome:
        """Sample delivery and one-way latency for independent packets."""
        pids = np.asarray(pids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        self._check(pids, times)
        rng = rng or self._rng
        lost = np.empty(len(pids), dtype=bool)
        lat = np.empty(len(pids), dtype=np.float64)
        for lo in range(0, len(pids), CHUNK):
            hi = min(lo + CHUNK, len(pids))
            d = self._eval(pids[lo:hi], times[lo:hi], rng)
            lost[lo:hi] = d.lost
            lat[lo:hi] = d.latency
        return PacketOutcome(lost=lost, latency=lat)

    def sample_pairs(
        self,
        pids1: np.ndarray,
        pids2: np.ndarray,
        times: np.ndarray,
        gap: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> PairOutcome:
        """Sample two-packet probes; the second copy departs ``gap`` later."""
        pids1 = np.asarray(pids1, dtype=np.int64)
        pids2 = np.asarray(pids2, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if len(pids1) != len(pids2) or len(pids1) != len(times):
            raise ValueError("pids1, pids2 and times must have equal length")
        if gap < 0:
            raise ValueError("gap must be non-negative")
        self._check(pids1, times)
        self._check(pids2, times)
        rng = rng or self._rng
        n = len(pids1)
        out = PairOutcome(
            lost1=np.empty(n, dtype=bool),
            lost2=np.empty(n, dtype=bool),
            latency1=np.empty(n, dtype=np.float64),
            latency2=np.empty(n, dtype=np.float64),
        )
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            d1 = self._eval(pids1[lo:hi], times[lo:hi], rng)
            d2 = self._eval(pids2[lo:hi], times[lo:hi] + gap, rng, first=d1)
            out.lost1[lo:hi] = d1.lost
            out.lost2[lo:hi] = d2.lost
            out.latency1[lo:hi] = d1.latency
            out.latency2[lo:hi] = d2.latency + gap
        return out

    def sample_train(
        self,
        pids: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample a *train* of packets per row on a single path each.

        ``times`` is (n, m): row i sends m packets on path ``pids[i]``
        at the given (ascending) instants.  Packet j is conditioned on
        packet j-1's per-segment outcome, so burst correlation chains
        through the whole train — the FEC-group experiments of
        Section 5.2 need exactly this.  Returns (lost, latency), both
        (n, m).
        """
        pids = np.asarray(pids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 2 or times.shape[0] != len(pids):
            raise ValueError("times must be (n, m) matching pids")
        if times.shape[1] and np.any(np.diff(times, axis=1) < 0):
            raise ValueError("train times must be non-decreasing per row")
        self._check(pids, times[:, 0] if times.shape[1] else np.zeros(0))
        rng = rng or self._rng
        n, m = times.shape
        lost = np.empty((n, m), dtype=bool)
        lat = np.empty((n, m), dtype=np.float64)
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            detail = None
            for j in range(m):
                detail = self._eval(pids[lo:hi], times[lo:hi, j], rng, first=detail)
                lost[lo:hi, j] = detail.lost
                lat[lo:hi, j] = detail.latency
        return lost, lat

    # ------------------------------------------------------------------
    # expectations (ground truth for tests and the Section 5 models)
    # ------------------------------------------------------------------

    def path_loss_prob(self, pids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Exact per-packet loss probability at the given instants."""
        pids = np.asarray(pids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        self._check(pids, times)
        segs = self.paths.seg[pids]
        t = times[:, None] + self.paths.offset[pids]
        valid = segs >= 0
        p_c = self.state.congestion.severity_at(segs, t)
        p_o = self.state.outage.severity_at(segs, t)
        p_b = np.where(valid, self.state.base_loss[np.clip(segs, 0, None)], 0.0)
        survive = (1.0 - p_c) * (1.0 - p_o) * (1.0 - p_b)
        survive = np.where(valid, survive, 1.0)
        return 1.0 - survive.prod(axis=1) * (1.0 - self.paths.forward_loss[pids])

    def path_mean_loss(self, pid: int, n_samples: int = 2048) -> float:
        """Time-averaged loss probability of a path over the horizon."""
        times = np.linspace(0.0, self.horizon * (1 - 1e-9), n_samples)
        return float(self.path_loss_prob(np.full(n_samples, pid), times).mean())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check(self, pids: np.ndarray, times: np.ndarray) -> None:
        if len(pids) != len(times):
            raise ValueError("pids and times must have equal length")
        if len(pids) and not self.paths.valid[pids].all():
            bad = pids[~self.paths.valid[pids]][0]
            raise ValueError(f"invalid path id {bad} (degenerate src/relay/dst?)")

    def _eval(
        self,
        pids: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator,
        first: _Detail | None = None,
    ) -> _Detail:
        """Evaluate one packet per row.

        With ``first`` (the previous copy on each row: a pair's first
        packet, or a train's previous one), the congestion and outage
        draws on segments both copies cross are conditioned on the first
        copy's outcome there.  The returned ``p_cong``/``p_out`` are the
        unconditioned severities either way.
        """
        segs = self.paths.seg[pids]
        t = times[:, None] + self.paths.offset[pids]
        valid = segs >= 0
        safe = np.clip(segs, 0, None)

        p_cong = self.state.congestion.severity_at(segs, t)
        p_out = self.state.outage.severity_at(segs, t)
        p_base = np.where(valid, self.state.base_loss[safe], 0.0)

        p_cong_eff, p_out_eff = p_cong, p_out
        if first is not None:
            # which of this copy's segments also appear on the first's path?
            match = (segs[:, :, None] == first.segs[:, None, :]) & valid[:, :, None]
            shared = match.any(axis=2)
            k = match.argmax(axis=2)  # first matching column in the first's path
            rows = np.arange(len(pids))[:, None]
            dt = np.abs(t - first.t[rows, k])

            cong_corr = self.state.congestion.corr_length[safe]
            out_corr = self.state.outage.corr_length[safe]

            p_cong_eff = self._condition(
                p_cong, first.p_cong, first.lost_cong, shared, k, dt, cong_corr
            )
            p_out_eff = self._condition(p_out, first.p_out, first.lost_out, shared, k, dt, out_corr)

        u = rng.random((3,) + segs.shape)
        lost_cong = u[0] < p_cong_eff
        lost_out = u[1] < p_out_eff
        lost_base = u[2] < p_base  # memoryless: never conditioned
        lost_fwd = rng.random(len(pids)) < self.paths.forward_loss[pids]
        lost = lost_cong.any(axis=1) | lost_out.any(axis=1) | lost_base.any(axis=1) | lost_fwd
        latency = self._latency(pids, segs, t, valid, safe, p_cong, rng)
        return _Detail(
            segs=segs,
            t=t,
            p_cong=p_cong,
            p_out=p_out,
            lost_cong=lost_cong,
            lost_out=lost_out,
            lost_base=lost_base,
            lost_fwd=lost_fwd,
            lost=lost,
            latency=latency,
        )

    def _latency(
        self,
        pids: np.ndarray,
        segs: np.ndarray,
        t: np.ndarray,
        valid: np.ndarray,
        safe: np.ndarray,
        p_cong: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        jitter_scale = np.where(valid, self.state.jitter_s[safe], 0.0)
        jitter = rng.gamma(2.0, 1.0, size=segs.shape) * (jitter_scale / 2.0)
        queue = (
            self.state.queue_s[safe]
            * p_cong
            * rng.uniform(0.5, 1.5, size=segs.shape)
        )
        queue = np.where(valid, queue, 0.0)
        inflation = self.state.delay.severity_at(segs, t)
        return (
            self.paths.prop_total[pids]
            + jitter.sum(axis=1)
            + queue.sum(axis=1)
            + inflation.sum(axis=1)
        )

    @staticmethod
    def _condition(
        p2: np.ndarray,
        p1_all: np.ndarray,
        lost1_all: np.ndarray,
        shared: np.ndarray,
        k: np.ndarray,
        dt: np.ndarray,
        corr: np.ndarray,
    ) -> np.ndarray:
        rows = np.arange(p2.shape[0])[:, None]
        p1 = p1_all[rows, k]
        lost1 = lost1_all[rows, k]
        with np.errstate(divide="ignore", over="ignore"):
            rho = np.where(corr > 0, np.exp(-dt / np.maximum(corr, 1e-12)), 0.0)
        rho = np.where(dt == 0.0, 1.0, rho)
        cond = conditional_loss_prob(p1, p2, rho, lost1)
        return np.where(shared, cond, p2)
