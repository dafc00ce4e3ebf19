"""Host/segment topology and the precomputed path table.

The topology maps a host catalogue onto the segment model of
:mod:`repro.netsim.segments` and precomputes *every* path the overlay can
use: the direct path for each ordered host pair, plus the one-hop
indirect path through each of the pair's relay candidates (the paper's
routing uses "at most one intermediate node", Section 1).  The
candidates are a compiled :class:`~repro.relaysets.RelaySet`; without a
relay policy every third host is one, as in the paper.  Precomputing
the paths as flat arrays is what lets trace generation run fully
vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .links import AccessLinkClass, link_class
from .rng import RngFactory
from .segments import Segment, SegmentKind, SegmentRegistry
from repro.relaysets import RelayPolicySpec, RelaySet, compile_relay_set
from repro.trace.records import id_dtype
from .units import MILLISECOND, haversine_km, propagation_delay_s

__all__ = ["HostSpec", "Topology", "build_topology", "PathTable"]

#: padding value in path segment matrices.
NO_SEGMENT = -1


@dataclass(frozen=True)
class HostSpec:
    """One overlay host (a row of the paper's Table 1)."""

    name: str
    location: str
    description: str
    category: str
    lat: float
    lon: float
    region: str
    link: str
    internet2: bool = False
    in_2002: bool = False
    tz_offset_h: float = 0.0
    forward_loss: float | None = None

    @property
    def link_class(self) -> AccessLinkClass:
        return link_class(self.link)


class PathTable:
    """Flat arrays describing every direct and one-hop path.

    The rows are the direct paths plus the candidate relay paths of a
    :class:`repro.relaysets.RelaySet`: ``N^2 + relay_set.nnz`` rows.
    ``direct_pid(s, d) = s * N + d``; relay path ids follow the CSR
    order of the candidate set,
    ``relay_pid(s, r, d) = N^2 + position of (s, r, d) in relay_set``,
    and looking up a non-candidate relay raises.  Diagonal direct rows
    (``s == d``) are filled with :data:`NO_SEGMENT` and flagged invalid.
    Path ids never appear in traces or fingerprints (only relay *host*
    ids do).
    """

    MAX_LEN = 11  # direct paths use 6 slots, relay paths 11

    def __init__(self, n_hosts: int, relay_set: RelaySet) -> None:
        if relay_set.n_hosts != n_hosts:
            raise ValueError(f"relay set is for {relay_set.n_hosts} hosts, table for {n_hosts}")
        self.n_hosts = n_hosts
        self.relay_set = relay_set
        n_paths = n_hosts * n_hosts + relay_set.nnz
        self.seg = np.full((n_paths, self.MAX_LEN), NO_SEGMENT, dtype=np.int32)
        self.offset = np.zeros((n_paths, self.MAX_LEN), dtype=np.float64)
        self.prop_total = np.zeros(n_paths, dtype=np.float64)
        self.forward_loss = np.zeros(n_paths, dtype=np.float64)
        self.forward_delay = np.zeros(n_paths, dtype=np.float64)
        self.relay_host = np.full(n_paths, -1, dtype=id_dtype(n_hosts))
        self.valid = np.zeros(n_paths, dtype=bool)

    def direct_pid(self, src: int, dst: int) -> int:
        return src * self.n_hosts + dst

    def relay_pid(self, src: int, relay: int, dst: int) -> int:
        return self.n_hosts * self.n_hosts + int(self.relay_set.positions(src, relay, dst))

    def direct_pids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return np.asarray(src) * self.n_hosts + np.asarray(dst)

    def relay_pids(self, src: np.ndarray, relay: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return self.n_hosts * self.n_hosts + self.relay_set.positions(src, relay, dst)

    def _relay_endpoints(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode (src, dst) for relay-path ids (``pid >= n^2``)."""
        n = self.n_hosts
        rem = np.asarray(pids, dtype=np.int64) - n * n
        pair = np.searchsorted(self.relay_set.offsets, rem, side="right") - 1
        return pair // n, pair % n

    def _check_relay_rows(self, pids: np.ndarray, relay_host: np.ndarray) -> None:
        """Reject degenerate relays at construction time (not select time).

        A candidate set never lists a relay equal to src or dst, so the
        row a relay pid names must not hold one either; this names the
        offender.
        """
        pids = np.asarray(pids, dtype=np.int64)
        relay_host = np.asarray(relay_host)
        rows = (pids >= self.n_hosts * self.n_hosts) & (relay_host >= 0)
        if not rows.any():
            return
        src, dst = self._relay_endpoints(pids[rows])
        relay = relay_host[rows].astype(np.int64)
        bad = (relay == src) | (relay == dst)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"degenerate relay path (src={int(src[i])}, "
                f"relay={int(relay[i])}, dst={int(dst[i])}): the relay "
                "host must differ from both endpoints"
            )

    def set_path(
        self,
        pid: int,
        segments: list[Segment],
        forward_loss: float = 0.0,
        forward_delay: float = 0.0,
        relay_host: int = -1,
        forward_after: int | None = None,
    ) -> None:
        """Record a path.  ``forward_after`` is the index of the segment
        after which application-level forwarding delay applies (the
        relay's ACCESS_IN)."""
        if len(segments) > self.MAX_LEN:
            raise ValueError(f"path of {len(segments)} segments exceeds MAX_LEN")
        self._check_relay_rows(np.array([pid]), np.array([relay_host]))
        offset = 0.0
        for i, seg in enumerate(segments):
            self.seg[pid, i] = seg.sid
            self.offset[pid, i] = offset
            offset += seg.prop_delay_s
            if forward_after is not None and i == forward_after:
                offset += forward_delay
        self.prop_total[pid] = offset
        self.forward_loss[pid] = forward_loss
        self.forward_delay[pid] = forward_delay
        self.relay_host[pid] = relay_host
        self.valid[pid] = True

    #: rows per batch chunk; bounds the (rows, k) float temporaries.
    BATCH_CHUNK = 262_144

    def set_paths_batch(
        self,
        pids: np.ndarray,
        segs: np.ndarray,
        seg_prop: np.ndarray,
        forward_loss: np.ndarray | float = 0.0,
        forward_delay: float = 0.0,
        relay_host: np.ndarray | int = -1,
        forward_after: int | None = None,
    ) -> None:
        """Record a whole family of equal-length paths at once.

        ``segs`` is ``(rows, k)`` of segment ids (no padding — every row
        has exactly ``k`` segments) and ``seg_prop`` maps segment id to
        propagation delay.  Offsets accumulate left-to-right exactly like
        :meth:`set_path` (``np.cumsum`` adds in the same order as the
        scalar loop, so the floats are bitwise identical), with
        ``forward_delay`` folded in after column ``forward_after``.
        """
        pids = np.asarray(pids, dtype=np.int64)
        segs = np.asarray(segs)
        if segs.ndim != 2 or len(pids) != len(segs):
            raise ValueError("segs must be (rows, k) matching pids")
        k = segs.shape[1]
        if k > self.MAX_LEN:
            raise ValueError(f"paths of {k} segments exceed MAX_LEN")
        if forward_after is not None and not 0 <= forward_after < k:
            raise ValueError(f"forward_after {forward_after} outside path of {k} segments")
        forward_loss = np.broadcast_to(np.asarray(forward_loss, dtype=np.float64), pids.shape)
        relay_host = np.broadcast_to(
            np.asarray(relay_host, dtype=self.relay_host.dtype), pids.shape
        )
        self._check_relay_rows(pids, relay_host)
        for lo in range(0, len(pids), self.BATCH_CHUNK):
            hi = min(lo + self.BATCH_CHUNK, len(pids))
            p, s = pids[lo:hi], segs[lo:hi]
            prop = seg_prop[s]
            if forward_after is None:
                cum = np.cumsum(prop, axis=1)
            else:
                # splice the forwarding delay into the accumulation after
                # the forward_after column, as the scalar loop does
                ext = np.insert(prop, forward_after + 1, forward_delay, axis=1)
                cum_ext = np.cumsum(ext, axis=1)
                # offsets skip the fd entry up to forward_after and include
                # it afterwards, which is exactly cum_ext minus column fa
                cum = np.delete(cum_ext, forward_after, axis=1)
            self.seg[p, :k] = s
            self.offset[p, 0] = 0.0
            self.offset[p, 1:k] = cum[:, :-1]
            self.prop_total[p] = cum[:, -1]
            self.forward_loss[p] = forward_loss[lo:hi]
            self.forward_delay[p] = forward_delay
            self.relay_host[p] = relay_host[lo:hi]
            self.valid[p] = True


@dataclass
class Topology:
    """Everything static about the simulated network."""

    hosts: list[HostSpec]
    registry: SegmentRegistry
    paths: PathTable
    regions: list[str]
    host_index: dict[str, int]
    #: per-ordered-pair circuitous stretch factor (1.0 = sane routing).
    circuitous: np.ndarray
    #: per-ordered-pair chronic middle loss (0 for healthy pairs).
    chronic_loss: np.ndarray
    config: NetworkConfig
    #: compiled relay candidate set (policy ``all`` when none was asked for).
    relay_set: RelaySet
    #: the relay policy the network was built with (None when none was
    #: asked for); part of a run's identity.
    relay_policy: RelayPolicySpec | None

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def host(self, name: str) -> HostSpec:
        return self.hosts[self.host_index[name]]

    def ordered_pairs(self) -> list[tuple[int, int]]:
        n = self.n_hosts
        return [(s, d) for s in range(n) for d in range(n) if s != d]

    def trunk_name(self, r1: str, r2: str) -> str:
        return f"trunk:{r1}:{r2}"

    def path_segments(self, pid: int) -> list[Segment]:
        """Resolve a path id back into segment objects (for debugging)."""
        row = self.paths.seg[pid]
        return [self.registry[int(s)] for s in row if s != NO_SEGMENT]


def _region_centroids(hosts: list[HostSpec]) -> dict[str, tuple[float, float]]:
    sums: dict[str, list[float]] = {}
    for h in hosts:
        acc = sums.setdefault(h.region, [0.0, 0.0, 0.0])
        acc[0] += h.lat
        acc[1] += h.lon
        acc[2] += 1.0
    return {r: (a[0] / a[2], a[1] / a[2]) for r, a in sums.items()}


def build_topology(
    hosts: list[HostSpec],
    config: NetworkConfig,
    rngs: RngFactory,
    relay_policy: RelayPolicySpec | None = None,
) -> Topology:
    """Construct segments and the path table for a host catalogue.

    ``relay_policy`` is compiled once into a
    :class:`~repro.relaysets.RelaySet` and only its candidate relay
    paths are assembled; ``None`` compiles policy ``all``, every third
    host, as in the paper.  The segment construction and every RNG draw
    (circuitous stretches, chronic pair loss) are identical under any
    policy, so the same pair sees the same weather.
    """
    if len(hosts) < 3:
        raise ValueError("an overlay needs at least 3 hosts (for one-hop routing)")
    names = [h.name for h in hosts]
    if len(set(names)) != len(names):
        raise ValueError("host names must be unique")
    n = len(hosts)
    host_index = {h.name: i for i, h in enumerate(hosts)}
    registry = SegmentRegistry()
    stretch = config.path_stretch

    # --- edge segments (access out/in + ISP aggregation) per host ------
    acc_out: list[Segment] = []
    acc_in: list[Segment] = []
    isp: list[Segment] = []
    for h in hosts:
        cls = h.link_class
        access_prop = cls.extra_delay_ms * MILLISECOND + 0.2 * MILLISECOND
        jitter = config.access.jitter_ms * cls.jitter_mult
        base = config.access.base_loss * cls.base_loss_mult
        acc_out.append(
            registry.add(
                f"acc-out:{h.name}",
                SegmentKind.ACCESS_OUT,
                host=h.name,
                prop_delay_s=access_prop,
                srg=f"line:{h.name}",
                base_loss=base,
                jitter_ms=jitter,
                queue_ms=config.access.queue_ms,
            )
        )
        acc_in.append(
            registry.add(
                f"acc-in:{h.name}",
                SegmentKind.ACCESS_IN,
                host=h.name,
                prop_delay_s=access_prop,
                srg=f"line:{h.name}",
                base_loss=base,
                jitter_ms=jitter,
                queue_ms=config.access.queue_ms,
            )
        )
        isp.append(
            registry.add(
                f"isp:{h.name}",
                SegmentKind.ISP,
                host=h.name,
                prop_delay_s=1.0 * MILLISECOND,
                base_loss=config.isp.base_loss,
                jitter_ms=config.isp.jitter_ms,
                queue_ms=config.isp.queue_ms,
            )
        )

    # --- backbone trunks between (ordered) region pairs -----------------
    regions = sorted({h.region for h in hosts})
    centroids = _region_centroids(hosts)
    trunk: dict[tuple[str, str], Segment] = {}
    for r1 in regions:
        for r2 in regions:
            if r1 == r2:
                prop = 1.0 * MILLISECOND
            else:
                km = haversine_km(*centroids[r1], *centroids[r2])
                prop = propagation_delay_s(km, stretch) + 0.5 * MILLISECOND
            trunk[(r1, r2)] = registry.add(
                f"trunk:{r1}:{r2}",
                SegmentKind.TRUNK,
                endpoints=(r1, r2),
                prop_delay_s=prop,
                srg=f"trunkpair:{min(r1, r2)}:{max(r1, r2)}",
                base_loss=config.trunk.base_loss,
                jitter_ms=config.trunk.jitter_ms,
                queue_ms=config.trunk.queue_ms,
            )

    # --- per-pair middle segments (transit / peering tail) --------------
    rng_pairs = rngs.stream("topology", "pairs")
    circuitous = np.ones((n, n), dtype=np.float64)
    chronic_loss = np.zeros((n, n), dtype=np.float64)
    middle: dict[tuple[int, int], Segment] = {}
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            hs, hd = hosts[s], hosts[d]
            if rng_pairs.random() < config.circuitous_fraction:
                circuitous[s, d] = rng_pairs.uniform(
                    config.circuitous_stretch_min, config.circuitous_stretch_max
                )
            pair_prop = (
                propagation_delay_s(haversine_km(hs.lat, hs.lon, hd.lat, hd.lon), stretch)
                * circuitous[s, d]
            )
            fixed = (
                acc_out[s].prop_delay_s
                + isp[s].prop_delay_s
                + trunk[(hs.region, hd.region)].prop_delay_s
                + isp[d].prop_delay_s
                + acc_in[d].prop_delay_s
            )
            residual = max(pair_prop - fixed, 0.2 * MILLISECOND)
            base = config.middle.base_loss
            if rng_pairs.random() < config.chronic.pair_fraction:
                chronic_loss[s, d] = min(
                    rng_pairs.lognormal(
                        np.log(config.chronic.loss_median), config.chronic.loss_sigma
                    ),
                    config.chronic.loss_cap,
                )
                base = base + chronic_loss[s, d]
            middle[(s, d)] = registry.add(
                f"mid:{hs.name}:{hd.name}",
                SegmentKind.MIDDLE,
                endpoints=(hs.name, hd.name),
                prop_delay_s=residual,
                base_loss=base,
                jitter_ms=config.middle.jitter_ms,
                queue_ms=config.middle.queue_ms,
            )

    # --- path table (batch-assembled: N^2 direct + relay rows) -----------
    seg_prop = np.array([seg.prop_delay_s for seg in registry], dtype=np.float64)
    acc_out_sid = np.array([seg.sid for seg in acc_out], dtype=np.int32)
    acc_in_sid = np.array([seg.sid for seg in acc_in], dtype=np.int32)
    isp_sid = np.array([seg.sid for seg in isp], dtype=np.int32)
    region_idx = np.array([regions.index(h.region) for h in hosts], dtype=np.int64)
    trunk_sid = np.array(
        [[trunk[(r1, r2)].sid for r2 in regions] for r1 in regions], dtype=np.int32
    )
    middle_sid = np.full((n, n), NO_SEGMENT, dtype=np.int32)
    for (s, d), seg in middle.items():
        middle_sid[s, d] = seg.sid
    # per-host forwarding loss: explicit override, else the link-class
    # default scaled by the config-wide knob (config.forward_loss ==
    # 0.009 leaves classes untouched).
    fwd_loss_host = np.array(
        [
            h.forward_loss
            if h.forward_loss is not None
            else h.link_class.forward_loss * (config.forward_loss / 0.009)
            for h in hosts
        ],
        dtype=np.float64,
    )

    # static direct-path propagation distances feed k_nearest; the
    # compile is a pure function of (policy, regions, distances)
    mid_prop = np.where(middle_sid == NO_SEGMENT, 0.0, seg_prop[middle_sid])
    acc_out_prop = seg_prop[acc_out_sid]
    acc_in_prop = seg_prop[acc_in_sid]
    isp_prop = seg_prop[isp_sid]
    dist = (
        (acc_out_prop + isp_prop)[:, None]
        + seg_prop[trunk_sid][region_idx[:, None], region_idx[None, :]]
        + mid_prop
        + (isp_prop + acc_in_prop)[None, :]
    )
    np.fill_diagonal(dist, 0.0)
    relay_set = compile_relay_set(
        relay_policy or RelayPolicySpec(), n, regions=region_idx, distances=dist
    )
    paths = PathTable(n, relay_set)

    idx = np.arange(n)
    S, D = (a.ravel() for a in np.meshgrid(idx, idx, indexing="ij"))
    keep = S != D
    S, D = S[keep], D[keep]
    direct_segs = np.stack(
        [
            acc_out_sid[S],
            isp_sid[S],
            trunk_sid[region_idx[S], region_idx[D]],
            middle_sid[S, D],
            isp_sid[D],
            acc_in_sid[D],
        ],
        axis=1,
    )
    paths.set_paths_batch(paths.direct_pids(S, D), direct_segs, seg_prop)

    # CSR-driven assembly: one row per candidate, in pid order, stacked
    # one batch chunk at a time so the segment stack stays chunk-sized
    pair = np.repeat(np.arange(n * n, dtype=np.int64), relay_set.counts)
    S, D = pair // n, pair % n
    R = relay_set.relay_ids.astype(np.int64)
    pids = n * n + np.arange(relay_set.nnz, dtype=np.int64)
    for lo in range(0, len(pids), PathTable.BATCH_CHUNK):
        hi = min(lo + PathTable.BATCH_CHUNK, len(pids))
        s, r, d = S[lo:hi], R[lo:hi], D[lo:hi]
        relay_segs = np.stack(
            [
                acc_out_sid[s],
                isp_sid[s],
                trunk_sid[region_idx[s], region_idx[r]],
                middle_sid[s, r],
                isp_sid[r],
                acc_in_sid[r],
                acc_out_sid[r],
                trunk_sid[region_idx[r], region_idx[d]],
                middle_sid[r, d],
                isp_sid[d],
                acc_in_sid[d],
            ],
            axis=1,
        )
        paths.set_paths_batch(
            pids[lo:hi],
            relay_segs,
            seg_prop,
            forward_loss=fwd_loss_host[r],
            forward_delay=config.forward_delay_ms * MILLISECOND,
            relay_host=r,
            forward_after=5,  # after the relay's ACCESS_IN
        )

    return Topology(
        hosts=hosts,
        registry=registry,
        paths=paths,
        regions=regions,
        host_index=host_index,
        circuitous=circuitous,
        chronic_loss=chronic_loss,
        config=config,
        relay_set=relay_set,
        relay_policy=relay_policy,
    )
