"""Dataset collection: run the measurement system, produce a trace.

This is the vectorised equivalent of fourteen days of testbed operation
(Section 4.1): the probing subsystem runs first (it is what reactive
routing sees), then every host's measurement probes are scheduled,
routed per method, and evaluated jointly against the substrate.

Round-trip mode (the RONwide dataset) sends a response packet back over
the reverse of each forward route; a probe is lost if either direction
loses it, and its RTT is the sum of the one-way latencies — matching
Table 7's round-trip accounting.

Execution model
---------------
The run is split into independent *source blocks*: every host's probes
form one contiguous schedule slice, and each block draws its routing
and packet-fate randomness from its own named substreams
(``routes/<host>`` and ``traffic/<host>`` of the run's
:class:`~repro.netsim.rng.RngFactory`; the probing subsystem that runs
first uses ``probing/<host>`` the same way).  A block's outcomes
therefore depend only on (spec, seed, host) — never on which other
blocks ran in the same process — which is what lets
:class:`repro.engine.ShardedCollector` farm blocks (and the probe
grid's per-host blocks) out across cores and still produce the
bitwise-identical trace.  The canonical row order of a finished trace
is ascending ``probe_id`` (applied here by :meth:`Trace.concatenate`,
and by the engine's merge), so sequential and sharded runs serialise
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core.methods import METHODS, Method
from repro.core.reactive import RoutingTables, build_routing_tables, run_probing
from repro.core.router import resolve_routes
from repro.netsim.config import ProbingParams
from repro.netsim.network import Network, PairOutcome
from repro.netsim.rng import RngFactory
from repro.netsim.topology import PathTable
from repro.trace.records import Trace, TraceMeta, id_dtype

from .datasets import DatasetSpec
from .probes import ProbeSchedule, generate_schedule

__all__ = [
    "collect",
    "CollectionResult",
    "CollectionPlan",
    "prepare_collection",
    "prepare_collection_base",
    "collect_rows",
]

#: turnaround delay at the responder for round-trip probes.
RTT_TURNAROUND_S = 2e-4


@dataclass(frozen=True, eq=False)
class CollectionResult:
    """A collected trace plus the run's supporting state (for analysis
    that needs ground truth, e.g. ablation benchmarks).

    ``spill_dir`` is set by spilled engine runs: the run's own spill
    subdirectory, holding the ``shard-*.npz`` files and the merged
    memory-mapped store — what streaming analysis
    (:class:`repro.analysis.StreamingAnalyzer`) consumes post-hoc.
    """

    trace: Trace
    network: Network
    tables: RoutingTables | None
    spill_dir: Path | None = None

    def __repr__(self) -> str:
        meta = self.trace.meta
        return (
            f"CollectionResult(dataset={meta.dataset!r}, seed={meta.seed}, "
            f"mode={meta.mode!r}, probes={len(self.trace):,})"
        )


@dataclass(frozen=True, eq=False)
class CollectionPlan:
    """Everything the source blocks of one run share, read-only.

    Built once by :func:`prepare_collection` (substrate, probing,
    routing tables, schedule) and then handed to every evaluator —
    the sequential loop in :func:`collect` — or by
    :func:`prepare_collection_base` without the tables, for the shards
    of :class:`repro.engine.ShardedCollector`.
    """

    meta: TraceMeta
    seed: int
    network: Network
    methods: tuple[Method, ...]
    tables: RoutingTables | None
    sched: ProbeSchedule
    #: host ``h`` owns schedule rows ``[bounds[h], bounds[h+1])``.
    bounds: np.ndarray
    #: whether the run's substrate includes the scheduled major events
    #: (part of run identity — e.g. the engine's spill-directory key).
    include_events: bool = True
    #: the probing subsystem's parameters when a method needs probing
    probing: ProbingParams | None = None

    @property
    def n_hosts(self) -> int:
        return len(self.meta.host_names)

    @property
    def host_dtype(self) -> np.dtype:
        """Capacity-chosen dtype of the trace's host/relay id columns."""
        return id_dtype(self.n_hosts)


def _reverse_pids(
    paths: PathTable, src: np.ndarray, dst: np.ndarray, relay: np.ndarray
) -> np.ndarray:
    """Path ids of the reverse route (same relay, opposite direction).

    Relay pids are only looked up where a relay was actually used:
    candidate-set tables are strict about membership, and the sets are
    symmetric by construction, so every forward relay is also a valid
    reverse-direction candidate.
    """
    pids = np.asarray(paths.direct_pids(dst, src), dtype=np.int64).copy()
    via_rows = relay >= 0
    if via_rows.any():
        pids[via_rows] = paths.relay_pids(
            dst[via_rows], relay[via_rows].astype(np.int64), src[via_rows]
        )
    return pids


def _eval_oneway(
    net: Network,
    m: Method,
    pid1: np.ndarray,
    pid2: np.ndarray | None,
    times: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lost1, lat1, lost2, lat2) for one-way probes of one method."""
    if pid2 is None:
        out = net.sample_packets(pid1, times, rng=rng)
        n = len(times)
        return out.lost, out.latency, np.zeros(n, bool), np.full(n, np.nan)
    pair: PairOutcome = net.sample_pairs(pid1, pid2, times, gap=m.gap_s, rng=rng)
    return pair.lost1, pair.latency1, pair.lost2, pair.latency2


def _eval_rtt(
    net: Network,
    m: Method,
    src: np.ndarray,
    dst: np.ndarray,
    relay1: np.ndarray,
    relay2: np.ndarray | None,
    pid1: np.ndarray,
    pid2: np.ndarray | None,
    times: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Round-trip evaluation: forward leg then response on the reverse route.

    The response is only sent if the forward packet arrived; we evaluate
    both directions vectorised and combine (a response for a lost
    forward packet never existed, so 'lost either way' is correct).
    """
    paths = net.paths
    rpid1 = _reverse_pids(paths, src, dst, relay1)
    if pid2 is None:
        fwd = net.sample_packets(pid1, times, rng=rng)
        back_t = times + np.nan_to_num(fwd.latency, nan=0.0) + RTT_TURNAROUND_S
        back = net.sample_packets(rpid1, back_t, rng=rng)
        lost = fwd.lost | back.lost
        rtt = fwd.latency + back.latency + RTT_TURNAROUND_S
        n = len(times)
        return lost, rtt, np.zeros(n, bool), np.full(n, np.nan)
    assert relay2 is not None
    rpid2 = _reverse_pids(paths, src, dst, relay2)
    fwd = net.sample_pairs(pid1, pid2, times, gap=m.gap_s, rng=rng)
    back_t = times + np.nan_to_num(fwd.latency1, nan=0.0) + RTT_TURNAROUND_S
    back = net.sample_pairs(rpid1, rpid2, back_t, gap=m.gap_s, rng=rng)
    lost1 = fwd.lost1 | back.lost1
    lost2 = fwd.lost2 | back.lost2
    rtt1 = fwd.latency1 + back.latency1 + RTT_TURNAROUND_S
    rtt2 = fwd.latency2 + back.latency2 + RTT_TURNAROUND_S
    return lost1, rtt1, lost2, rtt2


def prepare_collection_base(
    spec: DatasetSpec,
    duration_s: float,
    seed: int = 0,
    include_events: bool = True,
    network: Network | None = None,
    substrate: str = "eager",
    max_cached_segments: int | None = None,
) -> CollectionPlan:
    """The non-probing shared stages: substrate, schedule, run meta.

    Everything :func:`prepare_collection` builds *except* the probing
    subsystem and routing tables — the returned plan has
    ``tables=None``, and the probing parameters they are built from
    when a method needs them.  The engine (:mod:`repro.engine.sharding`)
    starts from this plan and overlaps table construction with
    collection instead of finishing it here.  The dataset's network
    config is built at most once, and only when the network is built
    here or a method needs probing.  ``substrate`` /
    ``max_cached_segments`` configure that build (see
    :meth:`Network.build`) and are ignored for a prebuilt network.
    Every RNG substream is named (``schedule``, ``probing/<host>``,
    ...), so building the schedule without — or before — probing
    changes no draw: composing this with the probe/tables stages in any
    order yields the bitwise-identical plan.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rngs = RngFactory(seed)
    methods = tuple(METHODS.lookup(name) for name in spec.probe_methods)
    needs_probing = any(m.needs_probing for m in methods)
    cfg = None
    if network is None or needs_probing:
        cfg = spec.network_config(duration_s, include_events=include_events)
    hosts = spec.hosts()
    if network is None:
        network = Network.build(
            hosts,
            cfg,
            duration_s,
            seed=seed,
            substrate=substrate,
            max_cached_segments=max_cached_segments,
            relay_policy=spec.relay_policy,
        )
    else:
        built = network.topology.relay_policy
        if built != spec.relay_policy:
            raise ValueError(
                f"prebuilt network was built with relay policy {built!r}, "
                f"but dataset {spec.name!r} specifies {spec.relay_policy!r}"
            )

    sched_rng = rngs.stream("schedule")
    sched = generate_schedule(len(hosts), len(methods), duration_s, sched_rng)

    meta = TraceMeta(
        dataset=spec.name,
        mode=spec.mode,
        horizon_s=duration_s,
        seed=seed,
        host_names=tuple(h.name for h in hosts),
        method_names=tuple(m.name for m in methods),
    )
    return CollectionPlan(
        meta=meta,
        seed=seed,
        network=network,
        methods=methods,
        tables=None,
        sched=sched,
        bounds=sched.source_bounds(len(hosts)),
        include_events=include_events,
        probing=cfg.probing if needs_probing else None,
    )


def prepare_collection(
    spec: DatasetSpec,
    duration_s: float,
    seed: int = 0,
    include_events: bool = True,
    network: Network | None = None,
) -> CollectionPlan:
    """Run the shared stages of a collection, exactly once per run.

    Substrate build (unless ``network`` is passed in), the probing
    subsystem, routing tables and the measurement schedule — the plan
    :func:`collect_rows` evaluates against.
    """
    plan = prepare_collection_base(
        spec, duration_s, seed=seed, include_events=include_events, network=network
    )

    # the probing subsystem + routing tables (if any method needs them)
    if plan.probing is not None:
        rngs = RngFactory(seed)
        tables: RoutingTables | None = None
        with telemetry.span("probe", cat="stage", hosts=plan.n_hosts):
            series = run_probing(plan.network, plan.probing, rngs)
        with telemetry.span("tables", cat="stage", hosts=plan.n_hosts):
            tables = build_routing_tables(
                series, plan.probing, relay_set=plan.network.paths.relay_set
            )
        plan = replace(plan, tables=tables)
    return plan


def collect_rows(plan: CollectionPlan, host_lo: int, host_hi: int) -> Trace:
    """Route and evaluate the source blocks ``[host_lo, host_hi)``.

    Returns a partial :class:`Trace` (full run meta, schedule row order)
    covering exactly those hosts' probes.  Each block consumes its own
    ``routes/<host>`` and ``traffic/<host>`` substreams, so the result
    is identical whether blocks run in one call or across threads.
    """
    with telemetry.span("shard-collect", cat="shard", host_lo=host_lo, host_hi=host_hi):
        trace = _collect_rows(plan, host_lo, host_hi)
    rec = telemetry.get_recorder()
    if rec.enabled:
        rec.counter_add("collect.rows", len(trace))
    return trace


def _collect_rows(plan: CollectionPlan, host_lo: int, host_hi: int) -> Trace:
    if not 0 <= host_lo < host_hi <= plan.n_hosts:
        raise ValueError(f"invalid host range [{host_lo}, {host_hi})")
    network, sched, mode = plan.network, plan.sched, plan.meta.mode
    rngs = RngFactory(plan.seed)
    hid = plan.host_dtype
    lo, hi = int(plan.bounds[host_lo]), int(plan.bounds[host_hi])
    n = hi - lo
    relay1 = np.full(n, -1, dtype=hid)
    relay2 = np.full(n, -1, dtype=hid)
    lost1 = np.zeros(n, dtype=bool)
    lost2 = np.zeros(n, dtype=bool)
    lat1 = np.full(n, np.nan, dtype=np.float32)
    lat2 = np.full(n, np.nan, dtype=np.float32)

    # 3. route + evaluate, one source block at a time
    for h in range(host_lo, host_hi):
        blo, bhi = int(plan.bounds[h]), int(plan.bounds[h + 1])
        if blo == bhi:
            continue
        route_rng = rngs.stream("routes", str(h))
        traffic_rng = rngs.stream("traffic", str(h))
        block_methods = sched.method_id[blo:bhi]
        for mid, m in enumerate(plan.methods):
            mask = block_methods == mid
            if not mask.any():
                continue
            src = sched.src[blo:bhi][mask]
            dst = sched.dst[blo:bhi][mask]
            times = sched.t_send[blo:bhi][mask]
            routes = resolve_routes(m, src, dst, times, network.paths, plan.tables, route_rng)
            if mode == "oneway":
                l1, la1, l2, la2 = _eval_oneway(
                    network, m, routes.pid1, routes.pid2, times, traffic_rng
                )
            else:
                l1, la1, l2, la2 = _eval_rtt(
                    network,
                    m,
                    src,
                    dst,
                    routes.relay1,
                    routes.relay2,
                    routes.pid1,
                    routes.pid2,
                    times,
                    traffic_rng,
                )
            sel = np.flatnonzero(mask) + (blo - lo)
            relay1[sel] = routes.relay1
            if routes.relay2 is not None:
                relay2[sel] = routes.relay2
            lost1[sel] = l1
            lost2[sel] = l2
            lat1[sel] = np.where(l1, np.nan, la1)
            lat2[sel] = np.where(l2, np.nan, la2)

    # 4. host-failure exclusions (the collector-side ground truth; the
    # paper's trace-side detection lives in repro.trace.filters)
    src_rows = sched.src[lo:hi]
    dst_rows = sched.dst[lo:hi]
    t_rows = sched.t_send[lo:hi]
    send_down = network.state.host_down_at(src_rows, t_rows)
    recv_down = network.state.host_down_at(dst_rows, t_rows)
    excluded = send_down | recv_down
    # probes to a dead receiver are also losses on the wire
    pair_mask = np.array([m.is_pair for m in plan.methods])[sched.method_id[lo:hi]]
    lost1 |= recv_down
    lost2 |= recv_down & pair_mask

    return Trace(
        meta=plan.meta,
        probe_id=sched.probe_id[lo:hi],
        method_id=sched.method_id[lo:hi],
        src=src_rows.astype(hid),
        dst=dst_rows.astype(hid),
        t_send=t_rows,
        relay1=relay1,
        relay2=relay2,
        lost1=lost1,
        lost2=lost2,
        latency1=lat1,
        latency2=lat2,
        excluded=excluded,
    )


def collect(
    spec: DatasetSpec,
    duration_s: float,
    seed: int = 0,
    include_events: bool = True,
    network: Network | None = None,
) -> CollectionResult:
    """Collect a dataset: the full pipeline, time-compressed to
    ``duration_s``.

    Pass a prebuilt ``network`` to reuse substrate state across
    collections (ablations that compare methods on identical weather).
    """
    plan = prepare_collection(
        spec, duration_s, seed=seed, include_events=include_events, network=network
    )
    # concatenate of one part applies the canonical probe_id ordering
    trace = Trace.concatenate([collect_rows(plan, 0, plan.n_hosts)])
    return CollectionResult(trace=trace, network=plan.network, tables=plan.tables)
