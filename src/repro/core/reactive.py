"""Probe-based reactive overlay routing, vectorised (Section 3.1).

"In the system we evaluate, every node probes every other node once
every 15 seconds.  [...] The paths are selected based upon the average
loss rate over the last 100 probes."

:func:`run_probing` simulates that probing subsystem for a whole
collection run at once: one direct probe per ordered pair per 15-second
grid slot (with a stable per-pair phase), evaluated against the network
substrate.  :func:`build_routing_tables` turns the outcome series into
per-grid-slot best/runner-up path choices for both optimisation
criteria.  The event-driven node in :mod:`repro.testbed.ron` implements
the identical protocol probe-by-probe; tests cross-validate the two.

Execution model
---------------
Like the measurement pipeline, probing splits into independent *source
blocks*: :func:`prepare_probing` fixes the shared slot grid, and
:func:`probe_rows` evaluates every probe sent *by* one contiguous range
of source hosts, with each host drawing its phases and packet fates
from its own named substream (``probing/<host>``).  A block therefore
depends only on (network, params, seed, host) — never on which other
blocks ran alongside it — which is what lets
:class:`repro.engine.ShardedCollector` farm blocks out across cores,
and any block layout merge (:func:`merge_probe_blocks`) into the
bitwise-identical :class:`ProbeSeries`.  :func:`build_routing_tables`
(every source row) and :func:`build_table_block` (one shard's rows)
then select paths for all slots through
:func:`~repro.core.selector.select_paths_block`, in slot blocks that
bound its option-last (g, w, n, k) candidate tensors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.netsim.config import ProbingParams
from repro.netsim.network import Network
from repro.netsim.rng import RngFactory
from repro.trace.records import id_dtype

from .selector import SelectionTables, select_paths_block

__all__ = [
    "ProbeSeries",
    "RoutingTables",
    "RoutingTableBlock",
    "ProbingPlan",
    "ProbeBlock",
    "prepare_probing",
    "probe_rows",
    "merge_probe_blocks",
    "run_probing",
    "probe_estimates",
    "build_routing_tables",
    "build_table_block",
    "assemble_routing_tables",
]


def _digest(arrays) -> str:
    """SHA-256 over the raw bytes of a sequence of arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class ProbeSeries:
    """Outcomes of the probing subsystem on the 15-second grid.

    ``lost``/``latency`` are (G, n, n); the diagonal is meaningless.
    ``latency`` is NaN where the probe died.
    """

    interval: float
    lost: np.ndarray
    latency: np.ndarray

    @property
    def n_slots(self) -> int:
        return self.lost.shape[0]

    @property
    def n_hosts(self) -> int:
        return self.lost.shape[1]

    def fingerprint(self) -> str:
        """SHA-256 over the outcome arrays: bitwise identity witness."""
        return _digest((self.lost, self.latency))


class _SlotLookup:
    """The lookup rule of :class:`RoutingTables` and
    :class:`RoutingTableBlock`: one slot mapping, one criterion map."""

    @property
    def n_slots(self) -> int:
        return self.loss_best.shape[0]

    def slot_of(self, times: np.ndarray) -> np.ndarray:
        """Grid slot in force at each time, clamped to the horizon.

        Times past the last slot (and before the first) clamp rather
        than index out of bounds: stale tables stay in force, exactly
        like a real node that has stopped hearing fresh probes.
        """
        g = (np.asarray(times, dtype=np.float64) // self.interval).astype(np.int64)
        return np.clip(g, 0, self.n_slots - 1)

    def _table(self, criterion: str, alternate: bool) -> np.ndarray:
        table = {
            ("loss", False): self.loss_best,
            ("loss", True): self.loss_second,
            ("lat", False): self.lat_best,
            ("lat", True): self.lat_second,
        }.get((criterion, alternate))
        if table is None:
            raise ValueError(f"unknown criterion {criterion!r} (use 'loss' or 'lat')")
        return table


@dataclass
class RoutingTables(_SlotLookup):
    """Best/runner-up choices per grid slot, pair and criterion.

    Entries are relay indices or :data:`~repro.core.selector.DIRECT`.
    ``lookup`` maps packet send times to the table in force at that
    moment (the newest grid slot at or before the send time), which
    reproduces the staleness of real probe-driven routing.
    """

    interval: float
    loss_best: np.ndarray  # (G, n, n) id_dtype(n); int16 below 32768 hosts
    loss_second: np.ndarray
    lat_best: np.ndarray
    lat_second: np.ndarray
    loss_est: np.ndarray  # (G, n, n) float32 leg estimates (diagnostics)
    failed: np.ndarray  # (G, n, n) bool

    def lookup(
        self,
        criterion: str,
        times: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        alternate: bool = False,
    ) -> np.ndarray:
        """Relay chosen for (src, dst) at each time; DIRECT for direct."""
        return self._table(criterion, alternate)[self.slot_of(times), src, dst]

    def fingerprint(self) -> str:
        """SHA-256 over every table array: bitwise identity witness."""
        return _digest(
            (
                self.loss_best,
                self.loss_second,
                self.lat_best,
                self.lat_second,
                self.loss_est,
                self.failed,
            )
        )


@dataclass
class RoutingTableBlock(_SlotLookup):
    """Rows ``[host_lo, host_hi)`` of a run's :class:`RoutingTables`.

    Built per collection shard by the engine
    (:mod:`repro.engine.sharding`), so a shard can start routing the
    moment *its* source rows are selected instead of waiting for the
    whole mesh's tables.  Arrays are (G, host_hi - host_lo, n); row
    ``s - host_lo`` is bitwise identical to row ``s`` of the full
    tables (:func:`~repro.core.selector.select_paths_block`).

    ``lookup`` duck-types :meth:`RoutingTables.lookup` for sources
    inside the block — all a collection shard ever asks about —
    offsetting ``src`` by ``host_lo``; sources outside the block raise.
    """

    interval: float
    host_lo: int
    host_hi: int
    loss_best: np.ndarray  # (G, host_hi - host_lo, n) id_dtype(n)
    loss_second: np.ndarray
    lat_best: np.ndarray
    lat_second: np.ndarray

    def lookup(
        self,
        criterion: str,
        times: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        alternate: bool = False,
    ) -> np.ndarray:
        """Relay chosen for (src, dst) at each time; DIRECT for direct.

        The slot mapping and table semantics of
        :meth:`RoutingTables.lookup`; only the source axis is offset
        into the block.
        """
        table = self._table(criterion, alternate)
        rows = np.asarray(src, dtype=np.int64) - self.host_lo
        if rows.size and (rows.min() < 0 or rows.max() >= self.host_hi - self.host_lo):
            raise IndexError(f"source outside table block [{self.host_lo}, {self.host_hi})")
        return table[self.slot_of(times), rows, dst]


@dataclass(frozen=True, eq=False)
class ProbingPlan:
    """Everything the source blocks of one probing run share, read-only.

    Built once by :func:`prepare_probing` and handed to every
    :func:`probe_rows` evaluator — the serial loop in
    :func:`run_probing` or the probe shards of
    :class:`repro.engine.ShardedCollector`.
    """

    network: Network
    params: ProbingParams
    rngs: RngFactory
    n_slots: int

    @property
    def n_hosts(self) -> int:
        return self.network.topology.n_hosts

    @property
    def interval(self) -> float:
        return self.params.probe_interval_s


@dataclass(frozen=True, eq=False)
class ProbeBlock:
    """Probe outcomes for the source hosts ``[host_lo, host_hi)``.

    ``lost``/``latency`` are (G, host_hi - host_lo, n): row ``h -
    host_lo`` holds host ``h``'s probes toward every destination.
    """

    host_lo: int
    host_hi: int
    lost: np.ndarray
    latency: np.ndarray


def prepare_probing(
    network: Network,
    params: ProbingParams,
    rngs: RngFactory,
) -> ProbingPlan:
    """Fix the shared state of one probing run (the slot grid)."""
    n_slots = max(int(network.horizon // params.probe_interval_s), 1)
    return ProbingPlan(network=network, params=params, rngs=rngs, n_slots=n_slots)


def probe_rows(plan: ProbingPlan, host_lo: int, host_hi: int) -> ProbeBlock:
    """Evaluate every probe sent by the source hosts ``[host_lo, host_hi)``.

    Each host draws its per-destination phases and packet fates from its
    own ``probing/<host>`` substream, so the block is identical whether
    it runs alone, alongside other blocks, or inside one big range —
    the invariant behind the engine's probe shards.  Probes to
    or from a failed host are counted as lost — which is exactly what
    lets reactive routing route around host and access failures.
    """
    from repro import telemetry  # leaf import; keeps core's netsim-only surface

    with telemetry.span("shard-probe", cat="shard", host_lo=host_lo, host_hi=host_hi):
        block = _probe_block(plan, host_lo, host_hi)
    rec = telemetry.get_recorder()
    if rec.enabled:
        rec.counter_add(
            "probe.probes", block.lost.shape[0] * (host_hi - host_lo) * (plan.n_hosts - 1)
        )
    return block


def _probe_block(plan: ProbingPlan, host_lo: int, host_hi: int) -> ProbeBlock:
    n = plan.n_hosts
    if not 0 <= host_lo < host_hi <= n:
        raise ValueError(f"invalid host range [{host_lo}, {host_hi})")
    network, interval, n_slots = plan.network, plan.interval, plan.n_slots
    width = host_hi - host_lo
    lost = np.zeros((n_slots, width, n), dtype=bool)
    latency = np.full((n_slots, width, n), np.nan, dtype=np.float32)
    hosts = np.arange(n)

    for h in range(host_lo, host_hi):
        rng = plan.rngs.stream("probing", str(h))
        dst = hosts[hosts != h]
        n_dst = len(dst)
        if n_dst == 0:
            continue
        pids = network.paths.direct_pids(np.full(n_dst, h), dst)
        phase = rng.uniform(0.0, interval, n_dst)
        row = h - host_lo

        # evaluate slot-blocks in batches to bound memory; the block
        # size depends only on n, so every shard layout draws the
        # host's stream in the identical order
        block = max(1, int(2_000_000 // n_dst))
        for g0 in range(0, n_slots, block):
            g1 = min(g0 + block, n_slots)
            slots = np.arange(g0, g1)
            times = (slots[:, None] * interval + phase[None, :]).ravel()
            b_pids = np.tile(pids, g1 - g0)
            out = network.sample_packets(b_pids, times, rng=rng)
            b_lost = out.lost.reshape(g1 - g0, n_dst)
            b_lat = out.latency.reshape(g1 - g0, n_dst)

            # host failures take whole nodes out: probes die
            down = network.state.host_down_at(
                np.tile(dst, g1 - g0), times
            ) | network.state.host_down_at(np.full((g1 - g0) * n_dst, h), times)
            b_lost |= down.reshape(g1 - g0, n_dst)

            lost[g0:g1, row, dst] = b_lost
            latency[g0:g1, row, dst] = np.where(b_lost, np.nan, b_lat)

    return ProbeBlock(host_lo=host_lo, host_hi=host_hi, lost=lost, latency=latency)


def merge_probe_blocks(plan: ProbingPlan, blocks) -> ProbeSeries:
    """Assemble source blocks into the full (G, n, n) probe series.

    Blocks may arrive in any order but must tile ``range(n_hosts)``
    exactly once; gaps and overlaps raise with the offending hosts.
    """
    n, n_slots = plan.n_hosts, plan.n_slots
    lost = np.zeros((n_slots, n, n), dtype=bool)
    latency = np.full((n_slots, n, n), np.nan, dtype=np.float32)
    covered = np.zeros(n, dtype=bool)
    for b in blocks:
        if covered[b.host_lo : b.host_hi].any():
            raise ValueError(f"overlapping probe blocks at hosts [{b.host_lo}, {b.host_hi})")
        covered[b.host_lo : b.host_hi] = True
        lost[:, b.host_lo : b.host_hi, :] = b.lost
        latency[:, b.host_lo : b.host_hi, :] = b.latency
    if not covered.all():
        missing = np.flatnonzero(~covered)
        raise ValueError(f"probe blocks left source hosts {missing.tolist()} uncovered")
    return ProbeSeries(interval=plan.interval, lost=lost, latency=latency)


def run_probing(
    network: Network,
    params: ProbingParams,
    rngs: RngFactory,
) -> ProbeSeries:
    """Simulate the all-pairs probing subsystem over the whole horizon.

    Each ordered pair is probed once per ``probe_interval_s`` with a
    stable per-pair phase.  This is the one-block case of the sharded
    evaluator: ``prepare_probing`` + a single ``probe_rows`` over every
    source host, so any shard layout of ``probe_rows`` blocks merges
    to the bitwise-identical series by construction.
    """
    plan = prepare_probing(network, params, rngs)
    return merge_probe_blocks(plan, [probe_rows(plan, 0, plan.n_hosts)])


def _rolling_mean_excl(x: np.ndarray, window: int) -> np.ndarray:
    """Rolling mean over the last ``window`` entries *before* each index.

    ``x`` is (G, ...); output[g] averages x[max(0, g-window) : g], and
    output[0] is 0 (a fresh node trusts every path).
    """
    cs = np.cumsum(x, axis=0, dtype=np.float64)
    cs = np.concatenate([np.zeros((1,) + x.shape[1:]), cs], axis=0)  # cs[g] = sum x[:g]
    g = np.arange(x.shape[0])
    lo = np.maximum(g - window, 0)
    counts = (g - lo).astype(np.float64)
    counts[0] = 1.0  # avoid 0/0; numerator is 0 there anyway
    sums = cs[g] - cs[lo]
    return sums / counts.reshape((-1,) + (1,) * (x.ndim - 1))


#: slot-block budget for batched selection: bounds the (B, w, n, k)
#: float64 candidate tensors of select_paths_block (w source rows, k <= n
#: options per pair) to ~16 MB apiece
#: (larger blocks lose more to cache pressure than they save in trips
#: through Python; measured at n=100 in benchmarks/test_probing_scaling).
_SELECT_BUDGET = 2_000_000


def _slot_block(n: int, n_options: int | None = None, budget: int = _SELECT_BUDGET) -> int:
    """How many slots to select at once for an n-host mesh.

    ``n_options`` is the per-pair option count the selector will build
    (the relay axis): ``n`` for the broadcast builder (every host a
    candidate), the candidate set's ragged maximum for the gather
    builder — which is what lets restrictive relay policies select far
    more slots per pass inside the same memory bound.
    """
    if n_options is None:
        n_options = n
    return max(1, int(budget // max(n * n * max(n_options, 1), 1)))


def probe_estimates(
    series: ProbeSeries,
    params: ProbingParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot leg estimates ``(loss_est, lat_est, failed)``, each (G, n, n).

    The estimate in force during slot ``g`` uses probes from slots
    ``< g`` only — routing reacts with at least one probe interval of
    lag, like the real system.

    Every output column depends only on its own (source, destination)
    probe series — the rolling windows run along the slot axis — so
    feeding a series whose rows are one :class:`ProbeBlock`'s source
    range yields exactly those rows of the full-mesh estimates, bitwise.
    The engine folds estimates per probe shard this way while other
    shards are still probing.
    """
    g_total = series.n_slots
    lost = series.lost.astype(np.float64)

    loss_est = _rolling_mean_excl(lost, params.loss_window)

    # latency: mean over delivered probes among the last latency_window
    lat_vals = np.nan_to_num(series.latency.astype(np.float64), nan=0.0)
    delivered = ~np.isnan(series.latency)
    sum_lat = _rolling_mean_excl(lat_vals, params.latency_window)
    frac_ok = _rolling_mean_excl(delivered.astype(np.float64), params.latency_window)
    with np.errstate(invalid="ignore", divide="ignore"):
        lat_est = np.where(frac_ok > 0, sum_lat / frac_ok, np.inf)

    # failure detection: last F probes all lost
    frac_lost_f = _rolling_mean_excl(lost, params.failure_detect_probes)
    g = np.arange(g_total)
    enough = (np.minimum(g, params.failure_detect_probes) == params.failure_detect_probes)
    failed = (frac_lost_f >= 1.0) & enough.reshape(-1, 1, 1)
    return loss_est, lat_est, failed


def _select_rows(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    margin: float,
    host_lo: int,
    host_hi: int,
    relay_set,
) -> SelectionTables:
    """Table rows ``[host_lo, host_hi)`` of every slot, in slot blocks.

    The slot loop of both :func:`build_routing_tables` and
    :func:`build_table_block`.  Blocks are sized by :func:`_slot_block`
    from the full mesh's ``n``, so the memory bound holds however the
    sources are cut.  Each public builder is one selection pass of its
    own (the benchmark's selector layer counts them per call), so
    neither calls the other.
    """
    g_total, n = loss_est.shape[0], loss_est.shape[1]
    shape = (g_total, host_hi - host_lo, n)
    out = SelectionTables(*(np.empty(shape, dtype=id_dtype(n)) for _ in range(4)))
    gather = relay_set is not None and not relay_set.is_complete
    block = _slot_block(n, relay_set.max_k + 1 if gather else None)
    for g0 in range(0, g_total, block):
        g1 = min(g0 + block, g_total)
        part = select_paths_block(
            loss_est[g0:g1],
            lat_est[g0:g1],
            failed[g0:g1],
            host_lo,
            host_hi,
            margin,
            relay_set=relay_set,
        )
        out.loss_best[g0:g1] = part.loss_best
        out.loss_second[g0:g1] = part.loss_second
        out.lat_best[g0:g1] = part.lat_best
        out.lat_second[g0:g1] = part.lat_second
    return out


def build_routing_tables(
    series: ProbeSeries,
    params: ProbingParams,
    relay_set=None,
) -> RoutingTables:
    """Turn probe outcomes into per-slot best-path choices.

    Estimates come from :func:`probe_estimates`; selection runs through
    :func:`~repro.core.selector.select_paths_block` over every source
    row, in slot blocks sized by :func:`_slot_block`, elementwise
    identical to selecting slot by slot.  When ``relay_set`` is given,
    selection only considers each pair's relay candidates.
    """
    loss_est, lat_est, failed = probe_estimates(series, params)
    t = _select_rows(
        loss_est, lat_est, failed, params.selection_margin, 0, series.n_hosts, relay_set
    )
    return RoutingTables(
        interval=series.interval,
        loss_best=t.loss_best,
        loss_second=t.loss_second,
        lat_best=t.lat_best,
        lat_second=t.lat_second,
        loss_est=loss_est.astype(np.float32),
        failed=failed,
    )


def build_table_block(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    interval: float,
    params: ProbingParams,
    host_lo: int,
    host_hi: int,
    relay_set=None,
) -> RoutingTableBlock:
    """Select routing-table rows ``[host_lo, host_hi)`` from full estimates.

    The per-source-range half of :func:`build_routing_tables`: the same
    slot loop over :func:`~repro.core.selector.select_paths_block`, row
    for row bitwise identical to the full build.  The estimates must be
    the full (G, n, n) arrays from :func:`probe_estimates`; relay legs
    reach every host whatever the source range.  ``relay_set`` limits
    selection to each pair's relay candidates.
    """
    t = _select_rows(
        loss_est, lat_est, failed, params.selection_margin, host_lo, host_hi, relay_set
    )
    return RoutingTableBlock(
        interval=interval,
        host_lo=host_lo,
        host_hi=host_hi,
        loss_best=t.loss_best,
        loss_second=t.loss_second,
        lat_best=t.lat_best,
        lat_second=t.lat_second,
    )


def assemble_routing_tables(
    interval: float,
    loss_est: np.ndarray,
    failed: np.ndarray,
    blocks,
) -> RoutingTables:
    """Assemble per-range table blocks into the full :class:`RoutingTables`.

    Blocks may arrive in any order but must tile ``range(n)`` exactly
    once; gaps and overlaps raise with the offending hosts (the same
    contract as :func:`merge_probe_blocks`).  On the estimates the
    blocks were built from, the result is bitwise identical to
    :func:`build_routing_tables` — how the engine hands back the same
    ``CollectionResult.tables`` as the sequential :func:`collect`.
    """
    g_total, n = loss_est.shape[0], loss_est.shape[1]
    loss_best = np.empty((g_total, n, n), dtype=id_dtype(n))
    loss_second = np.empty_like(loss_best)
    lat_best = np.empty_like(loss_best)
    lat_second = np.empty_like(loss_best)
    covered = np.zeros(n, dtype=bool)
    for b in blocks:
        if covered[b.host_lo : b.host_hi].any():
            raise ValueError(f"overlapping table blocks at hosts [{b.host_lo}, {b.host_hi})")
        covered[b.host_lo : b.host_hi] = True
        loss_best[:, b.host_lo : b.host_hi, :] = b.loss_best
        loss_second[:, b.host_lo : b.host_hi, :] = b.loss_second
        lat_best[:, b.host_lo : b.host_hi, :] = b.lat_best
        lat_second[:, b.host_lo : b.host_hi, :] = b.lat_second
    if not covered.all():
        missing = np.flatnonzero(~covered)
        raise ValueError(f"table blocks left source hosts {missing.tolist()} uncovered")
    return RoutingTables(
        interval=interval,
        loss_best=loss_best,
        loss_second=loss_second,
        lat_best=lat_best,
        lat_second=lat_second,
        loss_est=loss_est.astype(np.float32),
        failed=failed,
    )
