"""The engine: one collection, sharded by source host, stages overlapped.

:class:`ShardedCollector` partitions a run's source hosts into
contiguous shards (:func:`plan_shards`), evaluates each shard against
the shared read-only :class:`~repro.netsim.network.Network`, inline or
on a thread pool, and merges the partial traces into canonical
probe-id order.  The shard layout cannot affect the output:
every source block draws from its own named RNG substreams
(``probing/<host>``, ``routes/<host>``, ``traffic/<host>``), so 1 shard,
2 shards or one shard per host all fingerprint identically to the
sequential :func:`repro.testbed.collect`.

The scheduler keeps the stages (probe, tables, collect, merge) but only
the one barrier the data flow forces:

* **probe ↔ estimate fold** — :func:`~repro.core.reactive.probe_estimates`
  is column-independent (the rolling windows run along the slot axis),
  so each probe shard's rows of the full-mesh estimates are folded the
  moment that shard lands.  The probe → tables boundary is the true
  barrier: reactive routing reads the last probes of every leg, and a
  relay leg can reach any host, so selection waits for the last fold.
* **tables ↔ collect** — selection is row-independent
  (:func:`~repro.core.selector.select_paths_block`), so tables are built
  per collection-shard source range and each shard is submitted the
  moment *its* :class:`~repro.core.reactive.RoutingTableBlock` is ready:
  block ``j+1`` selects while shard ``j`` collects.
* **collect ↔ merge / ingest** — the collection plan already holds every
  row's probe id, so each row's merge destination is known up front
  (:class:`repro.trace.store.StreamingMerge`) and each finished shard is
  scattered, and fed to the streaming analyzer, while later shards
  still run.

Stage overlap moves wall-clock idle time, never a byte (held by the
equivalence zoos under ``tests/engine/``).  With telemetry enabled the
run records ``stage`` spans post hoc (overlapping stages cannot nest),
per-shard pool queue waits, and, for spilled runs, a manifest in the
run directory (see :mod:`repro.telemetry`).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core.reactive import (
    ProbeSeries,
    ProbingPlan,
    RoutingTableBlock,
    assemble_routing_tables,
    build_table_block,
    prepare_probing,
    probe_estimates,
    probe_rows,
)
from repro.netsim.network import Network
from repro.netsim.rng import RngFactory
from repro.netsim.state import check_cache_budget
from repro.telemetry import clock as _tclock
from repro.testbed.collection import (
    CollectionResult,
    collect_rows,
    prepare_collection_base,
)
from repro.testbed.datasets import DatasetSpec
from repro.trace.store import StreamingMerge

from .spill import SpillPlan, clear_run_dir, collect_rows_spilled, run_slug

__all__ = ["EngineConfig", "ShardedCollector", "plan_shards", "always_shard"]

_EXECUTORS = ("serial", "thread")
_SUBSTRATES = ("eager", "lazy")


def plan_shards(n_hosts: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous host ranges ``[lo, hi)`` covering ``range(n_hosts)``.

    Shard sizes differ by at most one host; asking for more shards than
    hosts yields one host per shard.
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    if n_shards < 1:
        raise ValueError("need at least one shard")
    n_shards = min(n_shards, n_hosts)
    base, extra = divmod(n_hosts, n_shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for i in range(n_shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class EngineConfig:
    """How the engine should execute one large collection.

    ``n_shards=None`` means one shard per available core; probing and
    collection fan out over the same host ranges.  The ``executor``
    defaults to ``"thread"`` (the kernels are NumPy-heavy and release
    the GIL); ``"serial"`` runs every task inline (debugging, tests,
    one-worker runs).  ``min_hosts`` is the scenario size at which
    :class:`repro.api.Runner` switches a run from the sequential
    pipeline to the engine.  ``substrate="lazy"`` builds networks with
    on-demand timeline generation, bounded by an LRU budget of
    ``max_cached_segments`` per cause if one is set (a budget needs
    the lazy substrate: the eager one caches nothing).

    Out-of-core runs: ``spill_dir`` makes every shard write its partial
    trace to disk as it completes and the merge scatter into
    memory-mapped arrays (see :mod:`repro.engine.spill`), and
    ``max_resident_shards`` caps how many shards may be in flight — and
    therefore resident — at once.  Each run spills into its own
    subdirectory ``<spill_dir>/<dataset>-seed<seed>-<identity hash>/``
    (see :func:`repro.engine.spill.run_slug`; sweeps over any spec axis
    may share one ``spill_dir``); the merged trace's columns are
    read-only memory maps under its ``merged/``.

    The engine parallelises *within* one run; the runner's
    ``max_workers`` parallelises *across* runs.  Combining both
    oversubscribes cores (each concurrent run spawns its own shard
    pool), so engine sweeps should keep ``Runner(max_workers=1)`` (the
    default) or cap per-run width via ``max_workers`` here.
    """

    n_shards: int | None = None
    executor: str = "thread"
    max_workers: int | None = None
    min_hosts: int = 32
    substrate: str = "eager"
    max_cached_segments: int | None = None
    spill_dir: str | Path | None = None
    max_resident_shards: int | None = None

    def __post_init__(self) -> None:
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError("n_shards must be None (auto) or >= 1")
        if self.executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {self.executor!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be None or >= 1")
        if self.min_hosts < 1:
            raise ValueError("min_hosts must be >= 1")
        if self.substrate not in _SUBSTRATES:
            raise ValueError(f"substrate must be one of {_SUBSTRATES}, got {self.substrate!r}")
        check_cache_budget(self.substrate, self.max_cached_segments)
        if self.max_resident_shards is not None:
            if self.max_resident_shards < 1:
                raise ValueError("max_resident_shards must be None or >= 1")
            if self.spill_dir is None:
                raise ValueError(
                    "max_resident_shards bounds spilled shards in flight; "
                    "it needs spill_dir"
                )

    @property
    def resolved_substrate(self) -> str:
        """The same as :attr:`substrate`.  Kept only because the
        benchmark's ``perfbench/workloads.py`` reads it; the program
        reads ``substrate``."""
        return self.substrate


# -- the pool ----------------------------------------------------------------


class _InlineExecutor(Executor):
    """The ``serial`` executor: each task runs on the caller's thread,
    at submit."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


class _ShardPool:
    """The one place executors differ.

    ``serial`` runs every task inline, at submit; ``thread`` calls
    ``kernel(plan, lo, hi)`` on a pool of ``workers`` threads.
    Routing-table blocks are selected on :attr:`tables`, one at a time
    (inline for ``serial``): width 1 keeps the tables/collect overlap
    deterministic, and the selection kernels release the GIL anyway.
    """

    def __init__(self, executor: str, workers: int) -> None:
        self.tables: Executor = _InlineExecutor()
        self.shards: Executor = self.tables
        if executor == "thread":
            self.tables = ThreadPoolExecutor(max_workers=1)
            self.shards = ThreadPoolExecutor(max_workers=workers)

    def submit(self, plan, bounds: tuple[int, int], *, kernel) -> Future:
        """Evaluate ``kernel(plan, *bounds)`` for one shard."""
        return self.shards.submit(kernel, plan, *bounds)

    def __enter__(self) -> "_ShardPool":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        for executor in (self.shards, self.tables):
            executor.shutdown(wait=True, cancel_futures=exc_type is not None)


def _result(fut: Future, stage: str, bounds: tuple[int, int]):
    """A finished task's value.  A task that raised re-raises its own
    exception, noted with the ``stage`` and host range it ran."""
    try:
        return fut.result()
    except Exception as exc:
        exc.add_note(f"raised in {stage} shard [{bounds[0]}, {bounds[1]})")
        raise


#: which per-stage counter suffix a shard span's waits fold into.
#: ``spill-write`` spans get the args annotation but no counter: the
#: write happens inside an already-executing shard, so its "wait" is
#: the same pool wait the enclosing ``shard-collect`` span reports.
_SPAN_STAGE = {"shard-probe": "probe", "shard-collect": "collect"}


def _annotate_shard_waits(recorder, events, submit_ns: dict) -> None:
    """Stamp per-shard queue wait onto the shard spans of one fan-out.

    ``submit_ns`` maps each shard's ``(host_lo, host_hi)`` to its
    submit time.  A shard span's begin time minus that stamp is the
    shard's pool queue wait — how long it sat behind ``max_workers``/
    ``max_resident_shards`` before executing.  Waits and exec times
    fold into per-stage counters (``shard.queue_wait_ns.probe`` /
    ``shard.queue_wait_ns.collect``, likewise ``shard.exec_ns.*``) and
    into the stage-summed totals (``shard.queue_wait_ns`` /
    ``shard.exec_ns``).  Spans already annotated (an earlier fan-out's)
    are left untouched.
    """
    for ev in events:
        if ev.get("ev") != "span" or ev.get("cat") != "shard":
            continue
        args = ev["args"]
        if "queue_wait_ns" in args:
            continue
        base = submit_ns.get((args.get("host_lo"), args.get("host_hi")))
        if base is None:
            continue
        wait_ns = max(ev["ts_ns"] - base, 0)
        args["queue_wait_ns"] = wait_ns
        stage = _SPAN_STAGE.get(ev["name"])
        if stage is not None:
            recorder.counter_add("shard.queue_wait_ns", wait_ns)
            recorder.counter_add("shard.exec_ns", ev["dur_ns"])
            recorder.counter_add(f"shard.queue_wait_ns.{stage}", wait_ns)
            recorder.counter_add(f"shard.exec_ns.{stage}", ev["dur_ns"])


def _finished(pending) -> list[Future]:
    """The futures of ``pending`` that are already done (no waiting)."""
    return [fut for fut in pending if fut.done()]


class ShardedCollector:
    """Executes one collection sharded by source host.

    Drop-in for :func:`repro.testbed.collect`::

        col = ShardedCollector().collect(dataset("ron2003"), 3600.0, seed=1)

    produces a :class:`CollectionResult` whose trace fingerprint is
    identical to the sequential call with the same arguments.
    """

    def __init__(self, config: EngineConfig | None = None, **overrides) -> None:
        if config is not None and overrides:
            raise ValueError("pass either a config or field overrides, not both")
        self.config = config if config is not None else EngineConfig(**overrides)

    def resolve_shards(self, n_hosts: int) -> int:
        wanted = self.config.n_shards or os.cpu_count() or 1
        return max(1, min(wanted, n_hosts))

    def resolve_workers(self) -> int | None:
        """Pool width: ``max_workers``, capped by ``max_resident_shards``
        in spill mode (a shard in flight is a shard resident)."""
        cfg = self.config
        if cfg.max_resident_shards is None:
            return cfg.max_workers
        return min(cfg.max_workers or os.cpu_count() or 1, cfg.max_resident_shards)

    def collect(
        self,
        spec: DatasetSpec,
        duration_s: float,
        seed: int = 0,
        include_events: bool = True,
        network: Network | None = None,
        analyzer=None,
    ) -> CollectionResult:
        """Collect ``spec`` sharded across the configured executor.

        With ``spill_dir`` set, shards stream through disk instead of
        RAM (see :mod:`repro.engine.spill`) — same bytes, bounded
        residency — and the result records its run directory.  Any
        ``shard-*.npz`` files and ``merged/`` store an earlier
        collection left in that directory are unlinked before the first
        shard runs, so readers never fold two shard layouts; a live
        earlier result's memory maps keep their old bytes.

        ``analyzer`` (a :class:`repro.analysis.StreamingAnalyzer`) has
        each completed shard folded into it — ``analyzer.ingest(part)``
        on the calling thread, in completion order (the accumulators are
        order-invariant) — so Table/Figure statistics are ready the
        moment the run is.

        A serial run keeps the order table block *j*, collect *j*,
        scatter *j*: at most one collected part waits to be scattered.
        A probe, tables or collect shard that raises stops the run with
        its own exception, noted with the stage and host range it ran.
        """
        cfg = self.config
        rec = telemetry.get_recorder()
        mark = rec.mark()
        counters_base = rec.counter_snapshot()
        plan = prepare_collection_base(
            spec,
            duration_s,
            seed=seed,
            include_events=include_events,
            network=network,
            substrate=cfg.substrate,
            max_cached_segments=cfg.max_cached_segments,
        )
        n = plan.n_hosts
        params = plan.probing
        ranges = plan_shards(n, self.resolve_shards(n))
        probing = None
        if params is not None:
            probing = prepare_probing(plan.network, params, RngFactory(seed))
        directory: Path | None = None
        if cfg.spill_dir is not None:
            directory = Path(cfg.spill_dir) / run_slug(plan)
            clear_run_dir(directory)
        # merge destinations are known before any shard runs: the schedule
        # holds every row's probe id, and contiguous ascending source
        # ranges make schedule order the part-concatenation order
        merge = StreamingMerge(
            meta=plan.meta,
            pids=plan.sched.probe_id,
            offsets=[int(plan.bounds[lo]) for lo, _ in ranges] + [int(plan.bounds[n])],
            out_dir=None if directory is None else directory / "merged",
        )

        #: stage -> [first, last] monotonic stamps, recorded as spans at the end
        window: dict[str, list[int]] = {}

        def stamp(stage: str) -> None:
            now = _tclock.monotonic_ns()
            window.setdefault(stage, [now, now])[1] = now

        blocks: list[RoutingTableBlock | None] = [None] * len(ranges)
        collect_submit: dict[tuple[int, int], int] = {}
        workers = min(self.resolve_workers() or os.cpu_count() or 1, len(ranges))
        with _ShardPool(cfg.executor, workers) as pool:
            pending: dict[Future, tuple[str, int]] = {}
            ready: deque = deque()  # (shard, table block) pairs ready to collect

            def submit_collect(j: int, block: RoutingTableBlock | None) -> Future:
                stamp("collect")
                collect_submit[ranges[j]] = _tclock.monotonic_ns()
                # a block duck-types ``RoutingTables.lookup`` for its
                # sources, the only rows the shard asks about
                shard = plan if block is None else replace(plan, tables=block)
                if directory is None:
                    return pool.submit(shard, ranges[j], kernel=collect_rows)
                spilled = SpillPlan(plan=shard, directory=directory)
                return pool.submit(spilled, ranges[j], kernel=collect_rows_spilled)

            if probing is None:
                ready.extend((j, None) for j in range(len(ranges)))
            else:
                estimates = _probe_stage(pool, probing, params, ranges, stamp)
                stamp("tables")
                for j, (lo, hi) in enumerate(ranges):
                    fut = pool.tables.submit(
                        build_table_block,
                        *estimates,
                        probing.interval,
                        params,
                        lo,
                        hi,
                        plan.network.paths.relay_set,
                    )
                    pending[fut] = ("tables", j)
            while ready or pending:
                if ready:
                    # one shard per round, then reap without waiting: a
                    # part is scattered before the next inline shard runs
                    j, block = ready.popleft()
                    pending[submit_collect(j, block)] = ("collect", j)
                    done = _finished(pending)
                else:
                    done = wait(pending, return_when=FIRST_COMPLETED).done
                # every finished part, then at most one table block: a
                # block's shard is submitted before the next is taken
                for fut in sorted(done, key=pending.__getitem__):
                    kind, j = pending.pop(fut)
                    value = _result(fut, kind, ranges[j])
                    stamp(kind)
                    if kind == "tables":
                        blocks[j] = value
                        ready.append((j, value))
                        break
                    if analyzer is not None:
                        analyzer.ingest(value)
                    stamp("merge")
                    with rec.span("merge-scatter", cat="pipeline", part=j):
                        merge.add(j, value)

        tables = None
        if probing is not None:
            tables = assemble_routing_tables(probing.interval, estimates[0], estimates[2], blocks)
        trace = merge.finalize()
        stamp("merge")

        if rec.enabled:
            _annotate_shard_waits(rec, rec.events_since(mark), collect_submit)
            args = {
                "probe": {"hosts": n},
                "tables": {"hosts": n},
                "collect": {"executor": cfg.executor, "shards": len(ranges)},
                "merge": {"parts": len(ranges)},
            }
            for stage, (t0, t1) in window.items():
                rec.record_span(stage, cat="stage", ts_ns=t0, dur_ns=t1 - t0, **args[stage])
            rss = _tclock.peak_rss_bytes()
            if rss is not None:
                rec.gauge_set("process.peak_rss_bytes", rss)
            if directory is not None:
                telemetry.write_manifest(
                    directory,
                    rec.events(mark, counters_base),
                    run={
                        "dataset": plan.meta.dataset,
                        "mode": plan.meta.mode,
                        "seed": plan.seed,
                        "horizon_s": plan.meta.horizon_s,
                        "hosts": plan.n_hosts,
                        "methods": list(plan.meta.method_names),
                        "executor": cfg.executor,
                        "n_shards": len(ranges),
                        "pid": os.getpid(),
                    },
                )
        return CollectionResult(
            trace=trace, network=plan.network, tables=tables, spill_dir=directory
        )


def _probe_stage(pool: _ShardPool, probing: ProbingPlan, params, ranges, stamp):
    """Probe every shard, folding its rows of the full-mesh estimates
    ``(loss_est, lat_est, failed)`` as it lands."""
    rec = telemetry.get_recorder()
    shape = (probing.n_slots, probing.n_hosts, probing.n_hosts)
    loss_est, lat_est = np.empty(shape), np.empty(shape)
    failed = np.empty(shape, dtype=bool)

    def fold(fut: Future, bounds: tuple[int, int]) -> None:
        block = _result(fut, "probe", bounds)
        rows = slice(block.host_lo, block.host_hi)
        with rec.span("estimate-fold", cat="pipeline", host_lo=rows.start, host_hi=rows.stop):
            series = ProbeSeries(interval=probing.interval, lost=block.lost, latency=block.latency)
            loss_est[:, rows], lat_est[:, rows], failed[:, rows] = probe_estimates(series, params)

    mark = rec.mark()
    probe_submit: dict[tuple[int, int], int] = {}
    pending: dict[Future, tuple[int, int]] = {}
    stamp("probe")
    for bounds in ranges:
        probe_submit[bounds] = _tclock.monotonic_ns()
        pending[pool.submit(probing, bounds, kernel=probe_rows)] = bounds
        # fold what already landed (inline: this block) before probing on
        for fut in _finished(pending):
            fold(fut, pending.pop(fut))
    for fut in as_completed(list(pending)):
        fold(fut, pending.pop(fut))
    stamp("probe")
    if rec.enabled:
        _annotate_shard_waits(rec, rec.events_since(mark), probe_submit)
    return loss_est, lat_est, failed


# re-exported convenience: an EngineConfig with sharding forced on for
# any size, used by tests and small-scenario experiments
def always_shard(**overrides) -> EngineConfig:
    """An :class:`EngineConfig` that engages the engine at any host count."""
    return replace(EngineConfig(min_hosts=1), **overrides)
