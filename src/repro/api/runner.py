"""Executing specs: the multi-seed, multi-scenario batch runner.

One *run* is one ``(spec, seed)`` pair and maps to exactly one
:func:`repro.testbed.collect` call, so a :class:`Runner` sweep is
bitwise-identical to hand-chaining ``collect()`` with the same seeds.
On top of that the runner adds the two things hand-wiring never gets
right:

* **substrate reuse** — runs that share weather (same dataset,
  duration, seed and event schedule, e.g. method-catalogue ablations)
  reuse one prebuilt :class:`Network`; the traffic RNG is restored to
  its post-build state before every run, so reuse changes nothing in
  the output, only the build cost;
* **fan-out** — independent runs execute concurrently on a
  ``concurrent.futures`` thread pool (the heavy lifting is vectorised
  NumPy, which releases the GIL).  Runs that share a substrate are
  serialised against each other by a per-substrate lock.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from repro import telemetry
from repro.engine import EngineConfig, ShardedCollector
from repro.netsim.network import Network
from repro.testbed.collection import collect
from repro.testbed.datasets import DatasetSpec, dataset

from .result import ExperimentResult, SweepResult
from .spec import ExperimentSpec

__all__ = ["Runner"]

#: cache key of one weather realisation (everything that goes into
#: Network.build; method/mode/filter overrides deliberately excluded).
#: The registered DatasetSpec object itself is part of the key, so
#: re-registering a dataset (overwrite=True) never serves a stale
#: substrate built from the old definition.  The relay policy is part
#: of the key too: a sparse and a dense run build different path
#: tables, so they must never share a cached substrate.
_WeatherKey = tuple[DatasetSpec, float, int, bool, object]


class Runner:
    """Executes :class:`ExperimentSpec` runs, one or many.

    Parameters
    ----------
    max_workers:
        thread-pool width for independent runs; ``None`` or ``1`` runs
        sequentially (results are identical either way).
    reuse_networks:
        keep substrates cached across runs sharing the same weather
        (dataset, duration, seed, events).  Disable to trade speed for
        memory on very large sweeps.
    engine:
        a :class:`repro.engine.EngineConfig` to execute *single* large
        runs on the scale-out engine: scenarios with at least
        ``engine.min_hosts`` hosts are collected by a
        :class:`~repro.engine.ShardedCollector` (all cores on one run,
        optionally over a lazy substrate) instead of
        the sequential pipeline.  The engine probes, selects routing
        tables and collects shard by shard with the stages overlapped:
        each collection shard starts the moment its routing-table block
        is ready, and the merge streams while shards still run.
        ``engine.spill_dir`` additionally streams shard traces through
        disk with bounded residency (``engine.max_resident_shards``) for
        runs larger than RAM.
        Results are bitwise identical either way; smaller scenarios
        keep the cheaper sequential path.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        reuse_networks: bool = True,
        engine: EngineConfig | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.reuse_networks = reuse_networks
        self.engine = engine
        self._networks: dict[_WeatherKey, tuple[Network, dict]] = {}
        self._locks: dict[_WeatherKey, threading.Lock] = {}
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, spec: ExperimentSpec) -> SweepResult:
        """Execute one spec at every one of its seeds."""
        return self.sweep([spec])

    def sweep(self, specs: Iterable[ExperimentSpec]) -> SweepResult:
        """Execute every (spec, seed) combination of a batch of specs."""
        jobs: list[tuple[ExperimentSpec, int]] = [
            (spec, seed) for spec in specs for seed in spec.seeds
        ]
        if not jobs:
            raise ValueError("nothing to run: no specs/seeds given")
        if self.max_workers is not None and self.max_workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                results = list(pool.map(lambda job: self.run_one(*job), jobs))
        else:
            results = [self.run_one(spec, seed) for spec, seed in jobs]
        return SweepResult(tuple(results))

    def run_one(self, spec: ExperimentSpec, seed: int) -> ExperimentResult:
        """Execute one (spec, seed) run; equivalent to one ``collect()``."""
        ds = spec.resolved_dataset()
        collector = self._engine_collector(ds)
        # engine and sequential paths share the collect() signature
        run = collect if collector is None else collector.collect
        with telemetry.span(
            "collect-run",
            cat="run",
            dataset=spec.dataset,
            seed=int(seed),
            engine=collector is not None,
        ):
            if not self.reuse_networks:
                col = run(
                    ds, spec.duration_s, seed=seed, include_events=spec.include_events
                )
                return ExperimentResult(
                    spec=spec.single(seed), seed=seed, collection=col
                )

            key: _WeatherKey = (
                dataset(spec.dataset),
                float(spec.duration_s),
                int(seed),
                spec.include_events,
                ds.relay_policy,
            )
            with self._lock_for(key):
                network = self._network_for(key, ds, spec, seed, collector)
                col = run(
                    ds,
                    spec.duration_s,
                    seed=seed,
                    include_events=spec.include_events,
                    network=network,
                )
        return ExperimentResult(spec=spec.single(seed), seed=seed, collection=col)

    def _engine_collector(self, ds: DatasetSpec) -> ShardedCollector | None:
        """The engine path for this dataset, if configured and big enough."""
        if self.engine is None or len(ds.hosts()) < self.engine.min_hosts:
            return None
        return ShardedCollector(self.engine)

    # ------------------------------------------------------------------
    # substrate cache
    # ------------------------------------------------------------------

    def _lock_for(self, key: _WeatherKey) -> threading.Lock:
        with self._registry_lock:
            return self._locks.setdefault(key, threading.Lock())

    def _network_for(
        self,
        key: _WeatherKey,
        ds,
        spec: ExperimentSpec,
        seed: int,
        collector: ShardedCollector | None,
    ) -> Network:
        """The cached substrate for one weather key (caller holds the
        key lock).  Engine runs get their collector's substrate
        flavour; sub-``min_hosts`` runs keep the eager default, so small
        sweeps never pay lazy-bank bookkeeping on the sequential path."""
        entry = self._networks.get(key)
        if entry is None:
            cfg = ds.network_config(spec.duration_s, include_events=spec.include_events)
            substrate = collector.config.substrate if collector else "eager"
            budget = collector.config.max_cached_segments if collector else None
            network = Network.build(
                ds.hosts(),
                cfg,
                spec.duration_s,
                seed=seed,
                substrate=substrate,
                max_cached_segments=budget,
                relay_policy=ds.relay_policy,
            )
            entry = (network, network.traffic_rng_state)
            self._networks[key] = entry
        network, pristine = entry
        # collection draws from per-host substreams, never network._rng,
        # so this rewind protects only other default-rng consumers (e.g.
        # an Overlay driven over a reused substrate) — not correctness
        # of the runs themselves
        network.traffic_rng_state = pristine
        return network

    def cached_networks(self) -> int:
        """How many substrates the runner currently holds."""
        return len(self._networks)

    def clear_cache(self) -> None:
        with self._registry_lock:
            self._networks.clear()
            self._locks.clear()
