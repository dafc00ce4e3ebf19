"""The benchmark's three workloads: inputs, execution and output checks.

Every workload does identical work on every run at one seed: no cache
is bounded, the lazy substrate runs only with one worker, and threads
run only over the eager substrate.  Topology-family seeds stay at 0; the
benchmark seed is the collection seed.

A run is split the way :class:`repro.api.Runner` splits it: set-up
builds the inputs and the :class:`~repro.netsim.network.Network` (the
part a sweep caches across runs that share weather), and the run is
everything done on that network — probe grid, routing tables,
collection, merge (and spill), the Section 4.1 filters and the paper
analyses.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis import method_stats_table
from repro.api import ExperimentResult, ExperimentSpec
from repro.core import METHODS
from repro.engine import EngineConfig, ShardedCollector
from repro.netsim.network import Network
from repro.netsim.units import HOUR
from repro.relaysets import RelayPolicySpec
from repro.scenarios import GeoCluster, Scenario, stress_mesh
from repro.testbed import collect, dataset
from repro.testbed.collection import prepare_collection_base
from repro.trace import apply_standard_filters, trace_fingerprint

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "integration" / "golden_trace.json"
#: scratch space inside the checkout (spill directories, span dumps)
WORK_DIR = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    """One fixed-work benchmark input (``BENCHMARK.json`` says why each
    exists)."""

    name: str
    #: the spec of one run at ``seed``
    spec: Callable[[int], ExperimentSpec]
    #: the engine configuration (``None``: the sequential pipeline);
    #: receives the run's fresh spill directory
    engine: Callable[[Path], EngineConfig] | None
    #: pool width the run uses
    workers: int
    spills: bool = False


def _ron2003(seed: int) -> ExperimentSpec:
    return ExperimentSpec("ron2003", duration_s=6 * HOUR, seeds=(seed,))


def _mesh100(seed: int) -> ExperimentSpec:
    return stress_mesh(n_hosts=100).experiment_spec(300.0, seeds=(seed,))


GEO100_K8 = Scenario(
    "perfbench-geo100-k8",
    GeoCluster(n_hosts=100),
    relay_policy=RelayPolicySpec("k_nearest", k=8),
)


def _geo100(seed: int) -> ExperimentSpec:
    return GEO100_K8.experiment_spec(1800.0, seeds=(seed,))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ron2003-paper",
            _ron2003,
            engine=None,
            workers=1,
        ),
        Workload(
            "mesh100-lazy",
            _mesh100,
            engine=lambda spill: EngineConfig(substrate="lazy", executor="serial", n_shards=8),
            workers=1,
        ),
        Workload(
            "geo100-sparse-spill",
            _geo100,
            engine=lambda spill: EngineConfig(
                executor="thread",
                max_workers=2,
                n_shards=8,
                spill_dir=spill,
                max_resident_shards=2,
            ),
            workers=2,
            spills=True,
        ),
    )
}


@dataclass
class Prepared:
    """The set-up half of a run: its inputs and the built network."""

    workload: Workload
    seed: int
    spec: ExperimentSpec
    engine: EngineConfig | None
    network: Network
    spill_dir: Path | None


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under the checkout's scratch space."""
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR / "tmp"))


def prepare(workload: Workload, seed: int) -> Prepared:
    """Set-up: register the scenario, build the network as the runner
    would for this spec (the engine's substrate flavour above the
    engine's ``min_hosts``, the eager default below it)."""
    spec = workload.spec(seed)
    spill = fresh_dir("spill-") if workload.spills else None
    engine = workload.engine(spill) if workload.engine is not None else None
    ds = spec.resolved_dataset()
    hosts = ds.hosts()
    engine_run = engine is not None and len(hosts) >= engine.min_hosts
    network = Network.build(
        hosts,
        ds.network_config(spec.duration_s, include_events=spec.include_events),
        spec.duration_s,
        seed=seed,
        substrate=engine.resolved_substrate if engine_run else "eager",
        max_cached_segments=engine.max_cached_segments if engine_run else None,
        relay_policy=ds.relay_policy,
    )
    return Prepared(workload, seed, spec, engine if engine_run else None, network, spill)


def run(prep: Prepared) -> tuple[ExperimentResult, dict]:
    """The measured run: collection plus every paper analysis."""
    ds = prep.spec.resolved_dataset()
    collector = collect if prep.engine is None else ShardedCollector(prep.engine).collect
    col = collector(
        ds,
        prep.spec.duration_s,
        seed=prep.seed,
        include_events=prep.spec.include_events,
        network=prep.network,
    )
    result = ExperimentResult(spec=prep.spec, seed=prep.seed, collection=col)
    return result, paper_analyses(result)


def paper_analyses(result: ExperimentResult) -> dict:
    """Table 5, Table 6, the Figure 2-5 CDFs and the Figure 6 design
    space, through the result accessors (streamed from the spill
    directory when the run spilled, eager otherwise)."""
    probed = result.raw_trace.meta.method_names
    pairs = [m for m in probed if METHODS[m].is_pair]
    # Figure 5 compares against direct paths when the run probed them
    base = "direct_direct" if "direct_direct" in probed else None
    space = result.design_space()
    grid = np.linspace(0.0, 1.0, 21)
    return {
        "table5": result.loss_table(),
        "table6": result.high_loss(),
        "fig2": result.path_loss_cdf(),
        "fig3": {m: result.window_cdf(m) for m in probed},
        "fig4": {m: result.clp_cdf(m) for m in pairs},
        "fig5": {m: result.latency_cdf(m, baseline=base) for m in probed},
        "fig5_gain": {
            m: result.latency_improvement(base, m) for m in probed if base and m != base
        },
        "fig6": [space.evaluate(float(i), float(u)).cheaper for i in grid for u in grid],
    }


def cleanup(prep: Prepared) -> None:
    if prep.spill_dir is not None:
        shutil.rmtree(prep.spill_dir, ignore_errors=True)


# -- output checks ----------------------------------------------------------
# Each check is one operation: it passes, or it fails (a mismatch or an
# exception).  They run after the timed region.


def _rows_equal(a, b) -> bool:
    """Field-wise equality of two stats rows, NaN equal to NaN."""
    for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True


def _attempt(name: str, fn) -> tuple[str, bool, str]:
    """Run one check: ``fn`` returns ``(ok, detail)``; raising fails it."""
    try:
        ok, detail = fn()
    except Exception as exc:  # a raising check is a failed operation
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), detail


def check_run(prep: Prepared, result: ExperimentResult) -> list[tuple[str, bool, str]]:
    """Checks on the workload's own output."""
    trace = result.raw_trace

    def schedule():
        plan = prepare_collection_base(
            prep.spec.resolved_dataset(),
            prep.spec.duration_s,
            seed=prep.seed,
            include_events=prep.spec.include_events,
            network=prep.network,
        )
        want = np.sort(plan.sched.probe_id)
        got = np.asarray(trace.probe_id)
        return (
            len(got) == len(want) and bool(np.array_equal(got, want)),
            f"{len(got)} rows, schedule {len(want)}",
        )

    def streaming_equals_eager():
        if result.streaming is None:
            return False, "no streaming snapshot"
        eager = method_stats_table(apply_standard_filters(trace))
        streamed = list(result.stats)
        same = len(eager) == len(streamed) and all(
            _rows_equal(a, b) for a, b in zip(eager, streamed)
        )
        return same, f"{len(streamed)} Table 5 rows"

    def relays_in_set():
        rs = prep.network.relay_set
        src, dst = np.asarray(trace.src), np.asarray(trace.dst)
        bad = 0
        for relay in (np.asarray(trace.relay1), np.asarray(trace.relay2)):
            used = relay >= 0
            bad += int((~rs.contains(src[used], relay[used], dst[used])).sum())
        return bad == 0, f"{bad} routed relays outside their RelaySet"

    checks = [_attempt("rows-in-canonical-order", schedule)]
    if prep.workload.spills:
        checks.append(_attempt("streaming-equals-eager-table5", streaming_equals_eager))
        checks.append(_attempt("relays-in-relayset", relays_in_set))
    return checks


def check_golden(workload: Workload) -> list[tuple[str, bool, str]]:
    """Collect the committed golden mini-runs through this workload's
    collector configuration and compare their sha256 with the golden
    file.  The spilled workload uses relay policy ``all``, bitwise equal
    to the dense layout."""
    # the run definitions live next to the regression test
    from tests.integration.test_golden_trace import GOLDEN_RUNS

    golden = json.loads(GOLDEN_PATH.read_text())["runs"]

    def fingerprint(key: str, run_def: dict):
        source = run_def["source"]
        if isinstance(source, Scenario):
            source.register()
            source = source.name
        ds = dataset(source)
        spill = fresh_dir("golden-") if workload.spills else None
        try:
            if workload.engine is None:
                col = collect(ds, run_def["duration_s"], seed=run_def["seed"])
            else:
                if workload.spills:
                    ds = dataclasses.replace(ds, relay_policy=RelayPolicySpec("all"))
                col = ShardedCollector(workload.engine(spill)).collect(
                    ds, run_def["duration_s"], seed=run_def["seed"]
                )
            got = trace_fingerprint(col.trace)["sha256"]
        finally:
            if spill is not None:
                shutil.rmtree(spill, ignore_errors=True)
        return got == golden[key]["sha256"], got

    return [
        _attempt(f"golden:{key}", lambda key=key, run_def=run_def: fingerprint(key, run_def))
        for key, run_def in sorted(GOLDEN_RUNS.items())
    ]
