"""Spill-to-disk collection: shard traces leave RAM as they complete.

In spill mode each shard kernel writes its partial trace to
``<run dir>/shard-<lo>-<hi>.npz`` (the ordinary
:func:`repro.trace.save_trace` format, written atomically) the moment
it finishes and returns only the *path*; the engine's
:class:`~repro.trace.store.StreamingMerge` then scatters one shard at a
time into memory-mapped output arrays under ``merged/``.  Residency is
bounded by the shards in flight (``EngineConfig.max_resident_shards``
caps the worker count) plus one shard during its scatter, while the
output stays bitwise identical to the in-RAM run: the shard bytes
round-trip exactly through ``.npz``.
"""

from __future__ import annotations

import hashlib
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.testbed.collection import CollectionPlan, collect_rows
from repro.trace.store import save_trace

__all__ = [
    "SpillPlan",
    "clear_run_dir",
    "collect_rows_spilled",
    "run_slug",
    "shard_path",
    "shard_files",
]


def run_slug(plan: CollectionPlan) -> str:
    """The per-run subdirectory a collection spills into.

    Keyed by the *full* run identity — dataset, mode, exact horizon,
    seed, event schedule on/off, host and method lists (``repr`` floats
    are exact, so near-equal horizons cannot collide), and — when the
    network was built with one — the relay candidate-set policy — so a
    :class:`repro.api.Runner` sweep over any spec axis sharing one
    ``spill_dir`` never overwrites one run's shards or merged
    memory-mapped columns with another's (a run with a relay policy and
    one without, of the same dataset, cannot clobber each other).  Runs
    built without a policy omit the relay token entirely, keeping their
    slugs byte-identical to what they were before candidate sets
    existed.  Two collections of the *same* run share a slug and
    produce identical bytes, so re-running is idempotent; the re-run
    first unlinks the earlier files (see :func:`clear_run_dir`), so a
    live earlier result keeps its bytes.
    """
    meta = plan.meta
    ident_t = (
        meta.dataset,
        meta.mode,
        meta.horizon_s,
        plan.seed,
        plan.include_events,
        meta.host_names,
        meta.method_names,
    )
    relay_policy = plan.network.topology.relay_policy
    if relay_policy is not None:
        ident_t = ident_t + (("relay_policy",) + relay_policy.canonical(),)
    ident = repr(ident_t)
    digest = hashlib.sha256(ident.encode()).hexdigest()[:10]
    name = re.sub(r"[^A-Za-z0-9._-]+", "_", meta.dataset)
    return f"{name}-seed{plan.seed}-{digest}"


@dataclass(frozen=True, eq=False)
class SpillPlan:
    """A :class:`CollectionPlan` plus the directory its shards spill to
    (the run's own subdirectory of ``EngineConfig.spill_dir`` — see
    :func:`run_slug`)."""

    plan: CollectionPlan
    directory: Path


def shard_path(directory: Path, host_lo: int, host_hi: int) -> Path:
    """Where the shard covering ``[host_lo, host_hi)`` spills to."""
    return Path(directory) / f"shard-{host_lo:05d}-{host_hi:05d}"


def shard_files(directory: str | Path) -> list[Path]:
    """The spilled shard files under a run directory, in host order.

    The inverse of :func:`shard_path`: everything matching
    ``shard-*.npz``, sorted by name (= ascending host range, since the
    bounds are zero-padded).  This is the listing contract
    :meth:`repro.analysis.streaming.StreamingAnalyzer.ingest_dir` uses
    for post-hoc analysis of a spilled run.
    """
    return sorted(Path(directory).glob("shard-*.npz"))


def clear_run_dir(directory: str | Path) -> None:
    """Ready a run directory for a new collection of its run.

    Creates it if needed and unlinks every ``shard-*.npz`` file and the
    ``merged/`` store an earlier collection left behind, so a re-run
    with a different shard layout cannot leave extra shards for
    :func:`shard_files` to list.  Unlinking (rather than overwriting in
    place) leaves a live earlier result's memory maps their old bytes.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for path in shard_files(directory):
        path.unlink()
    shutil.rmtree(directory / "merged", ignore_errors=True)


def collect_rows_spilled(splan: SpillPlan, host_lo: int, host_hi: int) -> Path:
    """Evaluate one shard and write it out; returns the ``.npz`` path."""
    trace = collect_rows(splan.plan, host_lo, host_hi)
    with telemetry.span("spill-write", cat="shard", host_lo=host_lo, host_hi=host_hi):
        path = save_trace(trace, shard_path(splan.directory, host_lo, host_hi))
    rec = telemetry.get_recorder()
    if rec.enabled:
        rec.counter_add("spill.bytes", path.stat().st_size)
    return path
