"""Trace data model: what the measurement system logs.

Section 4.1: "Each probe has a random 64-bit identifier, which the hosts
log along with the time at which packets were both sent and received."
A :class:`Trace` is the aggregated, struct-of-arrays form of those logs
for one collection run; :class:`ProbeRecord` is the per-probe view.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TraceMeta",
    "ProbeRecord",
    "Trace",
    "id_dtype",
    "ID_CANDIDATES",
    "debug_checks_enabled",
]


def debug_checks_enabled() -> bool:
    """True when ``REPRO_DEBUG_CHECKS`` asks for extra invariant checks.

    Unset, empty, or ``"0"`` means off; anything else turns on the
    O(rows) sanity assertions at shard-merge boundaries.  Read at call
    time so tests (and long-lived processes) can toggle it.
    """
    return os.environ.get("REPRO_DEBUG_CHECKS", "0") not in ("", "0")

#: relay value meaning "the direct path" (matches core.selector.DIRECT).
DIRECT = -1

#: candidate host/relay/method id dtypes, narrowest first.  Signed,
#: because id columns carry the DIRECT (-1) sentinel.  Tests monkeypatch
#: this tuple to force wide ids on small meshes, so every consumer must
#: go through :func:`id_dtype` rather than hard-coding a dtype.
ID_CANDIDATES = (np.int16, np.int32, np.int64)


def id_dtype(capacity: int) -> np.dtype:
    """Smallest signed dtype holding ids ``-1 .. capacity - 1``.

    ``capacity`` is a count (hosts of a mesh, methods of a run).  Meshes
    up to 32767 hosts keep the historical int16 columns — and therefore
    their trace files and fingerprints — while larger runs widen to
    int32/int64 instead of raising.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    for dt in ID_CANDIDATES:
        if capacity - 1 <= np.iinfo(dt).max:
            return np.dtype(dt)
    raise ValueError(f"no id dtype can hold {capacity} distinct ids")


@dataclass(frozen=True)
class TraceMeta:
    """Run-level metadata carried alongside the probe arrays."""

    dataset: str
    mode: str  # "oneway" | "rtt"
    horizon_s: float
    seed: int
    host_names: tuple[str, ...]
    method_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("oneway", "rtt"):
            raise ValueError(f"mode must be 'oneway' or 'rtt', got {self.mode!r}")
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")


def require_same_run(metas: list[TraceMeta]) -> TraceMeta:
    """Check that partial traces belong to one run; returns the meta.

    Merging shards of different runs would silently interleave
    incompatible probes, so a mismatch raises naming the offending
    fields.
    """
    meta = metas[0]
    for i, m in enumerate(metas[1:], start=1):
        if m != meta:
            fields = [
                f
                for f in (
                    "dataset",
                    "mode",
                    "horizon_s",
                    "seed",
                    "host_names",
                    "method_names",
                )
                if getattr(m, f) != getattr(meta, f)
            ]
            raise ValueError(
                f"cannot concatenate traces from different runs: part {i} "
                f"disagrees with part 0 on {', '.join(fields)} "
                f"({meta.dataset!r} seed {meta.seed} vs "
                f"{m.dataset!r} seed {m.seed})"
            )
    return meta


@dataclass(frozen=True)
class ProbeRecord:
    """One probe, resolved to host/method names (convenience view)."""

    probe_id: int
    method: str
    src: str
    dst: str
    t_send: float
    relay1: str | None
    relay2: str | None
    lost1: bool
    lost2: bool | None
    latency1: float | None
    latency2: float | None
    excluded: bool


@dataclass
class Trace:
    """All probes of one collection run, as parallel arrays.

    ``lost2``/``latency2``/``relay2`` are meaningful only where the
    method has a second packet (``has_second``).  Latencies are NaN for
    lost packets.  ``excluded`` marks probes affected by host failure;
    the paper's analysis drops them (Section 4.1), which
    :func:`repro.trace.filters.apply_standard_filters` implements.
    """

    meta: TraceMeta
    probe_id: np.ndarray  # uint64
    method_id: np.ndarray  # id_dtype(n_methods) -> meta.method_names
    src: np.ndarray  # id_dtype(n_hosts); int16 below 32768 hosts
    dst: np.ndarray  # id_dtype(n_hosts)
    t_send: np.ndarray  # float64
    relay1: np.ndarray  # id_dtype(n_hosts), DIRECT for direct
    relay2: np.ndarray  # id_dtype(n_hosts)
    lost1: np.ndarray  # bool
    lost2: np.ndarray  # bool
    latency1: np.ndarray  # float32, NaN when lost
    latency2: np.ndarray  # float32
    excluded: np.ndarray  # bool
    extra: dict = field(default_factory=dict)

    ARRAY_FIELDS = (
        "probe_id",
        "method_id",
        "src",
        "dst",
        "t_send",
        "relay1",
        "relay2",
        "lost1",
        "lost2",
        "latency1",
        "latency2",
        "excluded",
    )

    def __post_init__(self) -> None:
        n = len(self.probe_id)
        for name in self.ARRAY_FIELDS:
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"field {name} has length {len(arr)}, expected {n}")

    def __len__(self) -> int:
        return len(self.probe_id)

    def __repr__(self) -> str:
        return (
            f"Trace(dataset={self.meta.dataset!r}, seed={self.meta.seed}, "
            f"mode={self.meta.mode!r}, probes={len(self):,}, "
            f"methods={len(self.meta.method_names)})"
        )

    def assert_canonical_order(self, context: str = "") -> "Trace":
        """Assert rows are in canonical (ascending ``probe_id``) order.

        Debug helper for shard-merge boundaries: every merge path sorts
        by ``probe_id``, so a violation here means a merge kernel
        regressed.  Called automatically after :meth:`concatenate` and
        :meth:`repro.trace.store.StreamingMerge.finalize` when the
        ``REPRO_DEBUG_CHECKS`` environment variable is set (non-empty,
        not ``"0"``).  Returns ``self`` so it can be chained.
        """
        pid = self.probe_id
        if len(pid) > 1 and not bool(np.all(pid[1:] >= pid[:-1])):
            bad = int(np.argmax(~(pid[1:] >= pid[:-1])))
            where = f" ({context})" if context else ""
            raise AssertionError(
                f"trace rows not in canonical probe_id order{where}: "
                f"row {bad} has probe_id {pid[bad]} followed by {pid[bad + 1]}"
            )
        return self

    @property
    def has_second(self) -> np.ndarray:
        """Boolean mask: probes whose method sends two packets."""
        from repro.core.methods import METHODS

        pair_ids = np.array(
            [METHODS[name].is_pair for name in self.meta.method_names]
        )
        return pair_ids[self.method_id]

    def method_mask(self, name: str) -> np.ndarray:
        """Mask selecting probes of one method (by canonical name)."""
        try:
            mid = self.meta.method_names.index(name)
        except ValueError:
            raise KeyError(
                f"trace has no method {name!r}; methods: {self.meta.method_names}"
            ) from None
        return self.method_id == mid

    def select(self, mask: np.ndarray) -> "Trace":
        """A new trace containing only the masked probes."""
        kwargs = {name: getattr(self, name)[mask] for name in self.ARRAY_FIELDS}
        return Trace(meta=self.meta, extra=dict(self.extra), **kwargs)

    def records(self, limit: int | None = None):
        """Iterate probes as :class:`ProbeRecord` (slow; for inspection)."""
        hosts = self.meta.host_names
        n = len(self) if limit is None else min(limit, len(self))
        pair = self.has_second
        for i in range(n):
            two = bool(pair[i])
            yield ProbeRecord(
                probe_id=int(self.probe_id[i]),
                method=self.meta.method_names[self.method_id[i]],
                src=hosts[self.src[i]],
                dst=hosts[self.dst[i]],
                t_send=float(self.t_send[i]),
                relay1=None if self.relay1[i] == DIRECT else hosts[self.relay1[i]],
                relay2=(
                    None
                    if (not two or self.relay2[i] == DIRECT)
                    else hosts[self.relay2[i]]
                ),
                lost1=bool(self.lost1[i]),
                lost2=bool(self.lost2[i]) if two else None,
                latency1=(
                    None if self.lost1[i] else float(self.latency1[i])
                ),
                latency2=(
                    None
                    if (not two or self.lost2[i])
                    else float(self.latency2[i])
                ),
                excluded=bool(self.excluded[i]),
            )

    @staticmethod
    def concatenate(traces: list) -> "Trace":
        """Merge partial traces of one run into canonical order.

        Every part must carry the *same* run meta (dataset, mode,
        horizon, seed, hosts, methods) — merging shards of different
        runs would silently interleave incompatible probes, so a
        mismatch raises naming the offending fields.  The merged rows
        are sorted by ``probe_id``: the identifiers are random 63-bit
        values, so this is a deterministic total order that does not
        depend on how the run was sharded.
        """
        if not traces:
            raise ValueError("cannot concatenate zero traces")
        meta = require_same_run([t.meta for t in traces])
        kwargs = {
            name: np.concatenate([getattr(t, name) for t in traces])
            for name in Trace.ARRAY_FIELDS
        }
        merged = Trace(meta=meta, **kwargs)
        order = np.argsort(merged.probe_id, kind="stable")
        merged = merged.select(order)
        if debug_checks_enabled():
            merged.assert_canonical_order("Trace.concatenate")
        return merged
