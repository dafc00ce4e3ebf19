"""Trace persistence: compact ``.npz`` with JSON metadata.

Traces are the interface between collection and analysis, exactly as
the central monitoring machine's aggregated logs were in the paper
(Section 4.1); persisting them lets analyses re-run without re-running
the (much more expensive) collection.

Spilled runs go through the same files: the engine writes each shard's
partial trace with :func:`save_trace` as it completes, and
:class:`StreamingMerge` scatters the shards into canonical probe-id
order one shard at a time, into memory-mapped output arrays — so a
merged trace larger than RAM never has to be resident all at once
(only the 8-byte destination index is, computed from the probe ids).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

from .records import Trace, TraceMeta, debug_checks_enabled, require_same_run

__all__ = [
    "save_trace",
    "load_trace",
    "open_stored",
    "StreamingMerge",
]


def _npz_path(path: str | Path) -> Path:
    """``path`` with ``.npz`` appended unless already present.

    Appends to the *name* rather than replacing the pathlib suffix, so
    dotted run names (``run.v2``, ``exp.2026.07``) survive untouched
    instead of having their last dot segment treated as an extension.
    """
    path = Path(path)
    if path.name.endswith(".npz"):
        return path
    return path.with_name(path.name + ".npz")


def _meta_to_dict(trace: Trace) -> dict:
    return {
        "dataset": trace.meta.dataset,
        "mode": trace.meta.mode,
        "horizon_s": trace.meta.horizon_s,
        "seed": trace.meta.seed,
        "host_names": list(trace.meta.host_names),
        "method_names": list(trace.meta.method_names),
        "extra": trace.extra,
    }


def _meta_from_dict(raw: dict) -> TraceMeta:
    return TraceMeta(
        dataset=raw["dataset"],
        mode=raw["mode"],
        horizon_s=float(raw["horizon_s"]),
        seed=int(raw["seed"]),
        host_names=tuple(raw["host_names"]),
        method_names=tuple(raw["method_names"]),
    )


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Write a trace to ``path`` (``.npz`` appended if missing).

    The write is atomic: the bytes go to a hidden temporary file in the
    same directory (``.<name>.<pid>-<thread>.tmp``, which no
    ``shard-*.npz`` listing matches), renamed over ``path`` only once
    complete.  A reader never sees a truncated file, and a write that
    fails leaves nothing.
    """
    path = _npz_path(path)
    meta = _meta_to_dict(trace)
    arrays = {name: getattr(trace, name) for name in Trace.ARRAY_FIELDS}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(
                f, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    if not path.exists() and _npz_path(path).exists():
        path = _npz_path(path)
    with np.load(path) as data:
        meta_raw = json.loads(bytes(data["__meta__"]).decode())
        arrays = {name: data[name] for name in Trace.ARRAY_FIELDS}
    return Trace(meta=_meta_from_dict(meta_raw), extra=meta_raw.get("extra", {}), **arrays)


class StreamingMerge:
    """Incremental shard merge: scatter parts as they complete.

    The engine's merge.  Instead of waiting for every shard, the caller
    precomputes the global probe-id order — the collection plan already
    holds every row's ``probe_id`` in schedule order, which for
    contiguous ascending source ranges *is* part-concatenation order —
    and each part is scattered into the output the moment it finishes,
    while other shards are still running.  The finalized trace is
    bitwise identical to :meth:`Trace.concatenate` of the same parts:
    same stable sort, same dtypes.  Parts land in RAM arrays, or (with
    ``out_dir``) in memory-mapped ``.npy`` files plus a
    ``__meta__.json`` that :func:`open_stored` re-opens.

    Parameters
    ----------
    meta:
        the run's :class:`TraceMeta` (every part must be from this run).
    pids:
        all parts' ``probe_id`` values concatenated in part order
        (uint64; the global stable argsort of this array defines the
        canonical output order).
    offsets:
        ``n_parts + 1`` row offsets: part ``i`` covers rows
        ``[offsets[i], offsets[i+1])`` of ``pids``.
    out_dir:
        directory for memory-mapped output columns (the spilled-merge
        layout), or ``None`` to merge into RAM arrays.
    """

    def __init__(self, meta: TraceMeta, pids, offsets, out_dir: str | Path | None = None):
        self.meta = meta
        pids = np.asarray(pids)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        if self._offsets.ndim != 1 or len(self._offsets) < 2:
            raise ValueError("offsets must hold n_parts + 1 row bounds")
        total = int(self._offsets[-1])
        if int(self._offsets[0]) != 0 or len(pids) != total:
            raise ValueError(
                f"offsets [{self._offsets[0]}..{total}] do not cover the "
                f"{len(pids)} probe ids"
            )
        order = np.argsort(pids, kind="stable")
        self._dest = np.empty(total, dtype=np.int64)
        self._dest[order] = np.arange(total)
        self._total = total
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._outs: dict[str, np.ndarray] | None = None
        self._seen = [False] * (len(self._offsets) - 1)
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            meta_dict = {
                "dataset": meta.dataset,
                "mode": meta.mode,
                "horizon_s": meta.horizon_s,
                "seed": meta.seed,
                "host_names": list(meta.host_names),
                "method_names": list(meta.method_names),
                "extra": {},
            }
            (self.out_dir / "__meta__.json").write_text(json.dumps(meta_dict))

    def _allocate(self, dtypes: dict[str, np.dtype]) -> dict[str, np.ndarray]:
        if self.out_dir is None:
            return {
                name: np.empty(self._total, dtype=dtypes[name])
                for name in Trace.ARRAY_FIELDS
            }
        return {
            name: np.lib.format.open_memmap(
                self.out_dir / f"{name}.npy",
                mode="w+",
                dtype=dtypes[name],
                shape=(self._total,),
            )
            for name in Trace.ARRAY_FIELDS
        }

    def add(self, index: int, part: Trace | str | Path) -> None:
        """Scatter part ``index`` (a :class:`Trace`, or a path written by
        :func:`save_trace`) into its destination rows.  Parts may arrive
        in any order; each index exactly once."""
        if self._seen[index]:
            raise ValueError(f"part {index} already merged")
        if isinstance(part, Trace):
            require_same_run([self.meta, part.meta])
            arrays = {name: getattr(part, name) for name in Trace.ARRAY_FIELDS}
        else:
            with np.load(_npz_path(part)) as data:
                require_same_run(
                    [self.meta, _meta_from_dict(json.loads(bytes(data["__meta__"]).decode()))]
                )
                arrays = {name: data[name] for name in Trace.ARRAY_FIELDS}
        lo, hi = int(self._offsets[index]), int(self._offsets[index + 1])
        if len(arrays["probe_id"]) != hi - lo:
            raise ValueError(
                f"part {index} has {len(arrays['probe_id'])} rows, expected {hi - lo}"
            )
        if self._outs is None:
            self._outs = self._allocate({name: a.dtype for name, a in arrays.items()})
        rows = self._dest[lo:hi]
        for name in Trace.ARRAY_FIELDS:
            self._outs[name][rows] = arrays[name]
        self._seen[index] = True

    def finalize(self) -> Trace:
        """All parts in: flush (spilled) and return the merged trace.

        Spilled outputs come back re-opened as read-only memory maps, so
        downstream analysis pages data in on demand; callers that want a
        private in-RAM copy can ``np.asarray`` the columns.
        """
        missing = [i for i, seen in enumerate(self._seen) if not seen]
        if missing:
            raise ValueError(f"cannot finalize: parts {missing} never added")
        assert self._outs is not None
        if self.out_dir is not None:
            for arr in self._outs.values():
                arr.flush()
            arrays = {
                name: np.load(self.out_dir / f"{name}.npy", mmap_mode="r")
                for name in Trace.ARRAY_FIELDS
            }
        else:
            arrays = self._outs
        self._outs = None
        merged = Trace(meta=self.meta, **arrays)
        if debug_checks_enabled():
            merged.assert_canonical_order("StreamingMerge")
        return merged


def open_stored(out_dir: str | Path) -> Trace:
    """Re-open a merged store written by :class:`StreamingMerge`
    (a spilled engine run's ``merged/`` directory).

    The columns come back as read-only memory maps, so a trace larger
    than RAM can be analysed (or streamed through accumulators) without
    ever being fully resident.  Stores written before the run meta rode
    along (no ``__meta__.json``) cannot be re-opened — re-run the
    collection, or pass the shard files to the analyzer directly.
    """
    out_dir = Path(out_dir)
    meta_path = out_dir / "__meta__.json"
    if not meta_path.exists():
        raise FileNotFoundError(
            f"{out_dir} has no __meta__.json; it is not a merged trace store "
            f"(or was written by an older version — re-run the collection)"
        )
    meta_raw = json.loads(meta_path.read_text())
    arrays = {
        name: np.load(out_dir / f"{name}.npy", mmap_mode="r")
        for name in Trace.ARRAY_FIELDS
    }
    return Trace(meta=_meta_from_dict(meta_raw), extra=meta_raw.get("extra", {}), **arrays)
