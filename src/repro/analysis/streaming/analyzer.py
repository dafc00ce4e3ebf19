"""One-pass analysis over spill shards: the streaming front end.

A :class:`StreamingAnalyzer` owns one accumulator per Table 5/6/7 row,
Figure 2-5 reduction and window size, and folds partial traces into all
of them — in-RAM shard traces, spilled ``shard-*.npz`` files as
:class:`~repro.engine.ShardedCollector` completes them (pass the
analyzer to ``collect``), or post-hoc from a spill run directory
(:meth:`StreamingAnalyzer.from_run_dir`, which falls back to the
memory-mapped ``merged/`` store when the shard files are gone).

:meth:`snapshot` freezes the current state into an
:class:`AnalysisSnapshot` whose accessors mirror
:class:`repro.api.ExperimentResult` and return *exactly* what the eager
functions return on the merged trace — the eager functions are wrappers
over the same accumulators (see
:mod:`repro.analysis.streaming.accumulators` for the exactness
argument).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.trace.filters import apply_standard_filters
from repro.trace.records import Trace, TraceMeta

from .accumulators import (
    HourlyLossAccumulator,
    MethodStatsAccumulator,
    PathClpAccumulator,
    PathLossAccumulator,
    WindowLossAccumulator,
    table_row,
    table_row_names,
)

__all__ = [
    "StreamingAnalyzer",
    "AnalysisSnapshot",
    "DEFAULT_WINDOW_SIZES",
]

#: window sizes pre-registered by default: Figure 3's 20 minutes and
#: Table 6's one hour.
DEFAULT_WINDOW_SIZES = (1200.0, 3600.0)


class StreamingAnalyzer:
    """Mergeable, incrementally-updatable analysis state for one run.

    Parameters
    ----------
    filters:
        apply the Section 4.1 standard filters to every ingested part
        (row-local, so per-shard filtering equals filtering the merged
        trace).  Match the spec's ``filters`` flag.
    window_sizes:
        window lengths (seconds) to tally; queries for other window
        sizes need the merged trace (the eager path).

    The analyzer binds to a run's :class:`TraceMeta` on the first
    ingested part; until then it is the empty state (a merge identity).
    """

    def __init__(
        self,
        *,
        filters: bool = True,
        window_sizes: Sequence[float] = DEFAULT_WINDOW_SIZES,
    ) -> None:
        self.filters = bool(filters)
        self.window_sizes = tuple(float(w) for w in window_sizes)
        self.meta: TraceMeta | None = None
        self.n_rows = 0
        self.n_parts = 0
        self._seen_paths: set[str] = set()
        self._table: dict[str, MethodStatsAccumulator] = {}
        self._windows: dict[tuple[str, float], WindowLossAccumulator] = {}
        self._clp: dict[str, PathClpAccumulator] = {}
        self._path_loss: PathLossAccumulator | None = None
        self._hourly: HourlyLossAccumulator | None = None

    def _config(self) -> tuple:
        return (self.filters, self.window_sizes)

    def _bind(self, meta: TraceMeta) -> None:
        self.meta = meta
        for name in table_row_names(meta):
            self._table[name] = table_row(meta, name)
        for name in meta.method_names:
            for w in self.window_sizes:
                self._windows[(name, w)] = WindowLossAccumulator(meta, name, w)
            acc = self._table[name]
            if acc.pair:
                self._clp[name] = PathClpAccumulator(meta, name)
        try:
            self._path_loss = PathLossAccumulator(meta)
        except KeyError:
            self._path_loss = None
        try:
            self._hourly = HourlyLossAccumulator(meta, "direct")
        except KeyError:
            self._hourly = None

    def _accumulators(self):
        yield from self._table.values()
        yield from self._windows.values()
        yield from self._clp.values()
        if self._path_loss is not None:
            yield self._path_loss
        if self._hourly is not None:
            yield self._hourly

    # -- ingestion -----------------------------------------------------

    def update(self, trace: Trace) -> "StreamingAnalyzer":
        """Fold one partial trace (a shard, or a whole run) in place."""
        from repro import telemetry  # leaf import; analysis stays engine-free

        with telemetry.span("analyze", cat="stage", rows=len(trace)):
            if self.filters:
                trace = apply_standard_filters(trace)
            if self.meta is None:
                self._bind(trace.meta)
            for acc in self._accumulators():
                acc.update(trace)
            self.n_rows += len(trace)
            self.n_parts += 1
        rec = telemetry.get_recorder()
        if rec.enabled:
            rec.counter_add("analyze.rows", len(trace))
        return self

    def ingest(self, part) -> "StreamingAnalyzer":
        """Fold a partial trace or the path of a spilled shard file.

        This is the hook :class:`~repro.engine.ShardedCollector` calls
        as each shard completes (``collect(..., analyzer=...)``).
        """
        if isinstance(part, Trace):
            return self.update(part)
        from repro.trace.store import load_trace

        path = Path(part)
        self._seen_paths.add(path.name)
        return self.update(load_trace(path))

    def ingest_dir(self, run_dir: str | Path) -> int:
        """Fold every not-yet-seen shard file under a spill run dir.

        Returns the number of newly ingested shards, so a live service
        can poll while a sweep appends.  If the directory holds no
        ``shard-*.npz`` files at all but has a ``merged/`` store, the
        merged trace is folded once instead (its memory-mapped columns
        stream through the accumulators without a full-copy resident).
        """
        from repro.engine.spill import shard_files  # analysis -> engine, lazy

        run_dir = Path(run_dir)
        shards = shard_files(run_dir)
        fresh = [p for p in shards if p.name not in self._seen_paths]
        for p in fresh:
            self.ingest(p)
        if not shards and not self._seen_paths:
            from repro.trace.store import open_stored

            merged = run_dir / "merged"
            if merged.is_dir():
                self._seen_paths.add("merged")
                self.update(open_stored(merged))
                return 1
        return len(fresh)

    @classmethod
    def from_run_dir(cls, run_dir: str | Path, **kwargs) -> "StreamingAnalyzer":
        """An analyzer pre-loaded from a spill run directory."""
        analyzer = cls(**kwargs)
        if analyzer.ingest_dir(run_dir) == 0:
            raise FileNotFoundError(
                f"no shard-*.npz files or merged/ store under {Path(run_dir)}"
            )
        return analyzer

    # -- algebra -------------------------------------------------------

    def merge(self, other: "StreamingAnalyzer") -> "StreamingAnalyzer":
        """A new analyzer holding the combined state (pure).

        An unbound (never-updated) analyzer is the identity; merging
        states from different runs or parameterisations raises.
        """
        if self._config() != other._config():
            raise ValueError("cannot merge analyzers with different configurations")
        if other.meta is None:
            return self._copy()
        if self.meta is None:
            return other._copy()
        if self.meta != other.meta:
            raise ValueError(
                f"cannot merge analyzers of different runs: "
                f"{self.meta.dataset!r} seed {self.meta.seed} vs "
                f"{other.meta.dataset!r} seed {other.meta.seed}"
            )
        out = self._copy()
        for key, acc in out._table.items():
            out._table[key] = acc.merge(other._table[key])
        for key, acc in out._windows.items():
            out._windows[key] = acc.merge(other._windows[key])
        for key, acc in out._clp.items():
            out._clp[key] = acc.merge(other._clp[key])
        if out._path_loss is not None:
            out._path_loss = out._path_loss.merge(other._path_loss)
        if out._hourly is not None:
            out._hourly = out._hourly.merge(other._hourly)
        out.n_rows = self.n_rows + other.n_rows
        out.n_parts = self.n_parts + other.n_parts
        out._seen_paths = self._seen_paths | other._seen_paths
        return out

    def _copy(self) -> "StreamingAnalyzer":
        out = StreamingAnalyzer(filters=self.filters, window_sizes=self.window_sizes)
        out.meta = self.meta
        out.n_rows = self.n_rows
        out.n_parts = self.n_parts
        out._seen_paths = set(self._seen_paths)
        out._table = {k: a.copy() for k, a in self._table.items()}
        out._windows = {k: a.copy() for k, a in self._windows.items()}
        out._clp = {k: a.copy() for k, a in self._clp.items()}
        out._path_loss = self._path_loss.copy() if self._path_loss else None
        out._hourly = self._hourly.copy() if self._hourly else None
        return out

    def snapshot(self) -> "AnalysisSnapshot":
        """Freeze the current state into a queryable snapshot."""
        if self.meta is None:
            raise ValueError("no shards ingested yet; nothing to snapshot")
        frozen = self._copy()
        return AnalysisSnapshot(frozen)


class AnalysisSnapshot:
    """A frozen analysis state with :class:`~repro.api.ExperimentResult`
    -shaped accessors, each returning exactly what the corresponding
    eager function returns on the merged trace."""

    def __init__(self, analyzer: StreamingAnalyzer) -> None:
        self._a = analyzer
        self.meta = analyzer.meta
        self.n_rows = analyzer.n_rows
        self.n_parts = analyzer.n_parts
        self._stats: tuple | None = None

    def __repr__(self) -> str:
        return (
            f"AnalysisSnapshot(dataset={self.meta.dataset!r}, "
            f"seed={self.meta.seed}, rows={self.n_rows:,}, parts={self.n_parts})"
        )

    # -- Tables 5/7 ----------------------------------------------------

    @property
    def stats(self) -> tuple:
        """Table 5/7 rows (probed + standard inferred), as MethodStats."""
        if self._stats is None:
            self._stats = tuple(acc.finalize() for acc in self._a._table.values())
        return self._stats

    @property
    def stats_by_method(self) -> dict:
        return {s.method: s for s in self.stats}

    def loss_table(self, title: str, paper: dict | None = None) -> str:
        from repro.analysis.report import render_loss_table

        return render_loss_table(list(self.stats), title, paper=paper)

    # -- windowed loss (Figure 3, Table 6) -----------------------------

    def _window(self, name: str, window_s: float) -> WindowLossAccumulator:
        try:
            return self._a._windows[(name, float(window_s))]
        except KeyError:
            registered = sorted({w for (_, w) in self._a._windows})
            raise KeyError(
                f"window ({name!r}, {window_s}s) not tallied by this analyzer "
                f"(methods: {self.meta.method_names}, window sizes: "
                f"{registered}); re-analyze eagerly or register the size"
            ) from None

    def window_loss_rates(self, name: str, window_s: float = 1200.0, min_samples: int = 5):
        return self._window(name, window_s).finalize(min_samples=min_samples)

    def window_cdf(self, name: str, window_s: float = 1200.0, min_samples: int = 5):
        from repro.analysis.cdf import empirical_cdf

        return empirical_cdf(self.window_loss_rates(name, window_s, min_samples).rates)

    def high_loss(
        self,
        methods: Sequence[str] | None = None,
        window_s: float = 3600.0,
        thresholds: tuple[int, ...] | None = None,
        min_samples: int = 5,
    ) -> dict[str, dict[int, int]]:
        from repro.analysis.windows import TABLE6_THRESHOLDS, high_loss_counts

        if thresholds is None:
            thresholds = TABLE6_THRESHOLDS
        names = list(methods) if methods is not None else list(self.meta.method_names)
        return {
            name: high_loss_counts(
                self.window_loss_rates(name, window_s, min_samples), thresholds
            )
            for name in names
        }

    def testbed_hourly_loss(self, name: str = "direct"):
        acc = self._a._hourly
        if acc is None or acc.name != name:
            # non-default method: tally on demand from the table row state?
            # No — hourly state is per-name; only the standard row streams.
            raise KeyError(
                f"hourly loss for {name!r} is not tallied by this analyzer "
                f"(only 'direct'); re-analyze eagerly"
            )
        return acc.finalize()

    # -- per-path loss / CLP (Figures 2 and 4) -------------------------

    def per_path_loss(self, min_samples: int = 50):
        if self._a._path_loss is None:
            raise KeyError("trace has no direct-path observations")
        return self._a._path_loss.finalize(min_samples=min_samples)

    def path_loss_cdf(self, min_samples: int = 50):
        from repro.analysis.cdf import empirical_cdf

        return empirical_cdf(self.per_path_loss(min_samples=min_samples))

    def per_path_clp(self, name: str, min_first_losses: int = 1):
        acc = self._a._clp.get(name)
        if acc is None:
            # not tallied: constructing the accumulator raises exactly the
            # error the eager path would (unknown method / not a pair /
            # not probed) — every probed pair method *is* tallied.
            PathClpAccumulator(self.meta, name)
            raise AssertionError(f"pair method {name!r} missing from clp tallies")
        return acc.finalize(min_first_losses=min_first_losses)

    def clp_cdf(self, name: str = "direct_rand", min_first_losses: int = 2):
        from repro.analysis.cdf import empirical_cdf

        return empirical_cdf(self.per_path_clp(name, min_first_losses=min_first_losses))

    # -- latency (Figure 5, Section 4.5) -------------------------------

    def per_path_latency(self, name: str):
        # probed methods only, like the eager per_path_latency — the
        # inferred table rows ("direct", "lat") have first-packet
        # latency state too, but the eager path raises for them, and
        # the snapshot must not answer differently.
        if name not in self.meta.method_names:
            raise KeyError(
                f"trace has no method {name!r}; methods: {self.meta.method_names}"
            )
        return self._a._table[name].finalize_paths()

    def latency_cdf(
        self, name: str, baseline: str | None = None, min_latency_s: float = 0.050
    ):
        from repro.analysis.latency_analysis import latency_cdf_over_paths

        lat = self.per_path_latency(name)
        base = self.per_path_latency(baseline) if baseline else None
        return latency_cdf_over_paths(lat, min_latency_s=min_latency_s, baseline=base)

    def latency_improvement(self, baseline: str, improved: str) -> dict[str, float]:
        from repro.analysis.latency_analysis import improvement_summary

        return improvement_summary(
            self.per_path_latency(baseline), self.per_path_latency(improved)
        )
