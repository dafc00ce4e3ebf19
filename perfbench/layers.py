"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it times each layer by wrapping the
layer's public entry points at run time.

* For a module-level function, every name in the loaded ``repro``
  modules that refers to the function object is rebound to the
  wrapper.  Modules import by name (``engine.pipeline`` binds
  ``collect_rows``, for example), so patching only the defining module
  would miss most call sites.
* For a method, the class attribute is replaced.

Each wrapper records one span per call: the layer name, the thread id,
``perf_counter`` start and end, and the ``thread_time`` delta, plus the
span's *self* wall and CPU time.  Self time is the span minus the child
spans that ran on the same thread.  ``wait`` is self wall minus self
CPU, so it holds time lost to the GIL, locks and I/O.  Spans stay in
memory until the run ends.

An entry point that cannot be resolved, or that has no binding, raises:
the tracer never drops a layer without saying so.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: layers in report order; ``network`` is split by caller into
#: ``network.probe`` (the probe grid) and ``network.collect``.
LAYERS = (
    "topology",
    "relaysets",
    "substrate.generate",
    "substrate.query",
    "probe",
    "selector",
    "network.probe",
    "network.collect",
    "router",
    "collection",
    "store.spill",
    "store.merge",
    "filters",
    "analysis",
)

#: work counts, each summed over the run
COUNTS = (
    "topology.paths",
    "relaysets.candidates",
    "substrate.generate.timelines",
    "substrate.query.lookups",
    "probe.probes",
    "selector.selections",
    "network.packets",
    "router.routes",
    "collection.rows",
    "store.spill.bytes",
    "store.merge.rows",
    "analysis.rows",
)

# -- work counters --------------------------------------------------------
# Each takes (tracer, result, args) and adds to tracer counts.  They run
# after the wrapped call returns, outside its span.


def _count_paths(tr, topo, args):
    tr.add("topology.paths", int(topo.paths.valid.sum()))


def _count_candidates(tr, relay_set, args):
    tr.add("relaysets.candidates", relay_set.nnz)


def _count_timeline(tr, timeline, args):
    recipe, kind, seg = args[0], args[1], args[2]
    tr.add("substrate.generate.timelines", 1)
    with tr.lock:
        tr.distinct_timelines.add((id(recipe), kind, seg.sid))


def _count_lookups(tr, out, args):
    tr.add("substrate.query.lookups", int(out.size))


def _count_probes(tr, block, args):
    slots, width, n = block.lost.shape
    tr.add("probe.probes", slots * width * (n - 1))


def _count_selections(tr, tables, args):
    slots, width, n = tables.loss_best.shape
    tr.add("selector.selections", slots * width * (n - 1))


def _count_packets(tr, out, args):
    tr.add("network.packets", len(out))


def _count_pair_packets(tr, out, args):
    tr.add("network.packets", 2 * len(out))


def _count_routes(tr, routes, args):
    tr.add("router.routes", len(routes.pid1))


def _count_rows(tr, trace, args):
    tr.add("collection.rows", len(trace))


def _count_spill(tr, path, args):
    tr.add("store.spill.bytes", path.stat().st_size)


def _count_merge(tr, trace, args):
    tr.add("store.merge.rows", len(trace))


def _count_merge_add(tr, out, args):
    merge, index = args[0], args[1]
    tr.add("store.merge.rows", int(merge._offsets[index + 1] - merge._offsets[index]))


def _count_filters(tr, out, args):
    tr.add("filters.rows_in", len(args[0]))
    tr.add("filters.rows_kept", len(out))


def _count_analysis(tr, out, args):
    # StreamingAnalyzer.update(self, trace) or an eager f(trace, ...)
    trace = args[1] if len(args) > 1 and hasattr(args[1], "probe_id") else args[0]
    if hasattr(trace, "probe_id"):
        tr.add("analysis.rows", len(trace))


@dataclass(frozen=True)
class EntryPoint:
    """One public entry point of a layer: ``module:qualname``."""

    layer: str
    module: str
    qualname: str
    count: Callable | None = None
    #: count only when not nested in a span of the same layer
    outermost_only: bool = False


#: the eager analyses in ``repro.analysis`` (each wraps the streaming
#: accumulators with one update over the whole trace)
EAGER_ANALYSES = (
    ("repro.analysis.lossstats", "method_stats_table"),
    ("repro.analysis.lossstats", "method_stats"),
    ("repro.analysis.lossstats", "per_path_clp"),
    ("repro.analysis.windows", "high_loss_table"),
    ("repro.analysis.windows", "high_loss_counts"),
    ("repro.analysis.windows", "window_loss_rates"),
    ("repro.analysis.paths_report", "path_loss_cdf"),
    ("repro.analysis.paths_report", "per_path_loss"),
    ("repro.analysis.latency_analysis", "per_path_latency"),
    ("repro.analysis.latency_analysis", "latency_cdf_over_paths"),
    ("repro.analysis.latency_analysis", "improvement_summary"),
    ("repro.analysis.cdf", "empirical_cdf"),
    ("repro.analysis.report", "render_loss_table"),
)

ENTRY_POINTS = (
    EntryPoint("topology", "repro.netsim.topology", "build_topology", _count_paths),
    EntryPoint("relaysets", "repro.relaysets", "compile_relay_set", _count_candidates),
    EntryPoint(
        "substrate.generate",
        "repro.netsim.state",
        "SegmentTimelineRecipe.timeline",
        _count_timeline,
    ),
    EntryPoint("substrate.generate", "repro.netsim.state", "build_state"),
    EntryPoint(
        "substrate.query",
        "repro.netsim.state",
        "TimelineBank.severity_at",
        _count_lookups,
        outermost_only=True,
    ),
    EntryPoint(
        "substrate.query",
        "repro.netsim.substrate",
        "LazyTimelineBank.severity_at",
        _count_lookups,
        outermost_only=True,
    ),
    EntryPoint("probe", "repro.core.reactive", "run_probing"),
    EntryPoint("probe", "repro.core.reactive", "probe_rows", _count_probes),
    EntryPoint("probe", "repro.core.reactive", "probe_estimates"),
    EntryPoint("selector", "repro.core.reactive", "build_routing_tables", _count_selections),
    EntryPoint("selector", "repro.core.reactive", "build_table_block", _count_selections),
    EntryPoint("network", "repro.netsim.network", "Network.sample_packets", _count_packets),
    EntryPoint("network", "repro.netsim.network", "Network.sample_pairs", _count_pair_packets),
    EntryPoint("router", "repro.core.router", "resolve_routes", _count_routes),
    EntryPoint("collection", "repro.testbed.collection", "collect_rows", _count_rows),
    EntryPoint("collection", "repro.engine.spill", "collect_rows_spilled"),
    EntryPoint("store.spill", "repro.trace.store", "save_trace", _count_spill),
    EntryPoint("store.merge", "repro.trace.records", "Trace.concatenate", _count_merge),
    EntryPoint("store.merge", "repro.trace.store", "StreamingMerge.add", _count_merge_add),
    EntryPoint("filters", "repro.trace.filters", "apply_standard_filters", _count_filters),
    EntryPoint(
        "analysis",
        "repro.analysis.streaming.analyzer",
        "StreamingAnalyzer.update",
        _count_analysis,
        outermost_only=True,
    ),
    *(
        EntryPoint("analysis", mod, name, _count_analysis, outermost_only=True)
        for mod, name in EAGER_ANALYSES
    ),
)


def _network_layer(parent: str | None) -> str:
    """``network`` spans are billed to the stage that sends the packets."""
    if parent is not None and parent.startswith("network."):
        return parent
    if parent == "probe":
        return "network.probe"
    if parent == "collection":
        return "network.collect"
    return "network.other"


class Tracer:
    """Installs span wrappers on the entry points and collects spans.

    ``spans`` holds ``(layer, thread id, start, end, cpu, self wall,
    self cpu)`` tuples in completion order.
    """

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.entry_points = tuple(entry_points)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.distinct_timelines: set = set()
        self.bindings: dict[str, int] = {}
        self.lock = threading.Lock()
        self._tls = threading.local()
        self._restore: list[tuple] = []

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wrap(self, entry: EntryPoint, fn):
        tracer = self
        spans = self.spans
        perf_counter, thread_time = time.perf_counter, time.thread_time
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            layer = _network_layer(parent) if entry.layer == "network" else entry.layer
            # frame: [layer, child wall, child cpu]
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                wall, cpu = t1 - t0, c1 - c0
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                spans.append((layer, get_ident(), t0, t1, cpu, wall - frame[1], cpu - frame[2]))
            if entry.count is not None and not (entry.outermost_only and parent == layer):
                entry.count(tracer, out, args)
            return out

        return functools.wraps(fn)(traced)

    def install(self) -> "Tracer":
        """Wrap every entry point; raises if one has no binding."""
        for entry in self.entry_points:
            key = f"{entry.module}:{entry.qualname}"
            module = sys.modules.get(entry.module)
            if module is None:
                raise RuntimeError(f"entry point {key}: module not loaded")
            owner_name, _, attr = entry.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    raise RuntimeError(f"entry point {key} does not exist")
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(entry, original.__func__))
                else:
                    wrapped = self._wrap(entry, original)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, original))
                self.bindings[key] = 1
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                raise RuntimeError(f"entry point {key} does not exist")
            wrapped = self._wrap(entry, fn)
            n = 0
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, wrapped)
                        self._restore.append((mod, binding, fn))
                        n += 1
            if n == 0:
                raise RuntimeError(f"entry point {key} has no binding")
            self.bindings[key] = n
        return self

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, t_start: float, t_end: float, process_cpu_s: float) -> dict:
        """Per-layer self CPU and wait, work counts, and run-level ratios
        over the traced window ``[t_start, t_end]`` (``perf_counter``)."""
        cpu = dict.fromkeys(LAYERS, 0.0)
        wait = dict.fromkeys(LAYERS, 0.0)
        intervals = []
        for layer, _tid, t0, t1, _cpu, self_wall, self_cpu in self.spans:
            cpu[layer] = cpu.get(layer, 0.0) + self_cpu
            wait[layer] = wait.get(layer, 0.0) + self_wall - self_cpu
            intervals.append((t0, t1))
        out: dict[str, float] = {}
        for layer in cpu:
            out[f"{layer}.cpu_s"] = cpu[layer]
            out[f"{layer}.wait_s"] = wait[layer]
        counts = self.counts
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        generated = counts.get("substrate.generate.timelines", 0)
        rows_in = counts.get("filters.rows_in", 0)
        rows_kept = counts.get("filters.rows_kept", 0)
        out["substrate.generate.useful_ratio"] = (
            len(self.distinct_timelines) / generated if generated else 1.0
        )
        out["filters.kept_ratio"] = rows_kept / rows_in if rows_in else 1.0
        out["engine.unattributed_s"] = (t_end - t_start) - _union_length(intervals)
        out["trace.coverage"] = sum(cpu.values()) / process_cpu_s
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total
