"""The paper's contribution: best-path and multi-path overlay routing.

* :mod:`repro.core.methods` — the route/method catalogue (Table 4);
* :mod:`repro.core.reactive` — probe-based reactive routing (Section 3.1);
* :mod:`repro.core.mesh` — redundant multi-path routing (Section 3.2);
* :mod:`repro.core.selector` / :mod:`repro.core.history` — best-path
  selection machinery shared by the vectorised and event-driven paths;
* :mod:`repro.core.router` — per-packet path resolution.
"""

from .history import PathHistory
from .methods import (
    METHODS,
    RON2003_PROBE_METHODS,
    RONNARROW_PROBE_METHODS,
    RONWIDE_PROBE_METHODS,
    TABLE5_ROWS,
    TABLE7_ROWS,
    Method,
    MethodRegistry,
    RouteKind,
    method,
    register_method,
)
from .reactive import (
    ProbeBlock,
    ProbeSeries,
    ProbingPlan,
    RoutingTables,
    build_routing_tables,
    merge_probe_blocks,
    prepare_probing,
    probe_estimates,
    probe_rows,
    run_probing,
)
from .router import ResolvedRoutes, resolve_routes
from .selector import (
    DIRECT,
    Choice,
    SelectionTables,
    combine_loss,
    select_paths,
    select_paths_batch,
)

__all__ = [
    "Choice",
    "DIRECT",
    "METHODS",
    "Method",
    "MethodRegistry",
    "PathHistory",
    "ProbeBlock",
    "ProbeSeries",
    "ProbingPlan",
    "RON2003_PROBE_METHODS",
    "RONNARROW_PROBE_METHODS",
    "RONWIDE_PROBE_METHODS",
    "ResolvedRoutes",
    "RouteKind",
    "RoutingTables",
    "SelectionTables",
    "TABLE5_ROWS",
    "TABLE7_ROWS",
    "build_routing_tables",
    "combine_loss",
    "merge_probe_blocks",
    "method",
    "prepare_probing",
    "probe_estimates",
    "probe_rows",
    "register_method",
    "resolve_routes",
    "run_probing",
    "select_paths",
    "select_paths_batch",
]
