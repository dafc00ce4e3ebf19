"""repro — a reproduction of *Best-Path vs. Multi-Path Overlay Routing*
(Andersen, Snoeren, Balakrishnan; IMC 2003).

The package rebuilds the paper's entire measurement system on a
calibrated synthetic Internet substrate:

* :mod:`repro.netsim`  — segment-based Internet path simulator;
* :mod:`repro.testbed` — the 30-host RON testbed, probers, datasets;
* :mod:`repro.core`    — reactive (best-path) and mesh (multi-path)
  overlay routing, the paper's subject;
* :mod:`repro.trace`   — measurement traces and the Section 4.1 filters;
* :mod:`repro.analysis`— the Section 4 evaluation pipeline;
* :mod:`repro.fec`     — Reed-Solomon / duplication coding (Section 5.2);
* :mod:`repro.models`  — the Section 5 analytic models and Figure 6;
* :mod:`repro.api`     — the unified experiment front door;
* :mod:`repro.scenarios` — parametric scenario generation (topology x
  pathology families compiling to registered datasets).

Quickstart::

    from repro import Experiment

    result = Experiment("ron2003", duration_s=4 * 3600, seeds=(1,)).run()
    print(result.loss_table())

Multi-seed sweeps, scenario batches and the pluggable method catalogue
live in :mod:`repro.api`; the lower-level ``collect()`` pipeline remains
available::

    from repro import collect, RON2003, apply_standard_filters
    from repro.analysis import method_stats_table, render_loss_table

    result = collect(RON2003, duration_s=4 * 3600, seed=1)
    trace = apply_standard_filters(result.trace)
    print(render_loss_table(method_stats_table(trace), "Table 5 (scaled)"))
"""

from .analysis import method_stats_table, render_loss_table
from .api import (
    EngineConfig,
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    FecSpec,
    MethodRegistry,
    RelayPolicySpec,
    Runner,
    SweepResult,
    spec_grid,
)
from .engine import ShardedCollector
from .core import METHODS, Method, RouteKind, method, register_method
from .netsim import (
    Network,
    NetworkConfig,
    RngFactory,
    config_2002,
    config_2002_wide,
    config_2003,
)
from .testbed import (
    RON2003,
    RONNARROW,
    RONWIDE,
    CollectionResult,
    DatasetSpec,
    collect,
    dataset,
    hosts_2002,
    hosts_2003,
    register_dataset,
)
from .trace import Trace, apply_standard_filters, load_trace, save_trace

# scenarios builds on api + testbed, so it comes last
from .scenarios import Scenario, scenario_grid, standard_catalogue

__version__ = "1.0.0"

__all__ = [
    "CollectionResult",
    "DatasetSpec",
    "EngineConfig",
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "FecSpec",
    "METHODS",
    "Method",
    "MethodRegistry",
    "Network",
    "NetworkConfig",
    "RON2003",
    "RONNARROW",
    "RONWIDE",
    "RelayPolicySpec",
    "RngFactory",
    "RouteKind",
    "Runner",
    "Scenario",
    "ShardedCollector",
    "SweepResult",
    "Trace",
    "__version__",
    "apply_standard_filters",
    "collect",
    "config_2002",
    "config_2002_wide",
    "config_2003",
    "dataset",
    "hosts_2002",
    "hosts_2003",
    "load_trace",
    "method",
    "method_stats_table",
    "register_dataset",
    "register_method",
    "render_loss_table",
    "save_trace",
    "scenario_grid",
    "spec_grid",
    "standard_catalogue",
]
