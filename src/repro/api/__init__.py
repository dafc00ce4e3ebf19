"""The unified experiment API: declarative specs, a batch runner, and
structured results.

This package is the composable front door to the reproduction:

* :class:`ExperimentSpec` / :class:`FecSpec` — frozen, JSON-serializable
  scenario descriptions (dataset, methods, duration, seeds, mode,
  filters, optional FEC);
* :class:`Runner` — executes one spec or a sweep, fanning independent
  runs over a thread pool and reusing prebuilt substrates across
  same-weather variants, while staying bitwise-identical to sequential
  :func:`repro.testbed.collect` calls; pass an
  :class:`~repro.engine.EngineConfig` to collect large scenarios on the
  sharded scale-out engine (:mod:`repro.engine`), still bit-for-bit
  identical;
* :class:`ExperimentResult` / :class:`SweepResult` — traces plus lazy
  accessors for the Table 5/7 and Figure 2-6 analyses;
* :class:`Experiment` — the facade tying the three together;
* :func:`spec_grid` — Cartesian sweeps over spec-field axes, the
  entry point scenario grids build on.

The method catalogue behind specs is pluggable
(:func:`repro.core.methods.register_method`), and so is the dataset
catalogue: :mod:`repro.scenarios` generates and registers whole
families of workloads that run through this API unchanged.
"""

from repro.core.methods import MethodRegistry, register_method
from repro.engine import EngineConfig
from repro.relaysets import RelayPolicySpec

from .experiment import Experiment
from .grid import spec_grid
from .result import ExperimentResult, SweepResult
from .runner import Runner
from .spec import ExperimentSpec, FecSpec

__all__ = [
    "EngineConfig",
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "FecSpec",
    "MethodRegistry",
    "RelayPolicySpec",
    "Runner",
    "SweepResult",
    "register_method",
    "spec_grid",
]
