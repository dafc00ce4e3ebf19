"""The :class:`Scenario` glue: topology x pathologies -> DatasetSpec.

A scenario is a *value*: a frozen description of one generated workload
(a topology family, a stack of pathologies, a baseline substrate preset
and a probe catalogue).  :meth:`Scenario.build` compiles it into a
:class:`repro.testbed.DatasetSpec`, and :meth:`Scenario.register` drops
it into the shared dataset catalogue so plain
``ExperimentSpec("my-scenario", ...)`` — and therefore the whole
:class:`repro.api.Runner` machinery, substrate reuse included — works
on it unchanged.

Because scenarios are values, equal scenarios compile to *equal*
dataset specs (the callable fields are equality-aware wrappers, not
fresh lambdas), so re-registering the same scenario is a no-op and
registering a different scenario under a taken name fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.methods import METHODS, RON2003_PROBE_METHODS
from repro.netsim.config import (
    MajorEvent,
    NetworkConfig,
    config_2002,
    config_2002_wide,
    config_2003,
)
from repro.netsim.topology import HostSpec
from repro.relaysets import RelayPolicySpec
from repro.testbed.datasets import DatasetSpec, register_dataset, unregister_dataset
from repro.netsim.units import DAY

from .pathologies import Pathology
from .topologies import TopologyFamily

__all__ = ["Scenario", "BASE_CONFIGS"]

#: substrate presets a scenario can start from.
BASE_CONFIGS = {
    "2003": config_2003,
    "2002": config_2002,
    "2002wide": config_2002_wide,
}


@dataclass(frozen=True)
class _ScenarioFn:
    """An equality-aware bound callable (bound methods compare their
    ``__self__`` by identity, which would make every ``build()`` produce
    an unequal ``DatasetSpec`` and break idempotent registration)."""

    scenario: "Scenario"
    attr: str

    def __call__(self, *args):
        return getattr(self.scenario, self.attr)(*args)


@dataclass(frozen=True)
class Scenario:
    """One generated workload, ready to compile into the catalogue.

    Parameters
    ----------
    name:
        catalogue key (case-insensitive); pick something descriptive —
        it becomes the ``dataset`` field of experiment specs.
    topology:
        a :class:`TopologyFamily` generating the host catalogue.
    pathologies:
        transforms applied in order on top of the baseline; host
        transforms chain over the topology's hosts, config transforms
        over the base preset, and event schedules concatenate.
    base:
        baseline substrate preset: ``"2003"``, ``"2002"`` or
        ``"2002wide"``.
    probe_methods / mode:
        the probe catalogue and probing mode, as in any dataset.
    relay_policy:
        optional :class:`repro.relaysets.RelayPolicySpec` compiled into
        the dataset — restrictive relay candidate sets for
        interdomain-scale topologies; ``None`` lets every third host
        relay (policy ``all``).
    """

    name: str
    topology: TopologyFamily
    pathologies: tuple[Pathology, ...] = ()
    base: str = "2003"
    probe_methods: tuple[str, ...] = field(default_factory=lambda: tuple(RON2003_PROBE_METHODS))
    mode: str = "oneway"
    paper_duration_s: float = DAY
    relay_policy: RelayPolicySpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if not isinstance(self.topology, TopologyFamily):
            raise TypeError(f"topology must be a TopologyFamily, got {self.topology!r}")
        if isinstance(self.pathologies, Pathology):
            object.__setattr__(self, "pathologies", (self.pathologies,))
        else:
            object.__setattr__(self, "pathologies", tuple(self.pathologies))
        for p in self.pathologies:
            if not isinstance(p, Pathology):
                raise TypeError(f"pathologies must be Pathology instances, got {p!r}")
        if self.base not in BASE_CONFIGS:
            known = ", ".join(sorted(BASE_CONFIGS))
            raise ValueError(f"unknown base config {self.base!r}; known: {known}")
        canonical = tuple(METHODS.lookup(m).name for m in self.probe_methods)
        if not canonical:
            raise ValueError("at least one probe method is required")
        object.__setattr__(self, "probe_methods", canonical)
        if self.mode not in ("oneway", "rtt"):
            raise ValueError(f"mode must be 'oneway' or 'rtt', got {self.mode!r}")
        if self.paper_duration_s <= 0:
            raise ValueError("paper_duration_s must be positive")
        if self.relay_policy is not None and not isinstance(self.relay_policy, RelayPolicySpec):
            raise TypeError("relay_policy must be a RelayPolicySpec or None")

    # ------------------------------------------------------------------
    # the three DatasetSpec levers
    # ------------------------------------------------------------------

    def hosts(self) -> list[HostSpec]:
        """The topology's hosts, with host-level pathologies applied."""
        hosts = self.topology.hosts()
        for p in self.pathologies:
            hosts = p.transform_hosts(hosts)
        return hosts

    def network_config(self) -> NetworkConfig:
        """The base preset, with config-level pathologies applied."""
        cfg = BASE_CONFIGS[self.base]()
        for p in self.pathologies:
            cfg = p.transform_config(cfg)
        return cfg

    def events(self, horizon_s: float) -> tuple[MajorEvent, ...]:
        """All pathologies' incident schedules for one horizon."""
        hosts = self.hosts()
        out: list[MajorEvent] = []
        for p in self.pathologies:
            out.extend(p.events(horizon_s, hosts))
        return tuple(out)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def build(self) -> DatasetSpec:
        """Compile to a :class:`DatasetSpec` (not yet registered).

        Equal scenarios compile to equal specs; the events hook is only
        attached when some pathology actually schedules incidents, so
        ``include_events`` stays meaningful.
        """
        has_events = bool(self.events(1.0))
        return DatasetSpec(
            name=self.name,
            hosts_fn=_ScenarioFn(self, "hosts"),
            config_fn=_ScenarioFn(self, "network_config"),
            probe_methods=self.probe_methods,
            mode=self.mode,
            paper_duration_s=self.paper_duration_s,
            paper_samples=0,
            events_fn=_ScenarioFn(self, "events") if has_events else None,
            relay_policy=self.relay_policy,
        )

    def register(self, overwrite: bool = False) -> DatasetSpec:
        """Compile and add to the shared dataset catalogue.

        Registering the same scenario again is a no-op; a *different*
        scenario under a taken name raises unless ``overwrite=True``.
        """
        return register_dataset(self.build(), overwrite=overwrite)

    def unregister(self) -> None:
        """Remove this scenario's dataset from the catalogue (no-op if
        absent)."""
        unregister_dataset(self.name)

    def experiment_spec(self, duration_s: float, **overrides):
        """Register (idempotently) and return an
        :class:`repro.api.ExperimentSpec` for this scenario."""
        from repro.api.spec import ExperimentSpec

        self.register()
        return ExperimentSpec(self.name.lower(), duration_s=duration_s, **overrides)
