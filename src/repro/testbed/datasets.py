"""The three datasets of Table 3, as collection specifications.

============  ==========  =====================  ====================
dataset       samples     dates                  what it measured
============  ==========  =====================  ====================
RONnarrow      4,763,082  8 Jul - 11 Jul 2002    one-way, 3 methods
RONwide        2,875,431  3 Jul - 8 Jul 2002     round-trip, 11 types
RON2003       32,602,776  30 Apr - 14 May 2003   one-way, 6 groups
============  ==========  =====================  ====================

A :class:`DatasetSpec` holds everything needed to regenerate a dataset
at any time-compression: the host set, substrate preset, probe method
list, and probing mode.  ``paper_duration_s`` records the published
span; :func:`repro.testbed.collection.collect` takes the actual horizon
so benchmarks can run scaled-down collections (see DESIGN.md Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.methods import (
    RON2003_PROBE_METHODS,
    RONNARROW_PROBE_METHODS,
    RONWIDE_PROBE_METHODS,
)
from repro.netsim.config import MajorEvent, NetworkConfig
from repro.netsim.config import config_2002, config_2002_wide, config_2003, ron2003_events
from repro.netsim.topology import HostSpec
from repro.netsim.units import DAY
from repro.relaysets import RelayPolicySpec

from .hosts import hosts_2002, hosts_2003

__all__ = [
    "DatasetSpec",
    "RON2003",
    "RONNARROW",
    "RONWIDE",
    "DATASETS",
    "dataset",
    "register_dataset",
    "unregister_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """A reproducible description of one dataset's collection."""

    name: str
    hosts_fn: Callable[[], list[HostSpec]]
    config_fn: Callable[[], NetworkConfig]
    probe_methods: tuple[str, ...]
    mode: str  # "oneway" | "rtt"
    paper_duration_s: float
    paper_samples: int
    events_fn: Callable[[float], tuple[MajorEvent, ...]] | None = None
    #: relay candidate-set policy; ``None`` lets every third host relay
    #: (policy ``all``) and keeps the byte-identical committed goldens.
    relay_policy: RelayPolicySpec | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("oneway", "rtt"):
            raise ValueError(f"mode must be 'oneway' or 'rtt', got {self.mode!r}")
        if self.relay_policy is not None and not isinstance(self.relay_policy, RelayPolicySpec):
            raise TypeError("relay_policy must be a RelayPolicySpec or None")

    def hosts(self) -> list[HostSpec]:
        return self.hosts_fn()

    def network_config(self, horizon_s: float, include_events: bool = True) -> NetworkConfig:
        """Substrate config for a run of the given length."""
        cfg = self.config_fn()
        if include_events and self.events_fn is not None:
            cfg = cfg.with_overrides(major_events=self.events_fn(horizon_s))
        return cfg


RON2003 = DatasetSpec(
    name="RON2003",
    hosts_fn=hosts_2003,
    config_fn=config_2003,
    probe_methods=tuple(RON2003_PROBE_METHODS),
    mode="oneway",
    paper_duration_s=14 * DAY,
    paper_samples=32_602_776,
    events_fn=ron2003_events,
)

RONNARROW = DatasetSpec(
    name="RONnarrow",
    hosts_fn=hosts_2002,
    config_fn=config_2002,
    probe_methods=tuple(RONNARROW_PROBE_METHODS),
    mode="oneway",
    paper_duration_s=3 * DAY,
    paper_samples=4_763_082,
)

RONWIDE = DatasetSpec(
    name="RONwide",
    hosts_fn=hosts_2002,
    config_fn=config_2002_wide,
    probe_methods=tuple(RONWIDE_PROBE_METHODS),
    mode="rtt",
    paper_duration_s=5 * DAY,
    paper_samples=2_875_431,
)

DATASETS: dict[str, DatasetSpec] = {
    spec.name.lower(): spec for spec in (RON2003, RONNARROW, RONWIDE)
}


def dataset(name: str | DatasetSpec) -> DatasetSpec:
    """Look up a dataset spec by (case-insensitive) name.

    A :class:`DatasetSpec` passes through unchanged, so callers can
    accept either form.
    """
    if isinstance(name, DatasetSpec):
        return name
    try:
        return DATASETS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None


def register_dataset(spec: DatasetSpec, overwrite: bool = False) -> DatasetSpec:
    """Add a custom scenario to the catalogue, keyed by its lowercased
    name, so :class:`repro.api.ExperimentSpec` can reference it by name."""
    key = spec.name.lower()
    if not overwrite and key in DATASETS and DATASETS[key] != spec:
        raise ValueError(f"dataset {spec.name!r} is already registered")
    DATASETS[key] = spec
    return spec


#: the catalogue's permanent residents (Table 3); they cannot be removed.
_BUILTIN_DATASETS = frozenset(spec.name.lower() for spec in (RON2003, RONNARROW, RONWIDE))


def unregister_dataset(name: str) -> DatasetSpec | None:
    """Remove a custom dataset from the catalogue.

    Returns the removed spec, or ``None`` if nothing was registered
    under ``name``.  The three paper datasets are permanent; trying to
    remove one raises.  Scenario tests use this to leave the catalogue
    as they found it.
    """
    key = name.lower() if isinstance(name, str) else name.name.lower()
    if key in _BUILTIN_DATASETS:
        raise ValueError(f"dataset {name!r} is built in and cannot be unregistered")
    return DATASETS.pop(key, None)
