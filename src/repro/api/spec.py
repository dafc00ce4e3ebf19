"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the frozen, serializable description of a
measurement scenario: *which* dataset, *which* methods, *how long*,
*which seeds* — everything :class:`repro.api.Runner` needs to execute
the run, and nothing about how it is executed.  Specs round-trip
through plain dicts / JSON, so sweeps can be generated, stored and
shipped between processes.

The optional :class:`FecSpec` attaches the Section 5.2 coding
experiment (Reed-Solomon or duplication over one or two paths) to the
collected substrate.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.core.methods import METHODS
from repro.fec import DuplicationCode, ReedSolomonCode, TransmissionPlan, transmission_plan
from repro.relaysets import RelayPolicySpec
from repro.testbed.datasets import DatasetSpec, dataset

__all__ = ["ExperimentSpec", "FecSpec", "RelayPolicySpec"]


@dataclass(frozen=True)
class FecSpec:
    """Configuration of the Section 5.2 FEC experiment.

    ``code`` is ``"rs"`` (Reed-Solomon ``(n, k)``) or ``"dup"``
    (``n`` identical copies).  ``spacing_s`` spreads the group in time;
    ``n_paths`` spreads it over paths (2 = mesh-style).  ``groups`` is
    how many coded groups to simulate.
    """

    code: str = "rs"
    n: int = 6
    k: int = 5
    spacing_s: float = 0.0
    n_paths: int = 1
    groups: int = 20_000

    def __post_init__(self) -> None:
        if self.code not in ("rs", "dup"):
            raise ValueError(f"code must be 'rs' or 'dup', got {self.code!r}")
        if self.n < 1:
            raise ValueError("a group needs at least one packet")
        if self.code == "rs" and not 1 <= self.k <= self.n:
            raise ValueError(f"RS({self.n},{self.k}): need 1 <= k <= n")
        if self.spacing_s < 0:
            raise ValueError("spacing must be non-negative")
        if self.n_paths not in (1, 2):
            # the report machinery supplies one direct + one relay path;
            # wider spreading is reserved alongside k>2 redundancy
            raise ValueError("n_paths must be 1 or 2")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")

    def build_code(self):
        """The concrete code object for :func:`simulate_group_delivery`."""
        if self.code == "rs":
            return ReedSolomonCode(self.n, self.k)
        return DuplicationCode(self.n)

    def build_plan(self) -> TransmissionPlan:
        return transmission_plan(self.n, spacing_s=self.spacing_s, n_paths=self.n_paths)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FecSpec":
        return cls(**d)


@dataclass(frozen=True)
class ExperimentSpec:
    """A frozen, serializable description of one scenario.

    ``dataset`` names a registered dataset (``"ron2003"``,
    ``"ronnarrow"``, ``"ronwide"``, or anything added via
    :func:`repro.testbed.register_dataset`).  ``methods`` and ``mode``
    override the dataset's probe catalogue and probing mode when given;
    method names accept any paper-style spelling and are stored
    canonically.  ``seeds`` lists every seed the spec should be run at —
    the :class:`repro.api.Runner` fans them out.

    ``relays`` attaches a :class:`repro.relaysets.RelayPolicySpec` —
    which relay candidates each pair may route through (restrictive
    policies are the interdomain-scale path; see :mod:`repro.relaysets`).
    The default ``None`` lets every third host relay (policy ``all``)
    and leaves the policy out of the run identity, so pre-existing specs
    stay value-equal and their goldens byte-identical.
    """

    dataset: str
    duration_s: float
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] | None = None
    mode: str | None = None
    include_events: bool = True
    filters: bool = True
    fec: FecSpec | None = None
    label: str | None = None
    relays: RelayPolicySpec | None = None

    def __post_init__(self) -> None:
        if isinstance(self.dataset, DatasetSpec):
            # specs are serializable, so only a *registered* dataset may
            # be referenced; passing the object must not bypass that.
            try:
                registered = dataset(self.dataset.name)
            except KeyError:
                registered = None
            if registered != self.dataset:
                raise ValueError(
                    f"dataset {self.dataset.name!r} is not registered (or a "
                    "different spec owns that name); call "
                    "repro.testbed.register_dataset() first, or build the "
                    "spec through repro.Experiment"
                )
        base = dataset(self.dataset)  # raises KeyError for unknown names
        object.__setattr__(self, "dataset", base.name.lower())
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        seeds = (self.seeds,) if isinstance(self.seeds, int) else tuple(self.seeds)
        if not seeds:
            raise ValueError("at least one seed is required")
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        if self.methods is not None:
            names = (self.methods,) if isinstance(self.methods, str) else self.methods
            canonical = tuple(METHODS.lookup(name).name for name in names)
            if not canonical:
                raise ValueError("methods override must not be empty")
            object.__setattr__(self, "methods", canonical)
        if self.mode is not None and self.mode not in ("oneway", "rtt"):
            raise ValueError(f"mode must be 'oneway' or 'rtt', got {self.mode!r}")
        if self.fec is not None and isinstance(self.fec, dict):
            object.__setattr__(self, "fec", FecSpec.from_dict(self.fec))
        if self.relays is not None:
            if isinstance(self.relays, dict):
                object.__setattr__(self, "relays", RelayPolicySpec.from_dict(self.relays))
            elif not isinstance(self.relays, RelayPolicySpec):
                raise TypeError("relays must be a RelayPolicySpec, a dict, or None")

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolved_dataset(self) -> DatasetSpec:
        """The dataset spec with this experiment's overrides applied."""
        base = dataset(self.dataset)
        changes: dict = {}
        if self.methods is not None:
            changes["probe_methods"] = self.methods
        if self.mode is not None:
            changes["mode"] = self.mode
        if self.relays is not None:
            changes["relay_policy"] = self.relays
        return dataclasses.replace(base, **changes) if changes else base

    @property
    def probe_methods(self) -> tuple[str, ...]:
        """The methods this spec will actually probe."""
        return self.methods if self.methods is not None else dataset(self.dataset).probe_methods

    @property
    def name(self) -> str:
        """Human label: the explicit one, else dataset@duration."""
        if self.label is not None:
            return self.label
        return f"{self.dataset}@{self.duration_s:g}s"

    def single(self, seed: int) -> "ExperimentSpec":
        """This spec narrowed to one seed (what each run executes)."""
        return self.replace(seeds=(int(seed),))

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.fec is not None:
            d["fec"] = self.fec.to_dict()
        if self.relays is not None:
            d["relays"] = self.relays.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        if d.get("fec") is not None:
            d["fec"] = FecSpec.from_dict(d["fec"])
        if d.get("relays") is not None:
            d["relays"] = RelayPolicySpec.from_dict(d["relays"])
        if d.get("methods") is not None:
            d["methods"] = tuple(d["methods"])
        d["seeds"] = tuple(d.get("seeds", (0,)))
        return cls(**d)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, s: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(s))
