"""The Figure 6 design space: when to use reactive vs redundant routing.

Axes: desired loss-rate improvement (0..1, Section 5.3's
``(Loss_Internet - Loss_method) / Loss_Internet``) vs the fraction of
capacity the data flow already uses.  Three limits bound the schemes:

* **Best Expected Path Limit** — probing asymptotically approaches the
  best path's performance; improvements beyond what the best path
  offers are unreachable for reactive routing.
* **Capacity Limit** — probing and duplication both need headroom;
  redundant routing's need is linear in the flow, probing's is fixed
  per network but grows with the demanded improvement (higher probe
  rates).
* **Independence Limit** — redundant routing cannot remove shared-fate
  losses (cross-path CLP), no matter the overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .reactive_model import probing_overhead_pps
from .redundant_model import independence_limit

__all__ = ["DesignPoint", "DesignSpace"]


class DesignPoint(NamedTuple):
    """Feasibility verdict for one (improvement, utilisation) point (a
    named tuple: Figure 6 builds hundreds, a frozen dataclass costs 4×)."""

    improvement: float
    utilisation: float
    reactive_feasible: bool
    redundant_feasible: bool
    cheaper: str  # "reactive" | "redundant" | "none"


@dataclass(frozen=True)
class DesignSpace:
    """Evaluate the Figure 6 regions for a concrete deployment.

    Parameters
    ----------
    n_nodes:
        overlay size (drives probing overhead).
    link_capacity_pps:
        access capacity in packets/second.
    best_path_improvement:
        improvement the best available path offers over the direct one
        (the Best Expected Path Limit's height).
    cross_clp:
        cross-path conditional loss probability (the Independence
        Limit's height); the paper measures ~0.6, so duplication can
        remove ~40% of losses.
    probe_interval_s:
        baseline probe interval; demanding more improvement scales the
        probing rate up proportionally.
    """

    n_nodes: int
    link_capacity_pps: float
    best_path_improvement: float = 0.75
    cross_clp: float = 0.60
    probe_interval_s: float = 15.0
    # per-instance constants of evaluate(), derived once
    _probe_pps: float = field(init=False, repr=False, compare=False)
    _redundant_limit: float = field(init=False, repr=False, compare=False)
    _log_clp: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.link_capacity_pps <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= self.best_path_improvement <= 1:
            raise ValueError("best_path_improvement must be in [0, 1]")
        set_ = object.__setattr__  # frozen: set once, here
        set_(self, "_probe_pps", probing_overhead_pps(self.n_nodes, self.probe_interval_s))
        set_(self, "_redundant_limit", independence_limit(self.cross_clp))
        set_(self, "_log_clp", float(np.log(max(self.cross_clp, 1e-9))))

    # -- the three limits -------------------------------------------------

    def reactive_limit(self) -> float:
        """Best Expected Path Limit (max improvement probing can reach)."""
        return self.best_path_improvement

    def redundant_limit(self) -> float:
        """Independence Limit (max improvement duplication can reach)."""
        return self._redundant_limit

    def reactive_overhead_pps(self, improvement: float) -> float:
        """Probing rate needed for a target improvement.

        Approaching the best path requires probing fast enough to catch
        problems; we model the needed rate as the baseline rate scaled
        by 1/(1 - i/limit) — asymptotic in the limit, matching the
        figure's curve shape.
        """
        lim = self.reactive_limit()
        if improvement >= lim:
            return float("inf")
        return self._probe_pps / (1.0 - improvement / lim)

    def redundant_overhead_pps(self, improvement: float, flow_pps: float) -> float:
        """Duplicate traffic needed for a target improvement.

        Reaching deeper improvement requires more copies: i of the
        removable losses with k extra copies ~ 1 - clp^k; we invert
        that for k.
        """
        lim = self.redundant_limit()
        if improvement >= lim:
            return float("inf")
        # fraction of removable losses we must catch
        frac = improvement / lim
        if frac <= 0:
            return 0.0
        # Python floats from here: the same IEEE operations as NumPy
        # scalars at a fraction of the call cost
        k = float(np.log(1.0 - frac)) / self._log_clp
        return max(k, 0.0) * flow_pps

    # -- the decision -----------------------------------------------------

    def evaluate(self, improvement: float, utilisation: float) -> DesignPoint:
        """Classify one point of Figure 6."""
        if not 0 <= improvement <= 1 or not 0 <= utilisation <= 1:
            raise ValueError("improvement and utilisation must be in [0, 1]")
        flow_pps = utilisation * self.link_capacity_pps
        headroom = (1.0 - utilisation) * self.link_capacity_pps

        r_over = self.reactive_overhead_pps(improvement)
        reactive_ok = improvement <= self.best_path_improvement and r_over <= headroom

        d_over = self.redundant_overhead_pps(improvement, flow_pps)
        redundant_ok = improvement <= self._redundant_limit and d_over <= headroom

        if reactive_ok and redundant_ok:
            cheaper = "reactive" if r_over <= d_over else "redundant"
        elif reactive_ok:
            cheaper = "reactive"
        elif redundant_ok:
            cheaper = "redundant"
        else:
            cheaper = "none"
        return DesignPoint(improvement, utilisation, reactive_ok, redundant_ok, cheaper)

    def grid(self, n_improvement: int = 21, n_utilisation: int = 21) -> list[DesignPoint]:
        """Sweep the whole plane (the benchmark renders this as Fig. 6)."""
        points = []
        for i in np.linspace(0.0, 1.0, n_improvement):
            for u in np.linspace(0.0, 1.0, n_utilisation):
                points.append(self.evaluate(float(i), float(u)))
        return points
