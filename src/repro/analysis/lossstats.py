"""Loss statistics per routing method: Tables 5 and 7.

For every method the paper reports:

* ``1lp``/``2lp`` — loss percentage of the first/second packet;
* ``totlp`` — probability the probe's *data* was lost (both copies for
  two-packet methods, the single packet otherwise);
* ``clp``  — conditional loss probability of the second packet given the
  first was lost (Section 4.4);
* ``lat``  — mean latency of whatever arrived first (duplicated packets
  deliver at the earlier of their arrivals, which is how mesh routing
  buys its latency improvement, Section 4.5).

Starred rows (``direct*``, ``lat*``) are not probed alone in RON2003;
the paper infers them "from the first packet of a two-packet pair", and
:func:`method_stats_table` reproduces exactly that inference.

These functions are thin wrappers over the mergeable accumulators in
:mod:`repro.analysis.streaming.accumulators` (one ``update`` over the
whole trace), so batch analysis and one-pass streaming over spill
shards agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.records import Trace

from .streaming.accumulators import (
    MethodStatsAccumulator,
    PathClpAccumulator,
    table_row,
    table_row_names,
)

__all__ = ["MethodStats", "method_stats", "method_stats_table", "per_path_clp"]


@dataclass(frozen=True)
class MethodStats:
    """One row of Table 5 / Table 7 (percentages, milliseconds)."""

    method: str
    n_probes: int
    lp1: float
    lp2: float | None
    totlp: float
    clp: float | None
    latency_ms: float
    inferred: bool = False

    def row(self) -> str:
        """Render in the paper's column format."""
        name = self.method + ("*" if self.inferred else "")
        lp2 = f"{self.lp2:5.2f}" if self.lp2 is not None else "    -"
        clp = f"{self.clp:6.2f}" if self.clp is not None else "     -"
        return (
            f"{name:15s} {self.lp1:5.2f} {lp2} {self.totlp:6.2f} "
            f"{clp} {self.latency_ms:7.2f}"
        )


def method_stats(trace: Trace, name: str) -> MethodStats:
    """Statistics for one probed method.

    A method with zero probes (or zero delivered packets) yields a
    defined row — ``n_probes=0`` / NaN latency — never a 0/0.
    """
    return MethodStatsAccumulator(trace.meta, name).update(trace).finalize()


def method_stats_table(trace: Trace, rows: list[str] | None = None) -> list[MethodStats]:
    """Table 5/7 rows for a trace, inferring starred rows when needed.

    ``rows`` defaults to every method probed plus the standard inferred
    rows (``direct`` from direct-first pairs, ``lat`` from lat_loss);
    each row follows :func:`~repro.analysis.streaming.accumulators.table_row`.
    """
    if rows is None:
        rows = table_row_names(trace.meta)
    accs = [table_row(trace.meta, name) for name in rows]
    return [acc.update(trace).finalize() for acc in accs]


def per_path_clp(trace: Trace, name: str, min_first_losses: int = 1) -> np.ndarray:
    """Conditional loss probability per ordered path for one pair method.

    Only paths with at least ``min_first_losses`` first-packet losses
    are included — the paper's Figure 4 uses "the 115 paths on which we
    observed first-packet losses".  Returns CLP values in percent.
    """
    acc = PathClpAccumulator(trace.meta, name).update(trace)
    return acc.finalize(min_first_losses=min_first_losses)
