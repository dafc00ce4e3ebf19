"""Resolve routing methods to concrete paths, per packet (vectorised).

This is where Table 4's route kinds meet the routing state:

* ``direct``       -> the pair's direct path;
* ``rand``         -> a uniformly random one-hop relay;
* ``lat``/``loss`` -> the probe-driven choice in force at send time;
* two-packet methods enforce path distinctness (Section 3.2) unless the
  method is a same-path ``direct direct`` variant — when both route
  kinds resolve to the same path, the second copy falls back to its
  criterion's runner-up.  This reproduces the elevated second-packet
  loss the paper measures for ``lat loss`` (Table 5's 2lp column): when
  the network is healthy both optimisers want the direct path, so the
  second copy is forced onto the best *indirect* one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netsim.topology import PathTable
from repro.trace.records import id_dtype

from .mesh import random_candidate_relays
from .methods import Method, RouteKind
from .reactive import RoutingTables
from .selector import DIRECT

__all__ = ["ResolvedRoutes", "resolve_routes"]


@dataclass
class ResolvedRoutes:
    """Concrete per-probe paths for one method batch.

    ``relay1``/``relay2`` hold relay host indices or DIRECT; ``pid2``
    is None for single-packet methods.
    """

    pid1: np.ndarray
    relay1: np.ndarray
    pid2: np.ndarray | None
    relay2: np.ndarray | None


def _resolve_kind(
    kind: RouteKind,
    src: np.ndarray,
    dst: np.ndarray,
    times: np.ndarray,
    tables: RoutingTables | None,
    rng: np.random.Generator,
    paths: PathTable,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Relay choice (or DIRECT) for one route kind."""
    hid = id_dtype(paths.n_hosts)
    if kind == RouteKind.DIRECT:
        return np.full(len(src), DIRECT, dtype=hid)
    if kind == RouteKind.RAND:
        return random_candidate_relays(rng, paths.relay_set, src, dst, exclude).astype(hid)
    if tables is None:
        raise ValueError(f"route kind {kind.value} needs routing tables")
    criterion = "lat" if kind == RouteKind.LAT else "loss"
    return tables.lookup(criterion, times, src, dst).astype(hid)


def _pids_for(paths: PathTable, src: np.ndarray, dst: np.ndarray, relay: np.ndarray) -> np.ndarray:
    direct = paths.direct_pids(src, dst)
    via_rows = relay != DIRECT
    pids = np.asarray(direct, dtype=np.int64).copy()
    if via_rows.any():
        # only query relay pids where a relay was actually chosen: under a
        # candidate-set table, relay 0 need not be a valid (src, 0, dst)
        # lookup for rows that route DIRECT.
        pids[via_rows] = paths.relay_pids(
            src[via_rows], relay[via_rows].astype(np.int64), dst[via_rows]
        )
    return pids


def resolve_routes(
    m: Method,
    src: np.ndarray,
    dst: np.ndarray,
    times: np.ndarray,
    paths: PathTable,
    tables: RoutingTables | None,
    rng: np.random.Generator,
) -> ResolvedRoutes:
    """Pick the concrete path(s) every probe of method ``m`` will use."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    if not (len(src) == len(dst) == len(times)):
        raise ValueError("src, dst and times must have equal length")
    if m.needs_probing and tables is None:
        raise ValueError(f"method {m.name} requires routing tables")
    n_hosts = paths.n_hosts

    relay1 = _resolve_kind(m.first, src, dst, times, tables, rng, paths)
    pid1 = _pids_for(paths, src, dst, relay1)
    if not m.is_pair:
        return ResolvedRoutes(pid1=pid1, relay1=relay1, pid2=None, relay2=None)

    if m.same_path:
        return ResolvedRoutes(pid1=pid1, relay1=relay1, pid2=pid1, relay2=relay1)

    hid = id_dtype(n_hosts)
    if m.second == RouteKind.RAND:
        # a random relay is drawn to differ from the first packet's relay
        # (rand rand uses two distinct intermediates)
        if np.any(relay1 != DIRECT):
            relay2 = np.empty_like(relay1)
            has_ex = relay1 != DIRECT
            if has_ex.any():
                relay2[has_ex] = random_candidate_relays(
                    rng,
                    paths.relay_set,
                    src[has_ex],
                    dst[has_ex],
                    exclude=relay1[has_ex].astype(np.int64),
                ).astype(hid)
            if (~has_ex).any():
                relay2[~has_ex] = random_candidate_relays(
                    rng, paths.relay_set, src[~has_ex], dst[~has_ex]
                ).astype(hid)
        else:
            relay2 = random_candidate_relays(rng, paths.relay_set, src, dst).astype(hid)
        pid2 = _pids_for(paths, src, dst, relay2)
        return ResolvedRoutes(pid1=pid1, relay1=relay1, pid2=pid2, relay2=relay2)

    relay2 = _resolve_kind(m.second, src, dst, times, tables, rng, paths)
    # distinctness: where both criteria picked the same path, the second
    # packet takes its criterion's runner-up.
    clash = relay2 == relay1
    if clash.any() and m.second.is_reactive:
        criterion = "lat" if m.second == RouteKind.LAT else "loss"
        alt = tables.lookup(
            criterion, times[clash], src[clash], dst[clash], alternate=True
        ).astype(hid)
        relay2 = relay2.copy()
        relay2[clash] = alt
    pid2 = _pids_for(paths, src, dst, relay2)
    return ResolvedRoutes(pid1=pid1, relay1=relay1, pid2=pid2, relay2=relay2)
