"""Best-path selection from per-leg estimates (Section 3.1).

RON-style reactive routing estimates the quality of a one-hop indirect
path ``s -> r -> d`` by composing the probe statistics of its two legs:

* loss:     ``l = 1 - (1 - l_sr) * (1 - l_rd)``
* latency:  ``lat = lat_sr + lat_rd``

and then picks the best option among {direct} + {all relays}, with two
RON behaviours reproduced here:

* **hysteresis** — an indirect path is only chosen when it beats the
  direct path by an absolute margin, avoiding route flapping;
* **failure avoidance** — the latency optimiser skips legs whose recent
  probes all died ("avoids completely failed links", Section 4).

The selector also returns each criterion's *runner-up*, which the
combined two-packet methods use to guarantee path distinctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.records import id_dtype

__all__ = [
    "Choice",
    "SelectionTables",
    "combine_loss",
    "select_paths",
    "select_paths_batch",
    "select_paths_block",
]

#: sentinel meaning "use the direct path" in choice arrays.
DIRECT = -1


@dataclass(frozen=True)
class Choice:
    """Best and runner-up option for one criterion on one pair."""

    best: int  # relay index, or DIRECT
    second: int

    def option(self, want_alternate: bool) -> int:
        return self.second if want_alternate else self.best


@dataclass
class SelectionTables:
    """Vectorised selection results for all ordered pairs.

    Arrays are (n, n) — or (G, n, n) from :func:`select_paths_batch` —
    in the capacity-chosen ``id_dtype(n)`` (int16 below 32768 hosts),
    where entry [..., s, d] is a relay index or DIRECT.  ``*_second``
    is the best option distinct from ``*_best``.
    """

    loss_best: np.ndarray
    loss_second: np.ndarray
    lat_best: np.ndarray
    lat_second: np.ndarray


def combine_loss(l_sr: np.ndarray, l_rd: np.ndarray) -> np.ndarray:
    """Loss estimate of a two-leg path from its legs' estimates."""
    return l_sr + l_rd - l_sr * l_rd


#: a value worse than any real estimate but better than "forbidden";
#: unprobed/failed options must still rank above degenerate relays.
_UNATTRACTIVE = 1e30


def _top2(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the smallest and second-smallest entries along axis 1.

    ``values`` is (n_pairs, n_options).  Callers encode *forbidden*
    options (relay == endpoint) as +inf and merely unattractive ones
    (failed/unprobed) as :data:`_UNATTRACTIVE`, so the runner-up is
    always a legal path even when every option looks terrible.
    """
    order = np.argsort(values, axis=1, kind="stable")
    return order[:, 0], order[:, 1]


def _candidate_bytes(relay_loss: np.ndarray, relay_lat: np.ndarray) -> None:
    """Record how many candidate-tensor bytes this selection built."""
    from repro import telemetry

    rec = telemetry.get_recorder()
    if rec.enabled:
        rec.counter_add(
            "selector.candidate_bytes", relay_loss.nbytes + relay_lat.nbytes
        )


def _select_block_sparse(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    host_lo: int,
    host_hi: int,
    margin: float,
    relay_set,
) -> SelectionTables:
    """Candidate-set selection: gather (g, w, d, k) tensors, not n-slabs.

    Options per pair are ``[direct] + candidates(s, d)`` with candidates
    stored ascending by host id and endpoints excluded at compile time —
    exactly the finite entries of the dense option row in the same
    order, so with a complete candidate set (policy ``all``) the stable
    argsort picks bitwise-identical winners.  Option indices are mapped
    back to host ids *here*; routing tables, router and traces never see
    candidate positions.  Padded slots carry ``-1 == DIRECT`` ids at
    +inf, which also makes the runner-up of a candidate-less pair fall
    back to the direct path.
    """
    g, n = loss_est.shape[0], loss_est.shape[1]
    w = host_hi - host_lo
    srcs = np.arange(host_lo, host_hi)
    didx = np.arange(n)

    cand = relay_set.padded_block(host_lo, host_hi)  # (w, n, k), -1 padded
    k = cand.shape[2]
    pad = cand < 0
    safe = np.where(pad, 0, cand).astype(np.int64)

    # --- candidate tensors: (g, w, d, k) — k, not n -------------------
    l1 = loss_est[:, srcs[:, None, None], safe]  # leg s -> r
    l2 = loss_est[:, safe, didx[None, :, None]]  # leg r -> d
    relay_loss = combine_loss(l1, l2)
    relay_loss[:, pad] = np.inf

    relay_lat = lat_est[:, srcs[:, None, None], safe] + lat_est[:, safe, didx[None, :, None]]
    leg_failed = (
        failed[:, srcs[:, None, None], safe] | failed[:, safe, didx[None, :, None]]
    )
    relay_lat = np.where(leg_failed | ~np.isfinite(relay_lat), _UNATTRACTIVE, relay_lat)
    relay_lat[:, pad] = np.inf
    direct_lat = np.where(
        failed[:, host_lo:host_hi, :] | ~np.isfinite(lat_est[:, host_lo:host_hi, :]),
        _UNATTRACTIVE,
        lat_est[:, host_lo:host_hi, :],
    )
    _candidate_bytes(relay_loss, relay_lat)

    hid = id_dtype(n)
    n_rows = g * w * n
    # option j > 0 of pair row (s, d) is candidate j-1; option 0 and the
    # padded slots are DIRECT
    opt_ids = np.concatenate(
        [np.full((w, n, 1), DIRECT, dtype=hid), cand.astype(hid)], axis=2
    ).reshape(w * n, k + 1)
    rowp = np.arange(n_rows) % (w * n)

    direct_col = (loss_est[:, host_lo:host_hi, :] - margin).reshape(n_rows, 1)
    loss_options = np.concatenate([direct_col, relay_loss.reshape(n_rows, k)], axis=1)
    best, second = _top2(loss_options)
    loss_best = opt_ids[rowp, best].reshape(g, w, n)
    loss_second = opt_ids[rowp, second].reshape(g, w, n)

    direct_col = (direct_lat - 1e-4).reshape(n_rows, 1)
    lat_options = np.concatenate([direct_col, relay_lat.reshape(n_rows, k)], axis=1)
    best, second = _top2(lat_options)
    lat_best = opt_ids[rowp, best].reshape(g, w, n)
    lat_second = opt_ids[rowp, second].reshape(g, w, n)

    return SelectionTables(
        loss_best=loss_best,
        loss_second=loss_second,
        lat_best=lat_best,
        lat_second=lat_second,
    )


def select_paths_block(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    host_lo: int,
    host_hi: int,
    margin: float = 0.005,
    relay_set=None,
) -> SelectionTables:
    """Compute best/runner-up choices for the source rows
    ``[host_lo, host_hi)`` only.

    The row-sliced workhorse behind :func:`select_paths_batch` (which
    defers here with the full range, so the two can never disagree).
    The estimate matrices are still the *full* (G, n, n) — a relay leg
    ``r -> d`` is needed whatever the source — but the (G, w, n, n)
    candidate tensors and the argsort ranking are built only for the
    ``w = host_hi - host_lo`` requested source rows.  Every candidate
    entry and every ranked row depends only on its own (g, s, d), so
    the output is bitwise identical to slicing the full-mesh tables at
    ``[:, host_lo:host_hi, :]`` — the invariant that lets the engine
    (:mod:`repro.engine.sharding`) start collecting a shard's
    source range as soon as *its* table block is selected.

    Parameters
    ----------
    loss_est, lat_est:
        (G, n, n) per-slot, per-ordered-pair leg estimates (direct
        probes); the diagonal is ignored.  ``lat_est`` may contain +inf
        for legs with no successful probes.
    failed:
        (G, n, n) bool; legs considered down (run of lost probes).
    host_lo, host_hi:
        the source rows to select; the returned tables are
        (G, host_hi - host_lo, n).
    margin:
        hysteresis: an indirect option must beat direct loss by this
        absolute amount to be selected.
    relay_set:
        a :class:`repro.relaysets.RelaySet` restricting each pair's
        options to its candidate relays; ``None`` ranks every host.
        With a complete set (policy ``all``) the results are bitwise
        identical to the dense path.
    """
    if loss_est.ndim != 3:
        raise ValueError("estimate matrices must be (G, n, n)")
    g, n = loss_est.shape[0], loss_est.shape[1]
    if (
        loss_est.shape != (g, n, n)
        or lat_est.shape != (g, n, n)
        or failed.shape != (g, n, n)
    ):
        raise ValueError("estimate matrices must all be (G, n, n)")
    if not 0 <= host_lo < host_hi <= n:
        raise ValueError(f"invalid source range [{host_lo}, {host_hi}) for {n} hosts")
    if relay_set is not None:
        if relay_set.n_hosts != n:
            raise ValueError(
                f"relay set is for {relay_set.n_hosts} hosts, estimates for {n}"
            )
        return _select_block_sparse(
            loss_est, lat_est, failed, host_lo, host_hi, margin, relay_set
        )
    w = host_hi - host_lo

    idx = np.arange(n)
    rows = np.arange(w)
    srcs = rows + host_lo

    # --- candidate matrices: option axis = [direct] + relays ----------
    # loss of s->r->d for all (g, s in block, r, d)
    l1 = loss_est[:, host_lo:host_hi, :, None]  # (g, s, r, 1)
    l2 = loss_est[:, None, :, :]  # (g, 1, r, d)
    relay_loss = combine_loss(l1, l2)  # (g, s, r, d)
    relay_lat = lat_est[:, host_lo:host_hi, :, None] + lat_est[:, None, :, :]

    # forbid r == s and r == d
    relay_loss[:, rows, srcs, :] = np.inf
    relay_lat[:, rows, srcs, :] = np.inf
    relay_loss[:, :, idx, idx] = np.inf
    relay_lat[:, :, idx, idx] = np.inf

    # the latency optimiser "avoids completely failed links"; failed or
    # never-probed options stay *legal* (rank above forbidden relays)
    leg_failed = failed[:, host_lo:host_hi, :, None] | failed[:, None, :, :]
    relay_lat = np.where(leg_failed | ~np.isfinite(relay_lat), _UNATTRACTIVE, relay_lat)
    relay_lat[:, rows, srcs, :] = np.inf  # re-forbid r == s / r == d
    relay_lat[:, :, idx, idx] = np.inf
    direct_lat = np.where(
        failed[:, host_lo:host_hi, :] | ~np.isfinite(lat_est[:, host_lo:host_hi, :]),
        _UNATTRACTIVE,
        lat_est[:, host_lo:host_hi, :],
    )
    _candidate_bytes(relay_loss, relay_lat)

    hid = id_dtype(n)

    # --- loss criterion ------------------------------------------------
    # options: direct (with a hysteresis *bonus*) vs relays; we subtract
    # the margin from direct's effective loss so relays only win when
    # they are better by > margin.
    n_rows = g * w * n
    direct_col = (loss_est[:, host_lo:host_hi, :] - margin).reshape(n_rows, 1)
    relay_cols = relay_loss.transpose(0, 1, 3, 2).reshape(n_rows, n)
    loss_options = np.concatenate([direct_col, relay_cols], axis=1)
    best, second = _top2(loss_options)
    loss_best = (best - 1).astype(hid).reshape(g, w, n)  # option 0 -> DIRECT
    loss_second = (second - 1).astype(hid).reshape(g, w, n)

    # --- latency criterion ---------------------------------------------
    # direct wins ties (subtract a tiny epsilon rather than a loss margin)
    direct_col = (direct_lat - 1e-4).reshape(n_rows, 1)
    relay_cols = relay_lat.transpose(0, 1, 3, 2).reshape(n_rows, n)
    lat_options = np.concatenate([direct_col, relay_cols], axis=1)
    best, second = _top2(lat_options)
    lat_best = (best - 1).astype(hid).reshape(g, w, n)
    lat_second = (second - 1).astype(hid).reshape(g, w, n)

    # diagonal pairs are never routed; pin them to DIRECT so the dense
    # and candidate-set layouts produce identical tables
    for table in (loss_best, loss_second, lat_best, lat_second):
        table[:, rows, srcs] = DIRECT

    return SelectionTables(
        loss_best=loss_best,
        loss_second=loss_second,
        lat_best=lat_best,
        lat_second=lat_second,
    )


def select_paths_batch(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    margin: float = 0.005,
    relay_set=None,
) -> SelectionTables:
    """Compute best/runner-up choices for every ordered pair and slot.

    The batched form of :func:`select_paths`: the estimate matrices
    carry a leading slot axis and every slot is selected in one NumPy
    pass — elementwise identical to looping :func:`select_paths` over
    the slots, but without G round-trips through Python.  Callers with
    large G bound the (G, n, n, n) candidate working set by passing slot
    blocks (see :func:`repro.core.reactive.build_routing_tables`).
    Defers to :func:`select_paths_block` with the full source range, so
    full-mesh and per-range selection can never disagree.

    Parameters
    ----------
    loss_est, lat_est:
        (G, n, n) per-slot, per-ordered-pair leg estimates (direct
        probes); the diagonal is ignored.  ``lat_est`` may contain +inf
        for legs with no successful probes.
    failed:
        (G, n, n) bool; legs considered down (run of lost probes).
    margin:
        hysteresis: an indirect option must beat direct loss by this
        absolute amount to be selected.
    """
    if loss_est.ndim != 3:
        raise ValueError("estimate matrices must be (G, n, n)")
    return select_paths_block(
        loss_est, lat_est, failed, 0, loss_est.shape[1], margin, relay_set=relay_set
    )


def select_paths(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    margin: float = 0.005,
    relay_set=None,
) -> SelectionTables:
    """Compute best/runner-up choices for every ordered pair.

    The single-slot view of :func:`select_paths_batch` (to which it
    defers, so the two can never disagree): ``loss_est``/``lat_est``/
    ``failed`` are (n, n) and the returned tables are (n, n).
    """
    n = loss_est.shape[0]
    if loss_est.shape != (n, n) or lat_est.shape != (n, n) or failed.shape != (n, n):
        raise ValueError("estimate matrices must all be (n, n)")
    t = select_paths_batch(
        loss_est[None], lat_est[None], failed[None], margin, relay_set=relay_set
    )
    return SelectionTables(
        loss_best=t.loss_best[0],
        loss_second=t.loss_second[0],
        lat_best=t.lat_best[0],
        lat_second=t.lat_second[0],
    )
