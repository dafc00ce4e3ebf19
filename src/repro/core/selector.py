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
combined two-packet methods use to guarantee path distinctness.  Those
two options are all any method reads, so selection is a top-2
reduction, not a sort: :func:`_top2` makes two ``argmin`` passes over
candidate tensors built with the option axis last, with the tie order
of a stable sort.  Two builders feed the one kernel, chosen from the
candidate set (:mod:`repro.relaysets`): when every host is a candidate
(no set, or a complete one) the broadcast builder slices (g, w, n, n)
tensors from the estimates, a relay position being its host id; any
other set goes to the gather builder, which gathers (g, w, n, k)
tensors of each pair's candidates.  On a complete set the two give
bitwise-identical tables; each is the faster one on its own input.
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


def _top2(direct: np.ndarray, relay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best and runner-up option of every row, as relay positions.

    ``direct`` is (...) and ``relay`` is (..., k), the relay options in
    option order along the last axis.  The result is row by row the
    first two entries of a stable argsort of ``[direct, *relay]``, minus
    one: position ``j`` is ``relay[..., j]`` and :data:`DIRECT` (-1) is
    the direct option.  Two ``argmin`` passes find them without sorting:
    ``argmin`` returns the first index of the minimum, which is the
    stable sort's first entry; direct is option 0, so it wins every tie
    (hence ``<=``); and a row whose relays are all +inf yields position
    0, the stable answer.  Values are never NaN.

    Callers encode *forbidden* options (relay == endpoint) as +inf and
    merely unattractive ones (failed/unprobed) as :data:`_UNATTRACTIVE`,
    so the runner-up is always a legal path even when every option looks
    terrible.  ``relay`` is scratch: each row's best entry is
    overwritten with +inf.
    """
    rows = relay.reshape(-1, relay.shape[-1])
    at = np.arange(len(rows))
    rb = rows.argmin(axis=1)
    best_val = rows[at, rb]
    rows[at, rb] = np.inf
    rs = rows.argmin(axis=1)
    d = direct.reshape(-1)
    best = np.where(d <= best_val, DIRECT, rb)
    second = np.where(best == DIRECT, rb, np.where(d <= rows[at, rs], DIRECT, rs))
    return best.reshape(direct.shape), second.reshape(direct.shape)


def _rank(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    host_lo: int,
    host_hi: int,
    margin: float,
    relay_loss: np.ndarray,
    relay_lat: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Best and runner-up relay positions per criterion, both layouts.

    ``relay_loss``/``relay_lat`` are the (g, w, n, k) option-last
    candidate tensors of source rows ``[host_lo, host_hi)``.  Returns
    ``(loss_best, loss_second, lat_best, lat_second)`` as positions
    along their last axis, :data:`DIRECT` for the direct path.
    """
    from repro import telemetry

    rec = telemetry.get_recorder()
    if rec.enabled:
        rec.counter_add("selector.candidate_bytes", relay_loss.nbytes + relay_lat.nbytes)
    # hysteresis: relays only win when they beat direct loss by > margin
    direct_loss = loss_est[:, host_lo:host_hi, :] - margin
    # failed or never-probed direct paths are unattractive too; direct
    # wins latency ties (a tiny epsilon rather than a loss margin)
    lat = lat_est[:, host_lo:host_hi, :]
    down = failed[:, host_lo:host_hi, :] | ~np.isfinite(lat)
    direct_lat = np.where(down, _UNATTRACTIVE, lat) - 1e-4
    return (*_top2(direct_loss, relay_loss), *_top2(direct_lat, relay_lat))


def _candidates(loss_est, lat_est, failed, sr, rd) -> tuple[np.ndarray, np.ndarray]:
    """Option-last candidate tensors ``(relay_loss, relay_lat)``.

    ``sr`` and ``rd`` gather a (G, n, n) estimate's legs ``s -> r`` and
    ``r -> d`` into (g, w, n, k) arrays (or views that broadcast to it),
    the layout's option axis last.  Forbidden options are left to the
    caller.
    """
    relay_loss = combine_loss(sr(loss_est), rd(loss_est))
    relay_lat = sr(lat_est) + rd(lat_est)
    # the latency optimiser "avoids completely failed links"; failed or
    # never-probed options stay *legal* (rank above forbidden relays)
    bad = ~np.isfinite(relay_lat)
    bad |= sr(failed)
    bad |= rd(failed)
    np.copyto(relay_lat, _UNATTRACTIVE, where=bad)
    return relay_loss, relay_lat


def _select_block_sparse(
    loss_est: np.ndarray,
    lat_est: np.ndarray,
    failed: np.ndarray,
    host_lo: int,
    host_hi: int,
    margin: float,
    relay_set,
) -> SelectionTables:
    """The gather builder: (g, w, d, k) tensors of each pair's candidates.

    Options per pair are ``[direct] + candidates(s, d)`` with candidates
    stored ascending by host id and endpoints excluded at compile time —
    exactly the finite entries of the broadcast builder's option row in
    the same order, so on a complete candidate set (policy ``all``) the
    top-2 kernel picks bitwise-identical winners.  Candidate positions are
    mapped back to host ids *here*; routing tables, router and traces
    never see them.  Padded slots carry ``-1 == DIRECT`` ids at +inf,
    which also makes the runner-up of a candidate-less pair fall back to
    the direct path.
    """
    n = loss_est.shape[1]
    cand = relay_set.padded_block(host_lo, host_hi)  # (w, n, k), -1 padded
    pad = cand < 0
    safe = np.where(pad, 0, cand).astype(np.int64)
    # flat indices of the legs s -> r and r -> d into one slot's n * n
    # estimates; np.take lays the gathered tensors out (g, w, d, k) in
    # memory, where fancy indexing after a slice would put g innermost
    flat_sr = np.arange(host_lo, host_hi)[:, None, None] * n + safe
    flat_rd = safe * n + np.arange(n)[None, :, None]
    relay_loss, relay_lat = _candidates(
        loss_est,
        lat_est,
        failed,
        sr=lambda a: np.take(a.reshape(a.shape[0], n * n), flat_sr, axis=1),
        rd=lambda a: np.take(a.reshape(a.shape[0], n * n), flat_rd, axis=1),
    )
    for relay in (relay_loss, relay_lat):
        np.copyto(relay, np.inf, where=pad)

    positions = _rank(loss_est, lat_est, failed, host_lo, host_hi, margin, relay_loss, relay_lat)
    ids = []
    for pos in positions:
        hosts = np.take_along_axis(cand[None], np.maximum(pos, 0)[..., None], axis=-1)
        ids.append(np.where(pos == DIRECT, DIRECT, hosts[..., 0]))
    return SelectionTables(*ids)


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
    option-last candidate tensors and their top-2 reduction are built
    only for the ``w = host_hi - host_lo`` requested source rows.  Every
    candidate entry and every reduced row depends only on its own
    (g, s, d), so the output is bitwise identical to slicing the
    full-mesh tables at ``[:, host_lo:host_hi, :]`` — the invariant that
    lets the engine (:mod:`repro.engine.sharding`) start collecting a
    shard's source range as soon as *its* table block is selected.

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
        The input picks the builder: every host (``None`` or a complete
        set, such as policy ``all``) takes the broadcast builder, any
        other set the gather builder (:func:`_select_block_sparse`).
    """
    if loss_est.ndim != 3:
        raise ValueError("estimate matrices must be (G, n, n)")
    g, n = loss_est.shape[0], loss_est.shape[1]
    if loss_est.shape != (g, n, n) or lat_est.shape != (g, n, n) or failed.shape != (g, n, n):
        raise ValueError("estimate matrices must all be (G, n, n)")
    if not 0 <= host_lo < host_hi <= n:
        raise ValueError(f"invalid source range [{host_lo}, {host_hi}) for {n} hosts")
    if relay_set is not None and relay_set.n_hosts != n:
        raise ValueError(f"relay set is for {relay_set.n_hosts} hosts, estimates for {n}")
    if relay_set is not None and not relay_set.is_complete:
        return _select_block_sparse(loss_est, lat_est, failed, host_lo, host_hi, margin, relay_set)

    # --- the broadcast builder: every host a candidate -----------------
    # candidate tensors (g, s, d, r), option axis last
    # leg s -> r broadcasts over d; leg r -> d is the transposed
    # estimate, made contiguous so that the tensors are option-last in
    # memory too (a transposed view would give them its strides)
    relay_loss, relay_lat = _candidates(
        loss_est,
        lat_est,
        failed,
        sr=lambda a: a[:, host_lo:host_hi, None, :],
        rd=lambda a: np.ascontiguousarray(a.transpose(0, 2, 1))[:, None],
    )

    # forbid r == s and r == d
    rows = np.arange(host_hi - host_lo)
    srcs = rows + host_lo
    diag = np.arange(n)
    for relay in (relay_loss, relay_lat):
        relay[:, rows, :, srcs] = np.inf
        relay[:, :, diag, diag] = np.inf

    positions = _rank(loss_est, lat_est, failed, host_lo, host_hi, margin, relay_loss, relay_lat)
    # a relay position is its host id; diagonal pairs are never routed,
    # so pin them to DIRECT and the two builders produce identical tables
    tables = [pos.astype(id_dtype(n)) for pos in positions]
    for table in tables:
        table[:, rows, srcs] = DIRECT
    return SelectionTables(*tables)


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
    t = select_paths_batch(loss_est[None], lat_est[None], failed[None], margin, relay_set=relay_set)
    return SelectionTables(
        loss_best=t.loss_best[0],
        loss_second=t.loss_second[0],
        lat_best=t.lat_best[0],
        lat_second=t.lat_second[0],
    )
