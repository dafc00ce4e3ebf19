"""An event-driven RON overlay: the Section 3.1 protocol, literally.

Where :mod:`repro.testbed.collection` vectorises a whole run for speed,
this module steps the protocol probe by probe on the discrete-event
engine:

* every node probes every other node once per probe interval;
* "when a probe is lost, the node sends an additional string of up to
  four probes spaced one second apart, to determine if the remote host
  is down";
* paths are selected from the average loss rate over the last 100
  probes (latency over the last 10 successful ones);
* data packets are routed direct or through at most one intermediate.

The test suite cross-validates its statistics against the vectorised
pipeline; the outage-drill example uses it to show rerouting live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.history import PathHistory
from repro.core.methods import Method, RouteKind
from repro.core.selector import DIRECT, select_paths
from repro.netsim.config import ProbingParams
from repro.netsim.events import EventLoop
from repro.netsim.network import Network
from repro.netsim.rng import RngFactory

__all__ = ["RouteDecision", "OverlayNode", "Overlay"]


@dataclass(frozen=True)
class RouteDecision:
    """What the overlay decided for one data packet."""

    time: float
    src: int
    dst: int
    relay: int  # DIRECT or a relay index
    criterion: str


@dataclass
class _DataOutcome:
    time: float
    src: int
    dst: int
    method: str
    relays: tuple[int, ...]
    lost: bool
    latency_s: float | None


class OverlayNode:
    """One RON node: its probe histories toward every peer."""

    def __init__(self, index: int, n_hosts: int, params: ProbingParams) -> None:
        self.index = index
        self.params = params
        self.histories: dict[int, PathHistory] = {
            d: PathHistory(
                loss_window=params.loss_window,
                latency_window=params.latency_window,
                failure_detect_probes=params.failure_detect_probes,
            )
            for d in range(n_hosts)
            if d != index
        }

    def record_probe(self, dst: int, lost: bool, latency_s: float | None, now: float) -> None:
        self.histories[dst].record(lost, latency_s, now)

    def loss_estimate(self, dst: int) -> float:
        return self.histories[dst].loss_estimate()

    def latency_estimate(self, dst: int) -> float:
        return self.histories[dst].latency_estimate()

    def leg_failed(self, dst: int) -> bool:
        return self.histories[dst].looks_failed()


class Overlay:
    """A complete overlay running on the event loop against a substrate.

    >>> overlay = Overlay(network)
    >>> overlay.start()
    >>> overlay.run_until(600.0)
    >>> overlay.route(src=0, dst=3, criterion="loss")
    """

    def __init__(
        self,
        network: Network,
        params: ProbingParams | None = None,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.params = params or network.topology.config.probing
        self.loop = EventLoop()
        self.n = network.topology.n_hosts
        #: relay candidate sets, inherited from the network's path table
        #: (every third host under policy ``all``, the paper's overlay).
        self.relay_set = network.paths.relay_set
        self.nodes = [OverlayNode(i, self.n, self.params) for i in range(self.n)]
        self._rngs = RngFactory(seed)
        self._probe_rng = self._rngs.stream("overlay", "probes")
        self._data_rng = self._rngs.stream("overlay", "data")
        self._started = False
        self.decisions: list[RouteDecision] = []
        self.data_log: list[_DataOutcome] = []
        self.probes_sent = 0

    # -- probing protocol -------------------------------------------------

    def start(self) -> None:
        """Schedule the first probe of every ordered pair (staggered)."""
        if self._started:
            raise RuntimeError("overlay already started")
        self._started = True
        interval = self.params.probe_interval_s
        for s in range(self.n):
            for d in range(self.n):
                if s == d:
                    continue
                phase = float(self._probe_rng.uniform(0.0, interval))
                self.loop.schedule(phase, self._probe_event(s, d))

    def _probe_event(self, src: int, dst: int):
        def fire() -> None:
            now = self.loop.now
            lost, latency = self._send_probe(src, dst, now)
            self.nodes[src].record_probe(dst, lost, latency, now)
            if lost:
                self._schedule_followups(src, dst, remaining=self.params.failure_probe_count)
            self.loop.schedule(self.params.probe_interval_s, self._probe_event(src, dst))

        return fire

    def _schedule_followups(self, src: int, dst: int, remaining: int) -> None:
        """Up to four extra probes, one second apart, after a loss."""
        if remaining <= 0:
            return

        def fire() -> None:
            now = self.loop.now
            lost, latency = self._send_probe(src, dst, now)
            self.nodes[src].record_probe(dst, lost, latency, now)
            if lost:
                self._schedule_followups(src, dst, remaining - 1)

        self.loop.schedule(self.params.failure_probe_spacing_s, fire)

    def _send_probe(self, src: int, dst: int, now: float) -> tuple[bool, float | None]:
        self.probes_sent += 1
        if now >= self.network.horizon:
            # beyond simulated weather: quiet network
            return False, self.network.paths.prop_total[self.network.paths.direct_pid(src, dst)]
        down = self.network.state.host_down_at(np.array([src, dst]), np.array([now, now])).any()
        if down:
            return True, None
        pid = self.network.paths.direct_pid(src, dst)
        out = self.network.sample_packets(np.array([pid]), np.array([now]), rng=self._probe_rng)
        if bool(out.lost[0]):
            return True, None
        return False, float(out.latency[0])

    def run_until(self, deadline: float) -> None:
        """Advance the protocol clock."""
        self.loop.run_until(deadline)

    # -- routing ----------------------------------------------------------

    def estimates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current (loss, latency, failed) leg matrices from node state."""
        loss = np.zeros((self.n, self.n))
        lat = np.zeros((self.n, self.n))
        failed = np.zeros((self.n, self.n), dtype=bool)
        for s, node in enumerate(self.nodes):
            for d, hist in node.histories.items():
                loss[s, d] = hist.loss_estimate()
                lat[s, d] = hist.latency_estimate()
                failed[s, d] = hist.looks_failed()
        return loss, lat, failed

    def route(self, src: int, dst: int, criterion: str = "loss") -> RouteDecision:
        """Current best route for (src, dst) under a criterion."""
        if criterion not in ("loss", "lat"):
            raise ValueError("criterion must be 'loss' or 'lat'")
        loss, lat, failed = self.estimates()
        tables = select_paths(
            loss, lat, failed, self.params.selection_margin, relay_set=self.relay_set
        )
        table = tables.loss_best if criterion == "loss" else tables.lat_best
        decision = RouteDecision(
            time=self.loop.now,
            src=src,
            dst=dst,
            relay=int(table[src, dst]),
            criterion=criterion,
        )
        self.decisions.append(decision)
        return decision

    def send_data(self, src: int, dst: int, m: Method) -> _DataOutcome:
        """Send one data packet (or redundant pair) right now."""
        now = self.loop.now
        relay1 = self._resolve(m.first, src, dst)
        pid1 = self._pid(src, dst, relay1)
        if not m.is_pair:
            out = self.network.sample_packets(np.array([pid1]), np.array([now]), rng=self._data_rng)
            res = _DataOutcome(
                now, src, dst, m.name, (relay1,), bool(out.lost[0]),
                None if out.lost[0] else float(out.latency[0]),
            )
            self.data_log.append(res)
            return res
        if m.same_path:
            relay2 = relay1
        else:
            relay2 = self._resolve(m.second, src, dst, avoid=relay1)
        pid2 = self._pid(src, dst, relay2)
        pair = self.network.sample_pairs(
            np.array([pid1]), np.array([pid2]), np.array([now]),
            gap=m.gap_s, rng=self._data_rng,
        )
        lost = bool(pair.lost1[0] and pair.lost2[0])
        latency = None
        if not lost:
            arrivals = []
            if not pair.lost1[0]:
                arrivals.append(float(pair.latency1[0]))
            if not pair.lost2[0]:
                arrivals.append(float(pair.latency2[0]))
            latency = min(arrivals)
        res = _DataOutcome(now, src, dst, m.name, (relay1, relay2), lost, latency)
        self.data_log.append(res)
        return res

    def _resolve(self, kind: RouteKind, src: int, dst: int, avoid: int | None = None) -> int:
        if kind == RouteKind.DIRECT:
            return DIRECT
        if kind == RouteKind.RAND:
            cand = self.relay_set.candidates(src, dst)
            if len(cand) < (2 if avoid is not None else 1):
                raise ValueError(
                    f"pair (src={src}, dst={dst}) has only {len(cand)} relay "
                    f"candidate(s) under policy {self.relay_set.spec.policy!r}"
                )
            while True:
                r = int(cand[int(self._data_rng.integers(0, len(cand)))])
                if avoid is None or r != avoid:
                    return r
        criterion = "lat" if kind == RouteKind.LAT else "loss"
        loss, lat, failed = self.estimates()
        tables = select_paths(
            loss, lat, failed, self.params.selection_margin, relay_set=self.relay_set
        )
        best = tables.lat_best if criterion == "lat" else tables.loss_best
        second = tables.lat_second if criterion == "lat" else tables.loss_second
        choice = int(best[src, dst])
        if avoid is not None and choice == avoid:
            choice = int(second[src, dst])
        return choice

    def _pid(self, src: int, dst: int, relay: int) -> int:
        if relay == DIRECT:
            return self.network.paths.direct_pid(src, dst)
        return self.network.paths.relay_pid(src, relay, dst)
