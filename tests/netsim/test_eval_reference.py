"""Draw contract of packet evaluation, pinned against a reference.

``Network._eval`` searches only the busy (packet, segment) entries,
conditions only the rows where the previous copy met a non-zero
severity or lost the packet, adds the queueing and delay terms only on
rows with a non-zero severity, and makes each RNG draw only after the
previous one is consumed.  The reference below is the straightforward
evaluation, kept here on purpose: every severity lookup searches the
full (rows x path width) shape, every row is conditioned, one
``rng.random((3,) + shape)`` serves the three loss causes, and the
latency terms are built full-shape and out of place; the conditioning,
``Network._condition``, is shared.  Both must return the same bits and
leave the generator in the same state, for single packets, pairs and
trains, on eager and lazy banks, with padded direct paths and with
instants past the horizon.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.netsim import Network, PathologyParams, RngFactory, config_2003
from repro.testbed import hosts_2003

HORIZON = 3600.0
SEED = 11
#: stormy enough that every cause is busy on a good share of the entries
CONFIG = config_2003().scale_episodes(rate=40.0).with_overrides(
    pathology=PathologyParams(rate_per_day=200.0)
)
ROWS = 3000
#: train spacing of Section 5.2's FEC groups: outage episodes end inside
#: some trains while the loss they caused persists
FEC_SPACING = 0.1


def _full_shape_severity(bank, sids, t):
    """A bank's lookup over every entry, padded and quiet ones included."""
    ok = (sids >= 0) & (t >= 0.0) & (t < bank.horizon)
    safe = np.where(ok, sids, 0)
    ok &= bank._busy[safe]
    q = np.where(ok, t, 0.0) + safe * bank.shift
    idx = np.searchsorted(bank._bounds, q, side="right") - 1
    return np.where(ok, bank._sev[idx], 0.0)


class _Reference(Network):
    """A network whose evaluation is the reference (eager banks only)."""

    def _eval(self, pids, times, rng, first=None):
        state = self.state
        segs = self.paths.seg[pids]
        t = times[:, None] + self.paths.offset[pids]
        valid = segs >= 0
        safe = np.clip(segs, 0, None)

        p_cong = _full_shape_severity(state.congestion, segs, t)
        p_out = _full_shape_severity(state.outage, segs, t)
        p_base = np.where(valid, state.base_loss[safe], 0.0)

        p_cong_eff, p_out_eff = p_cong, p_out
        if first is not None:
            match = (segs[:, :, None] == first.segs[:, None, :]) & valid[:, :, None]
            shared = match.any(axis=2)
            k = match.argmax(axis=2)
            rows = np.arange(len(pids))[:, None]
            dt = np.abs(t - first.t[rows, k])
            p_cong_eff = self._condition(
                p_cong,
                first.p_cong,
                first.lost_cong,
                shared,
                k,
                dt,
                state.congestion.corr_length[safe],
            )
            p_out_eff = self._condition(
                p_out, first.p_out, first.lost_out, shared, k, dt, state.outage.corr_length[safe]
            )

        u = rng.random((3,) + segs.shape)
        lost_cong = u[0] < p_cong_eff
        lost_out = u[1] < p_out_eff
        lost_base = u[2] < p_base
        lost_fwd = rng.random(len(pids)) < self.paths.forward_loss[pids]
        lost = lost_cong.any(axis=1) | lost_out.any(axis=1) | lost_base.any(axis=1) | lost_fwd

        jitter_scale = np.where(valid, state.jitter_s[safe], 0.0)
        jitter = rng.gamma(2.0, 1.0, size=segs.shape) * (jitter_scale / 2.0)
        queue = state.queue_s[safe] * p_cong * rng.uniform(0.5, 1.5, size=segs.shape)
        queue = np.where(valid, queue, 0.0)
        inflation = _full_shape_severity(state.delay, segs, t)
        latency = (
            self.paths.prop_total[pids]
            + jitter.sum(axis=1)
            + queue.sum(axis=1)
            + inflation.sum(axis=1)
        )
        return SimpleNamespace(
            segs=segs,
            t=t,
            p_cong=p_cong,
            p_out=p_out,
            lost_cong=lost_cong,
            lost_out=lost_out,
            lost=lost,
            latency=latency,
        )


@pytest.fixture(scope="module")
def nets():
    hosts = hosts_2003()[:8]
    eager = Network.build(hosts, CONFIG, horizon=HORIZON, seed=SEED)
    return {
        "eager": eager,
        "lazy": Network.build(hosts, CONFIG, horizon=HORIZON, seed=SEED, substrate="lazy"),
        "reference": _Reference(eager.topology, eager.state, RngFactory(SEED)),
    }


def _queries(net):
    """Rows over random ordered pairs: the direct path (padded to the
    table width) on the first half, a relay path on the second, and a
    second relay path of the same pair per row; 5 % of the instants lie
    past the horizon."""
    r = np.random.default_rng(0)
    p = net.paths
    n = p.n_hosts
    src = r.integers(0, n, ROWS)
    dst = (src + r.integers(1, n, ROWS)) % n
    pair = src * n + dst
    offsets = p.relay_set.offsets

    def relays():
        return n * n + r.integers(offsets[pair], offsets[pair + 1])

    pids = np.where(np.arange(ROWS) < ROWS // 2, p.direct_pids(src, dst), relays())
    return pids, relays(), r.uniform(0.0, HORIZON * 1.05, ROWS)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _run(nets, substrate, sample):
    """``sample(net, rng)`` on the network under test and on the
    reference, from generators in the same state."""
    rngs = np.random.default_rng(7), np.random.default_rng(7)
    got = sample(nets[substrate], rngs[0])
    want = sample(nets["reference"], rngs[1])
    for g, w in zip(got, want):
        _assert_bitwise(g, w)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_queries_cover_padding_busy_entries_and_the_horizon(nets):
    net = nets["eager"]
    pids, _, times = _queries(net)
    segs = net.paths.seg[pids]
    t = times[:, None] + net.paths.offset[pids]
    assert (segs[: ROWS // 2] < 0).any()
    assert (t >= HORIZON).any()
    for kind in ("congestion", "outage", "delay"):
        assert (_full_shape_severity(getattr(net.state, kind), segs, t) > 0).mean() > 0.005


@pytest.mark.parametrize("substrate", ["eager", "lazy"])
def test_packets(nets, substrate):
    pids, _, times = _queries(nets["eager"])

    def sample(net, rng):
        out = net.sample_packets(pids, times, rng=rng)
        return out.lost, out.latency

    _run(nets, substrate, sample)


@pytest.mark.parametrize("substrate", ["eager", "lazy"])
@pytest.mark.parametrize("gap", [0.0, 0.02])
@pytest.mark.parametrize("same_path", [True, False])
def test_pairs(nets, substrate, gap, same_path):
    pids1, other, times = _queries(nets["eager"])
    pids2 = pids1 if same_path else other

    def sample(net, rng):
        out = net.sample_pairs(pids1, pids2, times, gap=gap, rng=rng)
        return out.lost1, out.lost2, out.latency1, out.latency2

    _run(nets, substrate, sample)


@pytest.mark.parametrize("substrate", ["eager", "lazy"])
def test_train(nets, substrate):
    pids, _, start = _queries(nets["eager"])
    times = start[:, None] + 0.01 * np.arange(6)

    def sample(net, rng):
        return net.sample_train(pids, times, rng=rng)

    _run(nets, substrate, sample)


def test_spaced_train_loses_packets_at_zero_severity(nets):
    """Some rows of a spaced train lose a packet without meeting a
    non-zero severity anywhere: an earlier packet's loss persisted past
    its episode's end.  Only that loss marks the row for conditioning
    the next packet, so ``test_spaced_train`` fails if the conditioned
    rows leave lost rows out."""
    net = nets["reference"]
    pids, _, start = _queries(net)
    times = start[:, None] + FEC_SPACING * np.arange(6)
    rng = np.random.default_rng(7)
    detail, rows = None, 0
    for j in range(5):  # the last packet conditions nothing
        detail = net._eval(pids, times[:, j], rng, first=detail)
        severe = (detail.p_cong != 0.0) | (detail.p_out != 0.0)
        lost = detail.lost_cong | detail.lost_out
        rows += int((lost.any(axis=1) & ~severe.any(axis=1)).sum())
    assert rows > 0


@pytest.mark.parametrize("substrate", ["eager", "lazy"])
def test_spaced_train(nets, substrate):
    pids, _, start = _queries(nets["eager"])
    times = start[:, None] + FEC_SPACING * np.arange(6)

    def sample(net, rng):
        return net.sample_train(pids, times, rng=rng)

    _run(nets, substrate, sample)
