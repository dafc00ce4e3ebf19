"""One layout, two residencies: the eager and lazy banks must answer
every query bitwise identically to the per-segment timelines they are
built from — on default, all-quiet and all-busy substrates."""

import numpy as np
import pytest

from repro.netsim import RngFactory, config_2003
from repro.netsim.config import PathologyParams
from repro.netsim.state import KINDS, SegmentTimelineRecipe, TimelineBank
from repro.netsim.substrate import LazyTimelineBank
from repro.netsim.topology import build_topology

from ..conftest import tiny_hosts

HORIZON = 1800.0
CONFIGS = {
    "default": config_2003(),
    "all-quiet": config_2003()
    .scale_episodes(rate=0.0)
    .with_overrides(pathology=PathologyParams(rate_per_day=0.0)),
    "all-busy": config_2003()
    .scale_episodes(rate=20000.0)
    .with_overrides(pathology=PathologyParams(rate_per_day=2000.0)),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def substrate(request):
    topo = build_topology(tiny_hosts(), CONFIGS[request.param], RngFactory(4))
    reference = SegmentTimelineRecipe(topo, HORIZON, RngFactory(4))
    timelines = {kind: [reference.timeline(kind, seg) for seg in topo.registry] for kind in KINDS}
    return request.param, topo, timelines


def recipe(topo):
    return SegmentTimelineRecipe(topo, HORIZON, RngFactory(4))


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def truth(timelines, sids, times):
    """The per-segment answer: each timeline's own point query; padding
    and out-of-horizon times are 0."""
    out = np.zeros(sids.shape)
    for idx in np.ndindex(sids.shape):
        sid, t = sids[idx], times[idx]
        if sid >= 0 and 0.0 <= t < HORIZON:
            out[idx] = timelines[sid].severity_at(np.array([t]))[0]
    return out


def random_queries(n_seg, rng, n=600):
    """(sids, times) matrices including padding and out-of-horizon rows."""
    sids = rng.integers(-1, n_seg, size=(n, 5))
    times = rng.uniform(-60.0, HORIZON * 1.1, size=(n, 5))
    times[::7, 0] = HORIZON  # the horizon itself is out of range
    times[::11, 1] = 0.0
    return sids, times


def banks(topo, kind):
    """Every residency of one cause's timelines."""
    n = len(topo.registry)
    csr = recipe(topo).generate(kind, np.arange(n))
    corr = recipe(topo).corr_lengths(kind)
    out = {
        "eager": TimelineBank.from_csr(*csr, HORIZON, corr),
        "lazy": LazyTimelineBank(recipe(topo), kind),
    }
    for budget in (1, 3, 16):
        out[f"lazy-{budget}"] = LazyTimelineBank(recipe(topo), kind, max_cached=budget)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_banks_answer_like_their_timelines(substrate, kind):
    name, topo, timelines = substrate
    tls = timelines[kind]
    every = banks(topo, kind)
    busy = every["eager"]._busy
    if name == "all-quiet":
        assert not busy.any()
    if name == "all-busy" and kind != "delay":  # delay drawn on access only
        assert busy.all()
    rng = np.random.default_rng(17)
    for _ in range(3):
        sids, times = random_queries(len(tls), rng)
        want = bits(truth(tls, sids, times))
        for label, bank in every.items():
            assert bits(bank.severity_at(sids, times)) == want, label
    for label, bank in every.items():
        assert bits(bank.corr_length) == bits([tl.corr_length for tl in tls]), label
        assert bits(bank.mean_severity) == bits([tl.mean_severity() for tl in tls]), label
        if label.startswith("lazy-"):
            assert bank.cached_segments <= bank.max_cached


@pytest.mark.parametrize("kind", KINDS)
def test_banks_broadcast_segments_against_instants(substrate, kind):
    """A column of segment ids against a row of instants answers like
    the explicitly broadcast query, on every residency."""
    _, topo, timelines = substrate
    rng = np.random.default_rng(5)
    sids = rng.integers(-1, len(topo.registry), size=(40, 1))
    times = rng.uniform(-60.0, HORIZON * 1.1, size=(1, 30))
    want = bits(truth(timelines[kind], *np.broadcast_arrays(sids, times)))
    for label, bank in banks(topo, kind).items():
        assert bits(bank.severity_at(sids, times)) == want, label


def test_list_constructor_matches_csr(substrate):
    _, topo, timelines = substrate
    n = len(topo.registry)
    for kind in KINDS:
        listed = TimelineBank(timelines[kind], HORIZON)
        csr = TimelineBank.from_csr(
            *recipe(topo).generate(kind, np.arange(n)), HORIZON, recipe(topo).corr_lengths(kind)
        )
        for field in ("_busy", "_bounds", "_sev", "corr_length", "mean_severity"):
            assert getattr(listed, field).tobytes() == getattr(csr, field).tobytes(), field
        assert len(listed) == n


def test_lazy_bank_generates_only_what_queries_touch():
    topo = build_topology(tiny_hosts(), config_2003(), RngFactory(4))
    lazy = LazyTimelineBank(recipe(topo), "congestion")
    lazy.severity_at(np.array([[3, -1], [3, 5]]), np.array([[10.0, 10.0], [-1.0, 20.0]]))
    # segment 3 was queried in range; 5 too; the padding and the
    # out-of-horizon entry of segment 3 generate nothing extra
    assert lazy.generated_segments == lazy.cached_segments == 2
    lazy.severity_at(np.array([3, 5]), np.array([30.0, 40.0]))
    assert lazy.generated_segments == 2

