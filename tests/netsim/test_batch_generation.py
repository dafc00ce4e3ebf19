"""Batch timeline generation: :meth:`SegmentTimelineRecipe.generate`
must reproduce the per-segment reference :meth:`~SegmentTimelineRecipe.timeline`
bit for bit, for every cause, batch composition and order."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.netsim import RngFactory
from repro.netsim.episodes import draw_counts, hourly_rates
from repro.netsim.segments import SegmentKind
from repro.netsim.state import KINDS, SegmentTimelineRecipe
from repro.netsim.topology import build_topology
from repro.netsim.units import HOUR
from repro.scenarios import stress_mesh
from repro.testbed import dataset

#: ``ron2003`` carries major events; the stress mesh storms SRG outages
SCENARIOS = {
    "ron2003": lambda: dataset("ron2003"),
    "stress": lambda: stress_mesh(n_hosts=8).build(),
}
HORIZONS = (300.0, 6 * HOUR, 72 * HOUR)
SEEDS = (1, 2, 7)
ACCESS = (SegmentKind.ACCESS_IN, SegmentKind.ACCESS_OUT)


@lru_cache(maxsize=None)
def topology(scenario: str, horizon: float, seed: int):
    ds = SCENARIOS[scenario]()
    return build_topology(ds.hosts(), ds.network_config(horizon), RngFactory(seed))


def bits(a: np.ndarray) -> bytes:
    assert a.dtype == np.float64
    return a.tobytes()


def assert_batch_matches_reference(scenario, horizon, seed, kind, sids):
    topo = topology(scenario, horizon, seed)
    batch = SegmentTimelineRecipe(topo, horizon, RngFactory(seed))
    reference = SegmentTimelineRecipe(topo, horizon, RngFactory(seed))
    offsets, boundaries, severity = batch.generate(kind, np.asarray(sids, dtype=np.int64))
    assert offsets.shape == (len(sids) + 1,) and offsets[0] == 0
    assert boundaries.size == severity.size == offsets[-1]
    for i, sid in enumerate(sids):
        tl = reference.timeline(kind, topo.registry[sid])
        lo, hi = offsets[i], offsets[i + 1]
        assert bits(boundaries[lo:hi]) == bits(tl.boundaries), (kind, sid)
        assert bits(severity[lo:hi]) == bits(tl.severity), (kind, sid)


def assert_topology_matches_reference(topo, horizon, seed, kind, sids):
    """The batch-versus-reference comparison on any topology."""
    sids = np.asarray(sids, dtype=np.int64)
    batch = SegmentTimelineRecipe(topo, horizon, RngFactory(seed))
    reference = SegmentTimelineRecipe(topo, horizon, RngFactory(seed))
    offsets, boundaries, severity = batch.generate(kind, sids)
    for i, sid in enumerate(sids.tolist()):
        tl = reference.timeline(kind, topo.registry[sid])
        lo, hi = offsets[i], offsets[i + 1]
        assert bits(boundaries[lo:hi]) == bits(tl.boundaries), (kind, sid)
        assert bits(severity[lo:hi]) == bits(tl.severity), (kind, sid)


@settings(max_examples=40, deadline=None)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    horizon=st.sampled_from(HORIZONS),
    seed=st.sampled_from(SEEDS),
    kind=st.sampled_from(KINDS),
    data=st.data(),
)
def test_batch_equals_reference_on_random_subsets(scenario, horizon, seed, kind, data):
    n = len(topology(scenario, horizon, seed).registry)
    sids = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=24))
    assert_batch_matches_reference(scenario, horizon, seed, kind, sids)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", KINDS)
def test_batch_equals_reference_on_every_segment(scenario, kind):
    horizon = 6 * HOUR
    n = len(topology(scenario, horizon, 3).registry)
    # reversed, so no result can lean on ascending generation order
    assert_batch_matches_reference(scenario, horizon, 3, kind, list(range(n))[::-1])


def test_batches_are_order_and_split_invariant():
    topo = topology("ron2003", 72 * HOUR, 2)
    n = len(topo.registry)
    whole = SegmentTimelineRecipe(topo, 72 * HOUR, RngFactory(2)).generate("outage", np.arange(n))
    split = SegmentTimelineRecipe(topo, 72 * HOUR, RngFactory(2))
    perm = np.random.default_rng(0).permutation(n)
    for chunk in np.array_split(perm, 7):
        offsets, boundaries, _ = split.generate("outage", chunk)
        for i, sid in enumerate(chunk):
            lo, hi = whole[0][sid], whole[0][sid + 1]
            assert bits(boundaries[offsets[i] : offsets[i + 1]]) == bits(whole[1][lo:hi])


def test_quiet_segments_are_one_zero_entry():
    topo = topology("stress", 300.0, 1)
    recipe = SegmentTimelineRecipe(topo, 300.0, RngFactory(1))
    offsets, boundaries, severity = recipe.generate("congestion", np.arange(len(topo.registry)))
    lengths = np.diff(offsets)
    quiet = lengths == 1
    assert quiet.mean() > 0.5  # a 300 s horizon is mostly quiet
    assert not boundaries[offsets[:-1][quiet]].any()
    assert not severity[offsets[:-1][quiet]].any()


def test_generation_counters():
    topo = topology("ron2003", 300.0, 1)
    recipe = SegmentTimelineRecipe(topo, 300.0, RngFactory(1))
    sids = np.arange(len(topo.registry))
    with telemetry.recording() as rec:
        offsets, _, severity = recipe.generate("outage", sids)
    counters = rec.counter_snapshot()
    assert counters["substrate.timelines"] == sids.size
    n_quiet = int(((np.diff(offsets) == 1) & (severity[offsets[:-1]] == 0)).sum())
    assert counters["substrate.quiet"] == n_quiet
    assert 0 < counters["substrate.quiet"] <= counters["substrate.timelines"]
    # a Generator only for the streams that draw an episode count: each
    # segment's own outage stream and hourly rates, as the reference has them
    rngs = RngFactory(1)
    drawing = 0
    for seg in topo.registry:
        params = recipe.class_cfg[seg.kind].outage
        if params is None:
            continue
        mult = topo.host(seg.host).link_class.outage_mult if seg.kind in ACCESS else 1.0
        rates = hourly_rates(300.0, params.rate_per_day * mult / 24.0)
        drawing += bool(np.any(draw_counts(rngs.stream("outage", seg.name), rates)))
    assert counters["substrate.generators"] == drawing
    assert 0 < drawing < counters["substrate.timelines"] / 10


@pytest.mark.parametrize("seed", [1, 2])
def test_batch_equals_reference_with_zero_and_ptrs_rates(seed):
    """Hours with λ = 0 (Poisson draws nothing) and λ >= 10 (NumPy's PTRS
    branch) on one network: a diurnal amplitude of 1 zeroes local 03:00,
    and a trunk congestion rate of 6 per hour peaks at 12 by 15:00."""
    horizon = 18 * HOUR
    ds = stress_mesh(n_hosts=8).build()
    cfg = ds.network_config(horizon)
    trunk = replace(cfg.trunk, congestion=replace(cfg.trunk.congestion, rate_per_hour=6.0))
    cfg = cfg.with_overrides(diurnal_amplitude=1.0, trunk=trunk)
    topo = build_topology(ds.hosts(), cfg, RngFactory(seed))
    batch = SegmentTimelineRecipe(topo, horizon, RngFactory(seed))
    lams = np.concatenate([p.rate_per_hour for p in batch._processes])
    assert (lams == 0.0).any() and (lams >= 10.0).any()
    n = len(topo.registry)
    perm = np.random.default_rng(seed).permutation(n)
    for kind in KINDS:
        for sids in (perm, perm[: n // 3]):
            assert_topology_matches_reference(topo, horizon, seed, kind, sids)


def test_ptrs_hours_are_drawn_even_after_a_tiny_first_double():
    """At λ >= 10 NumPy's Poisson sampler runs PTRS, so a first double at
    or below e^-λ does not mean a count of 0 there.  At λ = 10.0 exactly,
    find a seed where some stream's first double is that small: its
    timeline must still be drawn, and equal the reference."""
    horizon = HOUR
    ds = stress_mesh(n_hosts=8).build()
    cfg = ds.network_config(horizon)
    ten = {
        name: replace(c, congestion=replace(c.congestion, rate_per_hour=10.0))
        for name, c in (("isp", cfg.isp), ("trunk", cfg.trunk), ("middle", cfg.middle))
    }
    cfg = cfg.with_overrides(diurnal_amplitude=0.0, **ten)
    kinds = (SegmentKind.ISP, SegmentKind.TRUNK, SegmentKind.MIDDLE)
    topo = build_topology(ds.hosts(), cfg, RngFactory(1))
    names = [seg.name for seg in topo.registry if seg.kind in kinds]
    for seed in range(1, 5000):
        rngs = RngFactory(seed)
        tiny = [n for n in names if rngs.stream("congestion", n).random() <= math.exp(-10.0)]
        if tiny:
            break
    assert tiny, "no stream with a first double below e^-10"
    topo = build_topology(ds.hosts(), cfg, RngFactory(seed))
    reference = SegmentTimelineRecipe(topo, horizon, RngFactory(seed))
    assert reference.timeline("congestion", topo.registry.by_name(tiny[0])).max_severity() > 0
    assert_topology_matches_reference(topo, horizon, seed, "congestion", range(len(topo.registry)))


def test_unknown_kind_rejected():
    topo = topology("stress", 300.0, 1)
    with pytest.raises(ValueError, match="kind"):
        SegmentTimelineRecipe(topo, 300.0, RngFactory(1)).generate("weather", [0])
