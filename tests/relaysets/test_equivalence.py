"""The dense-vs-sparse equivalence gate (ISSUE 10 tentpole).

Policy ``all`` must be a pure *layout* change: the candidate-set path
table, selector and router produce bitwise-identical routing tables and
traces — including the committed golden fingerprints, exercised here
through the sparse code path without regenerating the golden file.
Restrictive policies (``k_nearest``) then run the same pipeline end to
end with every routed relay provably inside its pair's candidate set.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.selector import DIRECT, select_paths_batch, select_paths_block
from repro.engine.spill import run_slug
from repro.netsim import Network, config_2003
from repro.relaysets import RelayPolicySpec, compile_relay_set
from repro.scenarios import FlashCrowd, GeoCluster, Scenario
from repro.testbed import collect, dataset
from repro.testbed.collection import prepare_collection
from repro.trace import trace_fingerprint

from ..conftest import assert_traces_equal, tiny_hosts

DURATION = 240.0
SEED = 6

ALL = RelayPolicySpec(policy="all")

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "integration" / "golden_trace.json"


@pytest.fixture(scope="module")
def dense_sparse():
    """One ronnarrow run per layout, same duration and seed."""
    ds = dataset("ronnarrow")
    sparse_ds = dataclasses.replace(ds, relay_policy=ALL)
    dense = collect(ds, DURATION, seed=SEED)
    sparse = collect(sparse_ds, DURATION, seed=SEED)
    return ds, sparse_ds, dense, sparse


def test_topology_rows_bitwise_identical():
    hosts = tiny_hosts()
    n = len(hosts)
    dense = Network.build(hosts, config_2003(), horizon=600.0, seed=11)
    sparse = Network.build(
        hosts, config_2003(), horizon=600.0, seed=11, relay_policy=ALL
    )
    a, b = dense.paths, sparse.paths
    assert b.relay_set is not None and b.relay_set.is_complete
    # sparse materializes exactly direct + candidate rows
    assert len(b.valid) == n * n + b.relay_set.nnz
    # direct rows share the pid space [0, n^2)
    for name in ("seg", "offset", "prop_total", "forward_loss", "valid"):
        np.testing.assert_array_equal(
            getattr(a, name)[: n * n], getattr(b, name)[: n * n], err_msg=name
        )
    # relay rows agree triple by triple across the two pid layouts
    triples = [
        (s, r, d)
        for s in range(n)
        for r in range(n)
        for d in range(n)
        if s != d and r not in (s, d)
    ]
    src = np.array([t[0] for t in triples])
    rel = np.array([t[1] for t in triples])
    dst = np.array([t[2] for t in triples])
    pa = a.relay_pids(src, rel, dst)
    pb = b.relay_pids(src, rel, dst)
    for name in (
        "seg",
        "offset",
        "prop_total",
        "forward_loss",
        "forward_delay",
        "relay_host",
        "valid",
    ):
        np.testing.assert_array_equal(
            getattr(a, name)[pa], getattr(b, name)[pb], err_msg=name
        )


def test_selector_tables_bitwise_identical():
    g, n = 4, 12
    rng = np.random.default_rng(2)
    loss = rng.uniform(0.0, 0.4, size=(g, n, n))
    lat = rng.uniform(0.01, 0.3, size=(g, n, n))
    lat[rng.random((g, n, n)) < 0.05] = np.inf  # never-probed legs
    failed = rng.random((g, n, n)) < 0.1
    rs = compile_relay_set(ALL, n)
    d = select_paths_batch(loss, lat, failed)
    s = select_paths_batch(loss, lat, failed, relay_set=rs)
    for name in ("loss_best", "loss_second", "lat_best", "lat_second"):
        got, want = getattr(s, name), getattr(d, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


TABLE_NAMES = ("loss_best", "loss_second", "lat_best", "lat_second")


def quantised_estimates(g, n, seed):
    """Leg estimates on the grids real probe windows produce, so that
    options tie and only the stable option order decides between them."""
    rng = np.random.default_rng(seed)
    loss = rng.integers(0, 21, size=(g, n, n)) / 100  # a 100-probe window
    lat = rng.integers(1, 16, size=(g, n, n)) * 0.010  # a 10 ms grid
    lat[rng.random((g, n, n)) < 0.1] = np.inf  # never-probed legs
    failed = rng.random((g, n, n)) < 0.05
    failed[:, rng.choice(n, 2, replace=False), :] = True  # whole rows down
    return loss, lat, failed


@pytest.mark.parametrize("margin", [0.0, 0.005])
def test_selector_tables_bitwise_identical_on_ties(margin):
    g, n = 6, 12
    loss, lat, failed = quantised_estimates(g, n, seed=3)
    rs = compile_relay_set(ALL, n)
    d = select_paths_batch(loss, lat, failed, margin)
    s = select_paths_batch(loss, lat, failed, margin, relay_set=rs)
    for name in TABLE_NAMES:
        np.testing.assert_array_equal(getattr(s, name), getattr(d, name), err_msg=name)


@pytest.mark.parametrize("policy", [None, "all", "k_nearest"])
def test_block_rows_equal_full_tables(policy):
    """``select_paths_block`` over any source range is those rows of the
    full-mesh tables, in the dense and the candidate-set layout (whose
    padded width ``k`` follows the range)."""
    g, n = 4, 12
    loss, lat, failed = quantised_estimates(g, n, seed=4)
    rng = np.random.default_rng(5)
    rs = None
    if policy is not None:
        points = rng.uniform(0.0, 1.0, size=(n, 2))
        distances = np.linalg.norm(points[:, None] - points[None], axis=-1)
        rs = compile_relay_set(
            RelayPolicySpec(policy, k=3) if policy == "k_nearest" else ALL,
            n,
            distances=distances,
        )
    full = select_paths_batch(loss, lat, failed, relay_set=rs)
    for _ in range(8):
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        block = select_paths_block(loss, lat, failed, lo, hi, relay_set=rs)
        for name in TABLE_NAMES:
            np.testing.assert_array_equal(
                getattr(block, name),
                getattr(full, name)[:, lo:hi],
                err_msg=f"{name} rows [{lo}, {hi})",
            )


def test_collect_trace_and_tables_bitwise_identical(dense_sparse):
    _, _, dense, sparse = dense_sparse
    assert sparse.network.paths.relay_set is not None
    assert trace_fingerprint(sparse.trace) == trace_fingerprint(dense.trace)
    assert_traces_equal(sparse.trace, dense.trace)
    assert sparse.tables.fingerprint() == dense.tables.fingerprint()


def test_run_slug_distinguishes_sparse_from_dense(dense_sparse):
    ds, sparse_ds, dense, sparse = dense_sparse
    plan_d = prepare_collection(ds, DURATION, seed=SEED, network=dense.network)
    plan_s = prepare_collection(
        sparse_ds, DURATION, seed=SEED, network=sparse.network
    )
    slug_d, slug_s = run_slug(plan_d), run_slug(plan_s)
    assert slug_d != slug_s  # sparse and dense runs cannot clobber each other
    assert slug_d.startswith("RONnarrow-seed") and slug_s.startswith("RONnarrow-seed")
    # idempotent: recomputing the same run yields the same slug
    assert run_slug(plan_d) == slug_d


def test_golden_fingerprints_reproduced_through_sparse_all():
    """The acceptance gate: policy ``all`` reproduces the *committed*
    golden fingerprints byte for byte (the golden file is not touched)."""
    golden = json.loads(GOLDEN_PATH.read_text())["runs"]

    ds = dataclasses.replace(dataset("ronnarrow"), relay_policy=ALL)
    col = collect(ds, 600.0, seed=7)
    assert col.network.paths.relay_set is not None  # really the sparse path
    got = trace_fingerprint(col.trace)
    assert got["sha256"] == golden["ronnarrow-mini"]["sha256"]

    # the generated golden scenario, pinned exactly as in the golden test
    # (same name: the dataset name is part of the fingerprint identity)
    sc = Scenario(
        "golden-flash-crowd",
        GeoCluster(n_hosts=7, regions=("us-east", "us-west", "europe"), seed=2),
        pathologies=(FlashCrowd(start_frac=0.4, duration_frac=0.1, severity=0.3),),
        relay_policy=ALL,
    )
    sc.register()
    try:
        col = collect(dataset(sc.name), 600.0, seed=7)
        assert col.network.paths.relay_set is not None
        got = trace_fingerprint(col.trace)
        assert got["sha256"] == golden["golden-flash-crowd-mini"]["sha256"]
    finally:
        sc.unregister()


def test_k_nearest_routes_inside_candidate_sets():
    ds = dataclasses.replace(
        dataset("ronnarrow"),
        relay_policy=RelayPolicySpec(policy="k_nearest", k=4),
    )
    col = collect(ds, DURATION, seed=SEED)
    rs = col.network.paths.relay_set
    n = rs.n_hosts
    dense_nnz = n * (n - 1) * (n - 2)
    assert 0 < rs.nnz < dense_nnz  # genuinely pruned
    trace = col.trace
    for field in ("relay1", "relay2"):
        relay = np.asarray(getattr(trace, field), dtype=np.int64)
        via = relay != DIRECT
        if via.any():
            assert rs.contains(
                trace.src[via].astype(np.int64),
                relay[via],
                trace.dst[via].astype(np.int64),
            ).all(), field


def test_region_policy_runs_end_to_end():
    sc = Scenario(
        "sparse-region-mini",
        GeoCluster(n_hosts=9, regions=("us-east", "us-west", "europe"), seed=3),
        relay_policy=RelayPolicySpec(policy="region", backbone=1),
    )
    sc.register()
    try:
        col = collect(dataset(sc.name), DURATION, seed=SEED)
        rs = col.network.paths.relay_set
        assert rs is not None and rs.spec.policy == "region"
        assert len(col.trace) > 0
    finally:
        sc.unregister()
