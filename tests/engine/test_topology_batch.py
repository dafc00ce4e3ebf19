"""Batch path-table construction must replicate the scalar set_path
loop bit for bit (offsets, totals, forwarding fields)."""

import numpy as np
import pytest

from repro.netsim import RngFactory, config_2003
from repro.netsim.topology import PathTable, build_topology
from repro.relaysets import RelayPolicySpec, compile_relay_set
from repro.scenarios import ScaledMesh

from ..conftest import tiny_hosts


class FakeSeg:
    def __init__(self, sid, prop):
        self.sid = sid
        self.prop_delay_s = prop


@pytest.fixture(scope="module")
def segs():
    rng = np.random.default_rng(3)
    return [FakeSeg(i, float(p)) for i, p in enumerate(rng.uniform(1e-4, 0.05, 40))]


def seg_prop(segs):
    return np.array([s.prop_delay_s for s in segs])


def table(n):
    return PathTable(n, compile_relay_set(RelayPolicySpec(), n))


#: the path table's per-row arrays
FIELDS = (
    "seg",
    "offset",
    "prop_total",
    "forward_loss",
    "forward_delay",
    "relay_host",
    "valid",
)


def test_batch_matches_scalar_direct(segs):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, len(segs), size=(50, 6))
    a, b = table(8), table(8)
    pids = np.arange(50)
    for pid, row in zip(pids, rows):
        a.set_path(int(pid), [segs[i] for i in row])
    b.set_paths_batch(pids, rows, seg_prop(segs))
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def test_batch_matches_scalar_relay_with_forwarding(segs):
    rng = np.random.default_rng(11)
    rows = rng.integers(0, len(segs), size=(64, 11))
    fwd_loss = rng.uniform(0.0, 0.05, 64)
    a, b = table(8), table(8)
    # relay rows now validate relay_host against the pid's decoded
    # (src, dst) endpoints, so write canonical non-degenerate triples
    triples = [
        (s, r, d)
        for s in range(8)
        for r in range(8)
        for d in range(8)
        if s != d and r not in (s, d)
    ][:64]
    pids = np.array([a.relay_pid(s, r, d) for s, r, d in triples])
    relays = np.array([r for _, r, _ in triples], dtype=np.int32)
    for pid, row, fl, r in zip(pids, rows, fwd_loss, relays):
        a.set_path(
            int(pid),
            [segs[i] for i in row],
            forward_loss=float(fl),
            forward_delay=0.003,
            relay_host=int(r),
            forward_after=5,
        )
    b.set_paths_batch(
        pids,
        rows,
        seg_prop(segs),
        forward_loss=fwd_loss,
        forward_delay=0.003,
        relay_host=relays,
        forward_after=5,
    )
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def test_batch_chunking_is_invisible(segs, monkeypatch):
    rng = np.random.default_rng(13)
    rows = rng.integers(0, len(segs), size=(40, 6))
    pids = np.arange(40)
    a, b = table(7), table(7)
    a.set_paths_batch(pids, rows, seg_prop(segs))
    monkeypatch.setattr(PathTable, "BATCH_CHUNK", 7)
    b.set_paths_batch(pids, rows, seg_prop(segs))
    np.testing.assert_array_equal(a.offset, b.offset)
    np.testing.assert_array_equal(a.prop_total, b.prop_total)


def test_batch_validation(segs):
    t = table(4)
    with pytest.raises(ValueError, match="MAX_LEN"):
        t.set_paths_batch(np.arange(2), np.zeros((2, 12), int), seg_prop(segs))
    with pytest.raises(ValueError, match="matching pids"):
        t.set_paths_batch(np.arange(3), np.zeros((2, 6), int), seg_prop(segs))
    with pytest.raises(ValueError, match="forward_after"):
        t.set_paths_batch(np.arange(2), np.zeros((2, 6), int), seg_prop(segs), forward_after=6)


def test_built_mesh_path_table_shape():
    n = 12
    hosts = ScaledMesh(n_hosts=n, seed=1).hosts()
    topo = build_topology(hosts, config_2003(), RngFactory(5))
    paths = topo.paths
    assert int(paths.valid.sum()) == n * (n - 1) + n * (n - 1) * (n - 2)
    # a relay path is the s->r direct path, then the r->d direct path
    # minus the relay's ISP hop (traversed once on the way in)
    s, r, d = 0, 4, 9
    segs = [x.sid for x in topo.path_segments(paths.relay_pid(s, r, d))]
    direct_sr = [x.sid for x in topo.path_segments(paths.direct_pid(s, r))]
    direct_rd = [x.sid for x in topo.path_segments(paths.direct_pid(r, d))]
    assert segs == direct_sr + [direct_rd[0]] + direct_rd[2:]


def test_tiny_topology_has_exact_offsets():
    topo = build_topology(tiny_hosts(), config_2003(), RngFactory(5))
    paths = topo.paths
    pid = paths.direct_pid(0, 1)
    segs = topo.path_segments(pid)
    off = 0.0
    for i, seg in enumerate(segs):
        assert paths.offset[pid, i] == off
        off += seg.prop_delay_s
    assert paths.prop_total[pid] == off
