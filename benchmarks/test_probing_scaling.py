"""Probing scaling benches: probe-grid build and routing-table build
wall-time versus host count on generated stress meshes.

Like :mod:`benchmarks.test_engine_scaling`, these measure the
*machine*, not the model: how fast the per-source-host probe evaluator
covers an all-pairs grid and what the batched `select_paths_batch`
table build costs as the mesh grows.
Each test writes its own ``benchmarks/out/probing_scaling_<section>.json``
(one file per section, so xdist workers never race on a shared file)
for CI to archive the trajectory run over run; the assertions gate only
basic sanity and the ISSUE 4 acceptance budget, never exact timings.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.reactive import build_routing_tables, run_probing
from repro.netsim import Network, RngFactory
from repro.scenarios import stress_mesh

OUT_DIR = Path(__file__).parent / "out"

PROBE_SIZES = (24, 60, 100)
PROBE_DURATION = 300.0


def _write(section: str, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"probing_scaling_{section}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _network(n_hosts: int, substrate: str = "lazy") -> tuple[Network, object]:
    sc = stress_mesh(n_hosts=n_hosts, seed=1)
    cfg = sc.network_config()
    net = Network.build(sc.hosts(), cfg, PROBE_DURATION, seed=1, substrate=substrate)
    return net, cfg.probing


def test_probe_and_table_build_scaling():
    """Sequential probe grid + batched table build across mesh sizes."""
    results = {}
    for n in PROBE_SIZES:
        net, params = _network(n)
        t0 = time.perf_counter()
        series = run_probing(net, params, RngFactory(1))
        t_probe = time.perf_counter() - t0
        t0 = time.perf_counter()
        build_routing_tables(series, params)
        t_tables = time.perf_counter() - t0
        probes = series.n_slots * n * (n - 1)
        results[str(n)] = {
            "substrate": "lazy",  # probe time includes on-demand timelines
            "slots": series.n_slots,
            "probes": probes,
            "probe_seconds": round(t_probe, 4),
            "probes_per_second": round(probes / t_probe),
            "table_seconds": round(t_tables, 4),
            "table_entries_per_second": round(series.n_slots * n * n / t_tables),
        }
    _write("grid_and_tables", results)
    print(json.dumps(results, indent=2))
    # the ISSUE 4 acceptance budget, with headroom left to CI noise
    assert results["100"]["probe_seconds"] < 30.0
    assert results["100"]["table_seconds"] < 30.0
