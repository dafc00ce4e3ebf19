"""Out-of-core engine runs: spill-to-disk runs must be bitwise
identical to the in-RAM sequential pipeline, and a large spilled run
must complete inside a bounded memory budget."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import StreamingAnalyzer
from repro.api import ExperimentSpec, Runner
from repro.engine import EngineConfig, ShardedCollector, always_shard
from repro.engine.spill import shard_files
from repro.scenarios import flash_crowd, stress_mesh
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

from ..conftest import assert_traces_equal

DURATION = 240.0

#: the spill equivalence zoo: one canned dataset, one generated
#: pathology scenario (keeps runtime bounded; the full zoo runs in
#: test_sharding.py for the in-RAM engine).
ZOO = {
    "ronnarrow": lambda: dataset("ronnarrow"),
    "flash-crowd": lambda: flash_crowd(n_hosts=8, seed=4),
}

_SEQUENTIAL: dict = {}


def sequential_for(source_key):
    if source_key not in _SEQUENTIAL:
        src = ZOO[source_key]()
        if hasattr(src, "register"):
            src.register()
            ds = dataset(src.name)
        else:
            ds = src
        _SEQUENTIAL[source_key] = (ds, collect(ds, DURATION, seed=6))
    return _SEQUENTIAL[source_key]


@pytest.fixture(scope="module", autouse=True)
def _clean_catalogue():
    yield
    _SEQUENTIAL.clear()
    for make in ZOO.values():
        src = make()
        if hasattr(src, "unregister"):
            src.unregister()


class TestConfigValidation:
    def test_max_resident_needs_spill_dir(self):
        with pytest.raises(ValueError, match="spill_dir"):
            EngineConfig(max_resident_shards=2)

    def test_executor_none_is_auto(self):
        assert EngineConfig().executor == "thread"
        with pytest.raises(ValueError, match="executor"):
            EngineConfig(executor=None)

    def test_resolved_substrate(self):
        assert EngineConfig().resolved_substrate == "eager"
        assert EngineConfig(substrate="lazy").resolved_substrate == "lazy"

    def test_max_resident_caps_workers(self, tmp_path):
        col = ShardedCollector(
            EngineConfig(spill_dir=tmp_path, max_resident_shards=2, max_workers=8)
        )
        assert col.resolve_workers() == 2
        plain = ShardedCollector(EngineConfig(max_workers=8))
        assert plain.resolve_workers() == 8


@pytest.mark.parametrize("source_key", sorted(ZOO))
class TestSpillEquivalence:
    """The tentpole gate: a spilled run's merged trace fingerprints
    identically to the in-RAM sequential pipeline for every shard
    layout and executor."""

    def test_shard_counts_match_sequential(self, source_key, tmp_path):
        ds, seq = sequential_for(source_key)
        expected = trace_fingerprint(seq.trace)
        n_hosts = len(seq.trace.meta.host_names)
        for n_shards in (1, 2, n_hosts):
            col = ShardedCollector(
                EngineConfig(
                    n_shards=n_shards,
                    executor="serial",
                    spill_dir=tmp_path / f"s{n_shards}",
                    max_resident_shards=1,
                )
            ).collect(ds, DURATION, seed=6, network=seq.network)
            assert trace_fingerprint(col.trace) == expected, (
                f"{source_key}: {n_shards} spilled shards drifted from sequential"
            )
            assert_traces_equal(col.trace, seq.trace)

    def test_thread_executor_matches(self, source_key, tmp_path):
        ds, seq = sequential_for(source_key)
        col = ShardedCollector(
            EngineConfig(n_shards=4, executor="thread", spill_dir=tmp_path)
        ).collect(ds, DURATION, seed=6, network=seq.network)
        assert_traces_equal(col.trace, seq.trace)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="process executor needs fork()")
def test_process_executor_spills_paths_not_rows(tmp_path):
    ds, seq = sequential_for("ronnarrow")
    col = ShardedCollector(
        EngineConfig(
            n_shards=3, executor="process", max_workers=3, spill_dir=tmp_path
        )
    ).collect(ds, DURATION, seed=6, network=seq.network)
    assert_traces_equal(col.trace, seq.trace)
    assert len(list(tmp_path.glob("*/shard-*.npz"))) == 3


def test_rerun_with_new_layout_clears_stale_shards(tmp_path):
    # regression: a 2-shard and then a 4-shard collection of one run
    # share a run directory; the second must not leave the first's
    # shard files behind for readers to fold twice
    ds, seq = sequential_for("ronnarrow")
    first = ShardedCollector(
        EngineConfig(n_shards=2, executor="serial", spill_dir=tmp_path)
    ).collect(ds, DURATION, seed=6, network=seq.network)
    second = ShardedCollector(
        EngineConfig(n_shards=4, executor="serial", spill_dir=tmp_path)
    ).collect(ds, DURATION, seed=6, network=seq.network)
    assert second.spill_dir == first.spill_dir
    assert len(shard_files(second.spill_dir)) == 4
    assert StreamingAnalyzer.from_run_dir(second.spill_dir).n_rows == len(seq.trace)
    # the earlier result's memory maps still read their own bytes
    assert_traces_equal(first.trace, seq.trace)
    assert_traces_equal(second.trace, seq.trace)


def test_spilled_trace_is_memmapped(tmp_path):
    ds, seq = sequential_for("ronnarrow")
    col = ShardedCollector(
        EngineConfig(n_shards=2, executor="serial", spill_dir=tmp_path)
    ).collect(ds, DURATION, seed=6, network=seq.network)
    assert isinstance(col.trace.src, np.memmap)
    assert not col.trace.src.flags.writeable
    assert list(tmp_path.glob("*/merged/probe_id.npy"))
    # analyses copy-on-select, so downstream use is unaffected
    sub = col.trace.select(col.trace.method_id == 0)
    assert sub.src.flags.writeable


class TestRunnerIntegration:
    def test_spilled_runner_bitwise_equals_plain(self, tmp_path):
        sc = stress_mesh(n_hosts=24, seed=4)
        sc.register()
        try:
            spec = ExperimentSpec(sc.name.lower(), duration_s=DURATION, seeds=(2,))
            plain = Runner().run(spec)[0]
            spilled = Runner(
                engine=always_shard(
                    n_shards=4,
                    executor="thread",
                    spill_dir=tmp_path,
                    max_resident_shards=2,
                )
            ).run(spec)[0]
            assert_traces_equal(spilled.raw_trace, plain.raw_trace)
        finally:
            sc.unregister()

    def test_multi_seed_sweep_shares_one_spill_dir(self, tmp_path):
        # regression: each run spills into its own subdirectory, so a
        # sweep cannot overwrite an earlier seed's merged memmaps
        ds, _ = sequential_for("ronnarrow")
        spec = ExperimentSpec("ronnarrow", duration_s=DURATION, seeds=(2, 3))
        sweep = Runner(
            engine=always_shard(n_shards=2, executor="serial", spill_dir=tmp_path)
        ).run(spec)
        run_dirs = sorted(p.name for p in tmp_path.iterdir())
        assert len(run_dirs) == 2 and run_dirs[0] != run_dirs[1]
        for i, seed in enumerate((2, 3)):
            ref = collect(ds, DURATION, seed=seed)
            assert_traces_equal(sweep[i].raw_trace, ref.trace)

    def test_run_slug_keys_full_identity(self, tmp_path):
        # regression: two runs differing only in include_events (or any
        # non-seed axis) must not share a spill subdirectory — the
        # second merge would rewrite the first result's live memmaps
        ds, _ = sequential_for("ronnarrow")
        cfg = EngineConfig(n_shards=2, executor="serial", spill_dir=tmp_path)
        with_events = ShardedCollector(cfg).collect(ds, DURATION, seed=6)
        lost_before = with_events.trace.lost1.copy()
        without = ShardedCollector(cfg).collect(
            ds, DURATION, seed=6, include_events=False
        )
        assert len(list(tmp_path.iterdir())) == 2
        np.testing.assert_array_equal(with_events.trace.lost1, lost_before)
        assert without.trace.meta == with_events.trace.meta  # meta alone can't key


#: peak-RSS budget for a 100-host spilled engine run.  The dominant
#: residents are the N^3-path table (~130 MB at N=100) and the probing
#: grid — the spilled trace itself stays on disk.  Generous CI headroom
#: over the ~0.6 GB measured locally.
SPILL_RSS_BUDGET_MB = 1300

_SPILL_RSS_SCRIPT = """
import sys
from repro.engine import EngineConfig, ShardedCollector
from repro.scenarios import stress_mesh
from repro.telemetry.clock import peak_rss_bytes
from repro.testbed import dataset

sc = stress_mesh(n_hosts=100, seed=1)
sc.register()
ds = dataset(sc.name)
col = ShardedCollector(
    EngineConfig(
        n_shards=8,
        executor="serial",
        substrate="lazy",
        spill_dir=sys.argv[1],
        max_resident_shards=1,
    )
).collect(ds, 45.0, seed=1)
# VmHWM, not ru_maxrss: the latter survives fork+exec on some kernels,
# so it would report the *parent* pytest process's suite-wide peak
peak_kb = peak_rss_bytes() // 1024
print(f"rows={len(col.trace)} peak_kb={peak_kb}")
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss unit is KiB on Linux"
)
def test_100_host_spill_run_stays_inside_memory_budget(tmp_path):
    """ISSUE 5 acceptance: a >=100-host spilled run completes with peak
    RSS below a fixed budget.  Runs in a fresh interpreter so the
    high-water mark reflects this run, not the surrounding suite."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH", "")) + env.get(
        "PYTHONPATH", ""
    )
    out = subprocess.run(
        [sys.executable, "-c", _SPILL_RSS_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    fields = dict(kv.split("=") for kv in out.split())
    assert int(fields["rows"]) > 3000
    peak_mb = int(fields["peak_kb"]) / 1024  # ru_maxrss is KiB on Linux
    assert peak_mb < SPILL_RSS_BUDGET_MB, (
        f"100-host spill run peaked at {peak_mb:.0f} MB "
        f"(budget {SPILL_RSS_BUDGET_MB} MB)"
    )
