"""Telemetry must never touch the simulation: fingerprints and overhead.

The golden contract extends to observability: a run with recording at
max verbosity (every span, counter and gauge live) fingerprints
byte-identically to the telemetry-off run on every executor, and the
disabled no-op recorder adds no measurable cost to a small collect.
"""

from __future__ import annotations

import time

import pytest

from repro import telemetry
from repro.engine import ShardedCollector, always_shard
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

DURATION = 120.0
SEED = 5


@pytest.fixture(autouse=True)
def _disabled_after():
    yield
    telemetry.disable()


@pytest.fixture(scope="module")
def baseline_fingerprint():
    """The telemetry-off sequential reference."""
    return trace_fingerprint(collect(dataset("ronnarrow"), DURATION, seed=SEED).trace)


class TestFingerprintInvariance:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_executors_match_baseline_with_telemetry_on(
        self, executor, baseline_fingerprint
    ):
        with telemetry.recording() as rec:
            col = ShardedCollector(
                always_shard(n_shards=2, executor=executor)
            ).collect(dataset("ronnarrow"), DURATION, seed=SEED)
            # max verbosity really happened: stage spans + shard kernels
            names = {ev["name"] for ev in rec.events() if ev["ev"] == "span"}
            assert {"collect", "merge", "shard-collect"} <= names
        assert trace_fingerprint(col.trace) == baseline_fingerprint

    def test_sequential_collect_unchanged_by_recording(self, baseline_fingerprint):
        with telemetry.recording():
            fp = trace_fingerprint(
                collect(dataset("ronnarrow"), DURATION, seed=SEED).trace
            )
        assert fp == baseline_fingerprint


class TestNoOpOverhead:
    def test_disabled_sites_are_cheap(self):
        """50k disabled span+counter sites must run in well under a
        second (~20us/op allowed; the real cost is ~0.1us)."""
        assert telemetry.get_recorder().enabled is False
        t0 = time.perf_counter()
        for _ in range(50_000):
            with telemetry.span("hot", cat="stage"):
                telemetry.counter_add("n")
        assert time.perf_counter() - t0 < 1.0

    def test_small_collect_within_bound(self):
        """Min-of-3 small collects: the disabled-recorder run stays
        within a generous factor of the enabled-recorder run — i.e. the
        no-op path certainly isn't *slower* than full recording plus a
        wide noise margin."""

        def min_of_3():
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                collect(dataset("ronnarrow"), 60.0, seed=1)
                times.append(time.perf_counter() - t0)
            return min(times)

        disabled = min_of_3()
        with telemetry.recording():
            enabled = min_of_3()
        # generous bound: both are the same work modulo recording
        assert disabled < enabled * 3 + 0.5
        assert enabled < disabled * 3 + 0.5
