"""Recorder mechanics: no-op default, event shapes, scoping."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry import clock
from repro.telemetry.recorder import NULL, NullRecorder, Recorder

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _disabled_after():
    """Every test leaves the process-wide recorder disabled."""
    yield
    telemetry.disable()


class TestNullRecorder:
    def test_disabled_is_the_shared_singleton(self):
        assert telemetry.get_recorder() is NULL
        assert isinstance(NULL, NullRecorder)
        assert NULL.enabled is False

    def test_all_operations_are_noops(self):
        with NULL.span("x", cat="stage", a=1) as s:
            # the shared null span: no state, reusable everywhere
            assert s is NULL.span("y")
        NULL.counter_add("c", 5)
        NULL.gauge_set("g", 1.0)
        assert NULL.mark() == 0
        assert NULL.counter_snapshot() == {}
        assert NULL.events() == []
        assert NULL.events_since(0) == []

    def test_module_level_helpers_are_noops_when_disabled(self):
        with telemetry.span("nothing", cat="stage"):
            telemetry.counter_add("c")
            telemetry.gauge_set("g", 2.0)
        assert telemetry.get_recorder().events() == []


class TestRecorder:
    def test_span_event_shape(self):
        rec = Recorder()
        with rec.span("collect", cat="stage", shards=2):
            pass
        (ev,) = rec.events()
        assert ev["ev"] == "span"
        assert ev["name"] == "collect"
        assert ev["cat"] == "stage"
        assert ev["args"] == {"shards": 2}
        assert ev["pid"] == os.getpid()
        assert ev["tid"] == threading.get_ident()
        assert ev["dur_ns"] >= 0
        assert 0 < ev["ts_ns"] <= clock.monotonic_ns()

    def test_counters_aggregate_in_place(self):
        rec = Recorder()
        for _ in range(1000):
            rec.counter_add("hits")
        rec.counter_add("bytes", 512)
        rec.counter_add("bytes", 512)
        # 1002 increments, exactly two counter event records
        events = rec.events()
        assert len(events) == 2
        by_name = {ev["name"]: ev for ev in events}
        assert by_name["hits"]["value"] == 1000
        assert by_name["bytes"]["value"] == 1024
        assert all(ev["ev"] == "counter" for ev in events)

    def test_gauge_keeps_last_value(self):
        rec = Recorder()
        rec.gauge_set("rss", 100.0)
        rec.gauge_set("rss", 75.0)
        (ev,) = rec.events()
        assert ev == {"ev": "gauge", "name": "rss", "value": 75.0, "pid": os.getpid()}

    def test_mark_and_counter_snapshot_scope_one_run(self):
        rec = Recorder()
        with rec.span("before", cat="stage"):
            pass
        rec.counter_add("rows", 10)
        mark = rec.mark()
        base = rec.counter_snapshot()
        with rec.span("inside", cat="stage"):
            pass
        rec.counter_add("rows", 7)
        events = rec.events(mark, base)
        names = [(ev["ev"], ev.get("name")) for ev in events]
        assert ("span", "before") not in names
        assert ("span", "inside") in names
        (counter,) = [ev for ev in events if ev["ev"] == "counter"]
        assert counter["name"] == "rows" and counter["value"] == 7

    def test_zero_counter_deltas_are_dropped(self):
        rec = Recorder()
        rec.counter_add("rows", 5)
        base = rec.counter_snapshot()
        assert rec.events(rec.mark(), base) == []

    def test_events_since_returns_live_references(self):
        rec = Recorder()
        with rec.span("shard-collect", cat="shard", host_lo=0, host_hi=4):
            pass
        (live,) = rec.events_since(0)
        live["args"]["queue_wait_ns"] = 123
        (ev,) = rec.events()
        assert ev["args"]["queue_wait_ns"] == 123


class TestGlobalSwitch:
    def test_enable_disable_round_trip(self):
        rec = telemetry.enable()
        assert telemetry.get_recorder() is rec
        assert rec.enabled
        telemetry.disable()
        assert telemetry.get_recorder() is NULL

    def test_recording_context_restores_previous(self):
        outer = telemetry.enable()
        with telemetry.recording() as inner:
            assert telemetry.get_recorder() is inner
            assert inner is not outer
        assert telemetry.get_recorder() is outer

    def test_env_var_enables_at_import(self):
        code = (
            "from repro import telemetry\n"
            "print(telemetry.get_recorder().enabled)\n"
        )
        for env_value, expected in (("1", "True"), ("0", "False"), ("", "False")):
            env = dict(os.environ, PYTHONPATH=str(REPO_SRC), REPRO_TELEMETRY=env_value)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == expected


class TestClock:
    def test_monotonic_ns_is_monotonic(self):
        a = clock.monotonic_ns()
        b = clock.monotonic_ns()
        assert b >= a > 0

    def test_peak_rss_plausible_on_linux(self):
        rss = clock.peak_rss_bytes()
        if rss is None:  # non-Linux: /proc/self/status absent
            pytest.skip("no /proc/self/status")
        # bigger than 1 MiB, smaller than 1 TiB
        assert 1 << 20 < rss < 1 << 40
