"""Manifest round-trips, summaries, Chrome export and the CLI."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.telemetry.cli import main as cli_main
from repro.telemetry.manifest import MANIFEST_NAME, MANIFEST_VERSION


def span(name, cat="stage", ts=1000, dur=500, pid=10, tid=1, **args):
    return {
        "ev": "span", "name": name, "cat": cat, "ts_ns": ts, "dur_ns": dur,
        "pid": pid, "tid": tid, "args": args,
    }


EVENTS = [
    span("probe"),
    span("collect", ts=2000, dur=3000),
    span("shard-collect", cat="shard", ts=2100, dur=1000, pid=11, host_lo=0, host_hi=2),
    span("shard-collect", cat="shard", ts=2200, dur=1200, pid=12, host_lo=2, host_hi=4),
    {"ev": "counter", "name": "collect.rows", "value": 64, "pid": 10},
    {"ev": "gauge", "name": "process.peak_rss_bytes", "value": 1.0e6, "pid": 10},
]


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        run = {"dataset": "RONnarrow", "seed": 1, "pid": 10}
        path = telemetry.write_manifest(tmp_path, EVENTS, run=run)
        assert path == tmp_path / MANIFEST_NAME
        header, events = telemetry.read_manifest(tmp_path)
        assert header["ev"] == "manifest"
        assert header["version"] == MANIFEST_VERSION
        assert header["run"] == run
        assert events == EVENTS

    def test_manifest_path_accepts_dir_or_file(self, tmp_path):
        assert telemetry.manifest_path(tmp_path) == tmp_path / MANIFEST_NAME
        f = tmp_path / "other.jsonl"
        assert telemetry.manifest_path(f) == f

    def test_truncated_tail_tolerated(self, tmp_path):
        path = telemetry.write_manifest(tmp_path, EVENTS)
        with open(path, "a") as fh:
            fh.write('{"ev": "span", "name": "torn')  # interrupted run
        _, events = telemetry.read_manifest(path)
        assert events == EVENTS

    def test_missing_and_malformed_manifests_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            telemetry.read_manifest(tmp_path / "nope.jsonl")
        bad = tmp_path / MANIFEST_NAME
        bad.write_text('{"ev": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="manifest header"):
            telemetry.read_manifest(bad)
        bad.write_text("")
        with pytest.raises(ValueError, match="empty"):
            telemetry.read_manifest(bad)

    def test_summarize_aggregates(self):
        summary = telemetry.summarize(EVENTS)
        sc = summary["spans"]["shard:shard-collect"]
        assert sc["count"] == 2
        assert sc["total_s"] == pytest.approx(2200 / 1e9)
        assert sc["max_s"] == pytest.approx(1200 / 1e9)
        assert sc["mean_s"] == pytest.approx(1100 / 1e9)
        assert summary["spans"]["stage:probe"]["count"] == 1
        assert summary["counters"] == {"collect.rows": 64}
        assert summary["gauges"] == {"process.peak_rss_bytes": 1.0e6}
        assert summary["shards"] == 2


class TestChromeTrace:
    def test_spans_become_complete_events(self):
        header = {"ev": "manifest", "version": 1, "run": {"pid": 10}}
        doc = telemetry.chrome_trace(EVENTS, header=header)
        telemetry.validate_chrome_trace(doc)
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert len(xs) == 4
        # timestamps are microseconds relative to the earliest span
        assert min(ev["ts"] for ev in xs) == 0.0
        probe = next(ev for ev in xs if ev["name"] == "probe")
        assert probe["dur"] == pytest.approx(0.5)

    def test_process_labels_engine_vs_workers(self):
        header = {"ev": "manifest", "version": 1, "run": {"pid": 10}}
        doc = telemetry.chrome_trace(EVENTS, header=header)
        labels = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert labels[10] == "engine"
        assert labels[11] == "worker-11"
        assert labels[12] == "worker-12"

    def test_counters_become_counter_events(self):
        doc = telemetry.chrome_trace(EVENTS)
        cs = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        assert {ev["name"] for ev in cs} == {"collect.rows", "process.peak_rss_bytes"}
        assert all(ev["args"]["value"] is not None for ev in cs)

    def test_validate_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            telemetry.validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="needs dur"):
            telemetry.validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "ts": 0.0, "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError, match="negative"):
            telemetry.validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "name": "a", "ts": 0.0, "dur": -1.0, "pid": 1, "tid": 1}
                ]}
            )
        with pytest.raises(ValueError, match="unexpected phase"):
            telemetry.validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})

    def test_export_writes_valid_json(self, tmp_path):
        out = tmp_path / "trace.json"
        path = telemetry.export_chrome_trace(EVENTS, out)
        doc = json.loads(path.read_text())
        telemetry.validate_chrome_trace(doc)


class TestCli:
    def test_summary_and_json(self, tmp_path, capsys):
        telemetry.write_manifest(tmp_path, EVENTS, run={"dataset": "X", "pid": 10})
        assert cli_main(["summary", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "shard:shard-collect" in text and "collect.rows" in text
        assert cli_main(["summary", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 2

    def test_summary_shows_lazy_generation_time(self, tmp_path, capsys):
        events = EVENTS + [{"ev": "counter", "name": "substrate.generate_ns", "value": 2.5e9}]
        telemetry.write_manifest(tmp_path, events)
        assert cli_main(["summary", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if "substrate.generate_ns" in ln)
        assert line.split()[-1] == "2.5000"

    def test_export_subcommand(self, tmp_path, capsys):
        telemetry.write_manifest(tmp_path, EVENTS)
        out = tmp_path / "trace.json"
        assert cli_main(["export", str(tmp_path), "-o", str(out)]) == 0
        assert "4 spans" in capsys.readouterr().out
        telemetry.validate_chrome_trace(json.loads(out.read_text()))

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert cli_main(["summary", str(tmp_path)]) == 2
        assert "no manifest" in capsys.readouterr().out
