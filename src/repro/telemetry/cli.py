"""``python -m repro.telemetry``: summarize or export a run's manifest.

Usage::

    python -m repro.telemetry summary <run_dir | telemetry.jsonl>
    python -m repro.telemetry export  <run_dir | telemetry.jsonl> -o trace.json

``summary`` prints per-span aggregate timings plus counter/gauge totals;
``export`` writes a validated Chrome-trace JSON (open it in
``chrome://tracing`` or https://ui.perfetto.dev).  The positional
target is a spill run directory (``<spill_dir>/<run_slug>/``) or a
manifest file directly.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .chrome import export_chrome_trace
from .manifest import manifest_path, read_manifest, summarize

__all__ = ["main"]


def _print_summary(header: dict, events: list[dict]) -> None:
    run = header.get("run", {})
    if run:
        print(
            f"run: dataset={run.get('dataset')!r} mode={run.get('mode')!r} "
            f"seed={run.get('seed')} hosts={run.get('hosts')} "
            f"executor={run.get('executor')} shards={run.get('n_shards')}"
        )
    summary = summarize(events)
    generate_ns = summary["counters"].get("substrate.generate_ns")
    if summary["spans"]:
        print(f"\n{'span':34s} {'count':>6s} {'total s':>10s} {'mean s':>10s} {'max s':>10s}")
        for key in sorted(summary["spans"]):
            agg = summary["spans"][key]
            print(
                f"{key:34s} {agg['count']:6d} {agg['total_s']:10.4f} "
                f"{agg['mean_s']:10.4f} {agg['max_s']:10.4f}"
            )
    if generate_ns is not None:
        # lazy substrates generate timelines inside whichever stage first
        # queries them; this is that time, already within those stages
        print(f"{'substrate.generate_ns (in stages)':34s} {'':6s} {generate_ns / 1e9:10.4f}")
    if summary["counters"]:
        print(f"\n{'counter':34s} {'value':>14s}")
        for name in sorted(summary["counters"]):
            print(f"{name:34s} {summary['counters'][name]:14,.0f}")
    if summary["gauges"]:
        print(f"\n{'gauge':34s} {'value':>14s}")
        for name in sorted(summary["gauges"]):
            print(f"{name:34s} {summary['gauges'][name]:14,.0f}")
    if summary["shards"]:
        print(f"\nshards observed: {summary['shards']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.telemetry", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="print per-span/counter aggregates")
    p_summary.add_argument("target", type=Path, help="run dir or telemetry.jsonl")
    p_summary.add_argument(
        "--json", action="store_true", help="emit the summary as JSON instead of a table"
    )

    p_export = sub.add_parser("export", help="write a Chrome-trace JSON")
    p_export.add_argument("target", type=Path, help="run dir or telemetry.jsonl")
    p_export.add_argument(
        "-o", "--output", type=Path, required=True, help="Chrome trace output path"
    )
    args = parser.parse_args(argv)

    try:
        header, events = read_manifest(args.target)
    except FileNotFoundError:
        print(f"error: no manifest at {manifest_path(args.target)}")
        return 2
    except ValueError as exc:
        print(f"error: {exc}")
        return 2

    if args.command == "summary":
        if args.json:
            print(json.dumps(summarize(events), indent=2, sort_keys=True))
        else:
            _print_summary(header, events)
        return 0

    path = export_chrome_trace(events, args.output, header=header)
    n_spans = sum(1 for ev in events if ev.get("ev") == "span")
    print(f"wrote {path} ({n_spans} spans, {len(events) - n_spans} counter/gauge records)")
    return 0
