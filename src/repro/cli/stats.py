"""``repro-stats``: summarise one or more telemetry journals.

Reads the JSONL journal written by ``repro-run --trace`` (or any other
instrumented entry point) and reconstructs, per campaign: per-phase span
timings, per-(layer, bit) cell wall times, overall faults/sec and
inferences/sec, per-worker utilisation, and resume behaviour.

Distributed campaigns write one journal per worker (``repro-dist work
--trace``); pass them all and their events are merged by timestamp into
a single timeline before summarising, so shard claims, requeues and the
final merge are accounted across the whole fleet.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

from repro.telemetry import (
    format_comparisons,
    format_summary,
    predicted_vs_actual,
    read_journal,
    summarize_journal,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description=(
            "Summarise a telemetry journal (JSONL) into per-phase timing "
            "tables, throughput and worker utilisation."
        ),
    )
    parser.add_argument(
        "journals",
        type=Path,
        nargs="+",
        metavar="journal",
        help="journal file(s) (.jsonl); several per-worker journals "
        "from one distributed campaign are merged by timestamp",
    )
    parser.add_argument(
        "--run",
        default=None,
        help="only summarise this run id (default: every run in the journal)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest cells to list per campaign (default: 10)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    return parser


def _to_json(summary) -> dict:
    record = dataclasses.asdict(summary)
    record["faults_per_second"] = summary.faults_per_second
    record["inferences_per_second"] = summary.inferences_per_second
    record["resume_hit_rate"] = summary.resume_hit_rate
    return record


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    keyed = []
    for journal in args.journals:
        if not journal.is_file():
            print(f"repro-stats: error: no journal at {journal}")
            return 1
        for line_no, event in enumerate(read_journal(journal)):
            keyed.append((event, str(journal), line_no))
    if not keyed:
        names = ", ".join(str(j) for j in args.journals)
        print(f"repro-stats: error: {names} hold(s) no intact events")
        return 1
    if len(args.journals) > 1:
        # Per-worker journals interleave; monotonic t is system-wide on
        # Linux, so a timestamp sort rebuilds the fleet's one timeline.
        # Equal timestamps (clock granularity) tie-break on (journal
        # path, line number) so the merged timeline is stable no matter
        # the argument order.
        keyed.sort(key=lambda ke: (ke[0].t, ke[1], ke[2]))
    events = [event for event, _path, _line in keyed]
    summaries = summarize_journal(events)
    if args.run is not None:
        summaries = [s for s in summaries if s.run_id == args.run]
        if not summaries:
            print(f"repro-stats: error: no events for run id {args.run!r}")
            return 1
    comparisons = predicted_vs_actual(summaries)
    if args.json:
        payload = {
            "campaigns": [_to_json(s) for s in summaries],
            "predicted_vs_actual": [c.to_dict() for c in comparisons],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    names = ", ".join(str(j) for j in args.journals)
    print(f"{names}: {len(events)} events, {len(summaries)} campaign(s)")
    for summary in summaries:
        print()
        print(format_summary(summary, top_cells=args.top))
    if comparisons:
        print()
        print(format_comparisons(comparisons))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
