"""The ``events report|export`` subcommand of ``oolong-check``.

It analyzes an ``--events`` journal after the fact. :mod:`repro.cli`
dispatches here on first use, so a check never compiles this module.
See :mod:`repro.cli` for the exit codes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import _write_text


def events_main(argv: Optional[List[str]] = None) -> int:
    """``oolong-check events report|export FILE`` — journal analytics.

    ``report`` reconstructs one run from its JSONL event journal
    (``--events`` output): per-worker utilization and idle gaps,
    OL901–OL903 fault summaries correlated to implementations, cache
    effectiveness, and the critical path that bounded wall-clock — as
    text or schema-pinned JSON (``report.schema.json``). ``export
    --trace OUT`` converts the journal into a Chrome trace (open in
    Perfetto).
    """
    parser = argparse.ArgumentParser(
        prog="oolong-check events",
        description=(
            "Analyze a JSONL event journal produced by --events: render "
            "a run report, or export the journal as a Chrome trace."
        ),
    )
    parser.add_argument(
        "action",
        choices=("report", "export"),
        help="report: analyze one run and render it; export: convert "
        "the journal to a Chrome trace (requires --trace)",
    )
    parser.add_argument(
        "file",
        metavar="FILE",
        help="the JSONL event journal to analyze",
    )
    parser.add_argument(
        "--run",
        metavar="RUN_ID",
        default=None,
        help="select one run of a multi-run (--events-append) journal "
        "(default: the first run containing a check-start)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="with report: render as human text (default) or as JSON "
        "conforming to the in-tree report.schema.json",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="with report: write the rendering to FILE instead of "
        "stdout",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="with export: write the Chrome trace JSON to FILE",
    )
    args = parser.parse_args(argv)
    import json

    from repro.obs import read_journal
    from repro.obs.analyze import (
        AnalysisError,
        analyze_journal,
        journal_chrome_trace,
        render_report_text,
    )

    def _warn_skip(lineno: int, reason: str) -> None:
        # A journal from a killed run legitimately ends in a torn line;
        # analyzing what *was* recorded is the whole point.
        print(
            f"warning: OL905: {args.file}:{lineno}: skipped {reason}",
            file=sys.stderr,
        )

    try:
        records = read_journal(args.file, on_skip=_warn_skip)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "export":
        if not args.trace:
            print("error: export requires --trace FILE", file=sys.stderr)
            return 2
        try:
            payload = journal_chrome_trace(records, args.run)
        except AnalysisError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            _write_text(args.trace, json.dumps(payload, sort_keys=True))
        except OSError as error:
            print(f"error: cannot write trace: {error}", file=sys.stderr)
            return 2
        print(
            f"wrote {args.trace} ({len(payload['traceEvents'])} trace "
            "events)"
        )
        return 0
    try:
        report = analyze_journal(records, args.run)
    except AnalysisError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = render_report_text(report).rstrip("\n")
    if args.out:
        try:
            _write_text(args.out, text)
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0
