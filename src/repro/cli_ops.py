"""The operations subcommands of ``oolong-check``.

``workers serve|status`` runs and queries a standing fleet worker pool;
``events report|export`` analyzes an ``--events`` journal after the
fact.
:mod:`repro.cli` dispatches here on first use, so a check never
compiles this module. See :mod:`repro.cli` for the exit codes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import (
    EXIT_STATUS_DOWN,
    EXIT_STATUS_REJECTED,
    _export,
    _nonneg_float,
    _nonneg_int,
    _write_text,
)


def _render_status(payload: dict, metrics_format: Optional[str]) -> str:
    """Render a STATUS payload: human text, JSON, or Prometheus text."""
    if metrics_format == "json":
        import json

        return json.dumps(payload, indent=2, sort_keys=True)
    if metrics_format == "prom":
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge_dict(payload.get("metrics", {}))
        return registry.to_prometheus().rstrip("\n")
    kind = payload.get("kind", "server")
    lines = [
        f"{kind} pid={payload.get('pid')} "
        f"uptime={payload.get('uptime')}s"
    ]
    if kind == "worker-pool":
        workers = payload.get("workers", {})
        pids = ", ".join(str(pid) for pid in workers.get("pids", []))
        lines.append(f"  coordinator: {payload.get('coordinator')}")
        lines.append(
            f"  workers: {workers.get('alive')}/{workers.get('configured')} "
            f"alive (pids: {pids or 'none'})"
        )
        lines.append(f"  jobs served: {payload.get('jobs_served')}")
    counters = payload.get("metrics", {}).get("counters", {})
    for name, value in sorted(counters.items()):
        lines.append(f"  {name}: {value}")
    return "\n".join(lines)


def workers_main(argv: Optional[List[str]] = None) -> int:
    """``oolong-check workers serve|status`` — a standing worker pool.

    ``serve HOST:PORT`` keeps dialing the coordinator address, so the
    pool can be started before any checker run exists and survives
    across successive runs (each run's coordinator binds the same
    address, the workers rejoin). With ``--status HOST:PORT`` the pool
    also answers live status queries there. ``status HOST:PORT`` asks a
    pool's status endpoint and prints the answer: it exits 3 when
    nothing answered and 4 when the pool refused the handshake. A usage
    error, including an address already in use, exits 2.
    """
    parser = argparse.ArgumentParser(
        prog="oolong-check workers",
        description="Run a standing pool of fleet proof workers that dial "
        "a coordinator address and steal job leases from it (see "
        "'oolong-check --fleet HOST:PORT'), or query a running "
        "pool's status endpoint.",
    )
    parser.add_argument(
        "action",
        choices=("serve", "status"),
        help="serve: run the server until SIGTERM or ^C; status: query a "
        "running server and print its status",
    )
    parser.add_argument(
        "address",
        metavar="HOST:PORT",
        help="serve: fleet coordinator address to dial; status: the "
        "pool's --status endpoint address",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="shared token (a pool's must match the coordinator's)",
    )
    parser.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="with serve: also expose /metrics (Prometheus text), "
        "/healthz, and /status (JSON) over plain HTTP at this address",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        default=None,
        help="with serve: write the server's JSONL event journal to "
        "FILE on shutdown",
    )
    parser.add_argument(
        "--events-append",
        action="store_true",
        help="append to --events FILE instead of truncating it",
    )
    parser.add_argument(
        "--drain-timeout",
        type=_nonneg_float,
        metavar="S",
        default=10.0,
        help="with serve: on SIGTERM or ^C, seconds to let in-flight "
        "jobs finish before they are cut off (default: 10)",
    )
    parser.add_argument(
        "--timeout",
        type=_nonneg_float,
        metavar="SECONDS",
        default=5.0,
        help="with status: bound the connect/read round-trip "
        "(default: 5)",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default=None,
        help="with status: print the full payload as JSON, or the "
        "metrics as Prometheus text (default: human-readable summary)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=_nonneg_int,
        metavar="N",
        default=2,
        help="worker processes in the pool (default: 2)",
    )
    parser.add_argument(
        "--status",
        metavar="HOST:PORT",
        default=None,
        help="with serve: also answer status queries at this address "
        "(port 0 picks an ephemeral port)",
    )
    args = parser.parse_args(argv)
    from repro.parallel.transport import (
        StatusRejected,
        TransportError,
        parse_address,
        query_status,
        serve_forever,
    )

    try:
        address = parse_address(args.address)
        if args.action == "serve":
            from repro.parallel.fleet import WorkerPool

            if args.jobs < 1:
                raise ValueError("--jobs must be at least 1")
            server = WorkerPool(
                address,
                jobs=args.jobs,
                token=args.token,
                status_address=(
                    None if args.status is None else parse_address(args.status)
                ),
                http_address=(
                    None if args.http is None else parse_address(args.http)
                ),
            )
    except (ValueError, OSError, TransportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "status":
        try:
            payload = query_status(
                address, token=args.token, timeout=args.timeout
            )
        except StatusRejected as error:
            print(f"error: {error}", file=sys.stderr)
            print(
                "hint: something answered but refused the handshake — "
                "wrong server, protocol, or --token?",
                file=sys.stderr,
            )
            return EXIT_STATUS_REJECTED
        except TransportError as error:
            print(f"error: {error}", file=sys.stderr)
            print(
                f"hint: nothing answered at {args.address} — "
                "is the server running?",
                file=sys.stderr,
            )
            return EXIT_STATUS_DOWN
        print(_render_status(payload, args.metrics_format))
        return 0
    from repro.obs import EventJournal, journaling

    journal = EventJournal() if args.events else None
    try:
        with journaling(journal):
            serve_forever(server, args.drain_timeout)
    except KeyboardInterrupt:
        pass
    finally:
        if journal is not None:
            _export(
                "events",
                args.events,
                lambda path: journal.write(path, append=args.events_append),
            )
    return 0


def events_main(argv: Optional[List[str]] = None) -> int:
    """``oolong-check events report|export FILE`` — journal analytics.

    ``report`` reconstructs one run from its JSONL event journal
    (``--events`` output): per-worker utilization and idle gaps, lease
    latency percentiles, OL901–OL904 fault summaries correlated to
    implementations, cache effectiveness, and the critical path that
    bounded wall-clock — as text or schema-pinned JSON
    (``report.schema.json``). ``export --trace OUT`` converts the
    journal into a Chrome trace (open in Perfetto), reconstructing the
    timeline even for fleet runs over external worker pools whose
    in-process spans never came home.
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
