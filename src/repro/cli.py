"""Command-line entry points.

``oolong-check [options] file.oolong ...`` runs the full pipeline —
parse, well-formedness, static-analysis pre-filter, pivot uniqueness, VC
generation, mechanical proof — and prints a per-implementation report,
exiting non-zero if any check fails.

``oolong-check lint [options] file.oolong ...`` (also installed as
``oolong-lint``) runs only the static analyses: the syntactic restriction
pass, the flow-sensitive pivot escape analysis, modifies-list inference,
and the declaration/reachability lints. No prover is involved, so it is
fast enough for editor integration.

Both accept ``--format text|json|sarif`` and ``--fail-on`` with either a
severity (``error``, ``warning``) or a comma-separated list of OLxxx
codes (unknown codes are rejected with the known-code list). Check mode
adds ``--static-discharge on|off`` (the static pass that discharges
frame obligations before the prover) and
``--check-discharge`` (the differential soundness guard; disagreements
are OL402 errors).
Check mode also carries the observability flags: ``--trace FILE``
(Chrome trace-event JSON of the run, written on every exit path),
``--metrics FILE`` (machine-readable pipeline/prover metrics as JSON),
``--events FILE`` (a structured JSONL event journal of the run —
job assignments, worker deaths, retries, cache traffic, and the spans
the trace is drawn from), ``--progress`` (a live progress line on
stderr driven by the same events), and ``--profile`` (stage breakdown,
slowest VCs, hottest quantifiers, deadline pressure). All of them are
computed from the one event journal of the run. See README
"Observability".
``--explain`` adds per-verdict explanations (``--explain-format
text|json``, ``--explain-out FILE``): blame reports for failed proofs,
replay-validated proof logs for verified ones. See README "Explaining
failures".
``-j N`` checks implementations on N supervised worker processes with a
hard ``--job-timeout`` per proof (SIGKILL, OL901), worker-death retries
up to ``--max-retries`` (then OL902 quarantine); both flags require
``-j``. ``--cache-dir`` enables the crash-safe incremental result cache
(corrupted entries are rejected with OL903 and recomputed). See README
"Parallel & incremental checking".
``--run-dir DIR`` keeps a crash-safe fsync'd run ledger: a run killed
mid-flight (even SIGKILL) resumes with ``--resume``, replaying the
committed verdicts and checking only the remainder, and the resumed
report is byte-identical to an uninterrupted run (damaged or stale
ledgers degrade with OL905, never fail). See README "Crash recovery".
``oolong-check events report FILE`` analyzes a ``--events`` journal
after the fact (utilization, OL901–OL903 summaries, cache
effectiveness, the critical path); ``events export --trace OUT FILE``
converts a journal into a Chrome trace.
Sources are parsed per file with panic-mode error recovery, so every
diagnostic position names the file it points into and *all* syntax
errors across all files are reported in one run (as ``OL001``/``OL002``
diagnostics) instead of only the first.

The ``events`` subcommand lives in :mod:`repro.cli_ops`, which loads
only when it runs.

Exit codes: 0 — clean; 1 — findings at or above the ``--fail-on``
threshold (or a failed proof, timeout, or internal-error verdict in
check mode); 2 — unreadable input, syntax errors, an ill-formed scope,
or an unexpected internal crash of the driver itself (isolated per
implementation wherever possible; exit 2 only when nothing could be
checked).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ReproError
from repro.oolong.program import Scope
from repro.prover.core import Limits
from repro.vcgen.checker import check_scope

if TYPE_CHECKING:
    import argparse


def _type_error(message: str) -> argparse.ArgumentTypeError:
    """An ``argparse.ArgumentTypeError``: argparse loads only when a
    command line is parsed, not with this module."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _parse_fail_on(value: str):
    """``--fail-on`` semantics: a severity name, or a comma-separated
    list of OLxxx codes (rule aliases accepted). Returns a
    :class:`~repro.analysis.diagnostics.Severity` or a frozenset of
    codes; unknown codes raise ``argparse.ArgumentTypeError`` — silently
    matching nothing would turn the gate off."""
    from repro.analysis.diagnostics import CODES, RULE_ALIASES, Severity

    if value in ("error", "warning"):
        return Severity.ERROR if value == "error" else Severity.WARNING
    codes = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        code = RULE_ALIASES.get(part, part)
        if code not in CODES:
            known = ", ".join(sorted(CODES))
            raise _type_error(
                f"unknown diagnostic code {part!r}; expected 'error', "
                f"'warning', or a comma-separated list of codes "
                f"(known codes: {known})"
            )
        codes.append(code)
    if not codes:
        raise _type_error(
            "--fail-on needs a severity ('error', 'warning') or at least "
            "one diagnostic code"
        )
    return frozenset(codes)


def _fail_on_value(value: str) -> str:
    """argparse ``type`` hook: validate eagerly (unknown codes abort the
    parse with a clear message), keep the raw string on ``args``."""
    _parse_fail_on(value)
    return value


def _int_at_least(value: str, low: int) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise _type_error(f"expected an integer, got {value!r}")
    if parsed < low:
        raise _type_error(f"expected a value >= {low}, got {parsed}")
    return parsed


def _nonneg_int(value: str) -> int:
    """argparse ``type`` hook: a non-negative integer (``--max-retries``
    et al. — a negative retry budget would silently mean "never retry"
    in some code paths and "retry forever" in others)."""
    return _int_at_least(value, 0)


def _positive_int(value: str) -> int:
    """argparse ``type`` hook: a positive integer (``-j``: a check needs
    at least one worker)."""
    return _int_at_least(value, 1)


def _nonneg_float(value: str) -> float:
    """argparse ``type`` hook: a non-negative float (timeouts, waits)."""
    try:
        parsed = float(value)
    except ValueError:
        raise _type_error(f"expected a number, got {value!r}")
    if parsed < 0:
        raise _type_error(f"expected a value >= 0, got {parsed}")
    return parsed


def _fails_threshold(diagnostics, fail_on: str) -> bool:
    """Does any diagnostic trip the ``--fail-on`` gate?"""
    from repro.analysis.diagnostics import Severity, exceeds_threshold

    threshold = _parse_fail_on(fail_on)
    if isinstance(threshold, Severity):
        return exceeds_threshold(diagnostics, threshold)
    return any(diag.code in threshold for diag in diagnostics)


def _add_shared_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("files", nargs="+", help="oolong source files")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif emits a SARIF v2.1.0 "
        "document with every OLxxx finding",
    )
    parser.add_argument(
        "--fail-on",
        type=_fail_on_value,
        default="error",
        metavar="SEVERITY|CODES",
        help="what makes the exit code non-zero: a lowest severity "
        "('error', 'warning') or a comma-separated list of diagnostic "
        "codes (e.g. 'OL401,OL302'); default: error",
    )


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="oolong-check",
        description=(
            "Statically check the side effects of oolong programs using "
            "data groups (PLDI 2002 reproduction)."
        ),
    )
    _add_shared_arguments(parser)
    parser.add_argument(
        "--time-budget",
        type=float,
        default=30.0,
        help="prover time budget per implementation, in seconds",
    )
    parser.add_argument(
        "--scope-time-budget",
        type=float,
        default=None,
        help="wall-clock budget for the whole batch, in seconds; shared "
        "across implementations so one divergent proof cannot starve the "
        "rest (they report 'timed out'). Each implementation still gets "
        "at most --time-budget of prover time within what remains",
    )
    parser.add_argument(
        "--max-instances",
        type=int,
        default=20000,
        help="prover instantiation budget per implementation",
    )
    parser.add_argument(
        "--no-restrictions",
        action="store_true",
        help="disable the pivot-uniqueness restriction pass (unsound; "
        "for experiments only)",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="disable the static-analysis pre-filter",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print prover statistics per implementation (including "
        "per-quantifier instantiation counts)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON of the run to FILE "
        "(open it in Perfetto or chrome://tracing); written even when "
        "the run fails, so crash traces stay complete",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write machine-readable pipeline/prover metrics to FILE "
        "as JSON",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        default=None,
        help="write a structured JSONL event journal of the run to FILE: "
        "job assignments, worker deaths, retries and quarantines "
        "(OL902), timeouts (OL901), cache traffic (OL903) — one JSON "
        "record per line, conforming to the in-tree events.schema.json; "
        "written even when the run fails",
    )
    parser.add_argument(
        "--events-append",
        action="store_true",
        help="append to --events FILE instead of truncating it; each run "
        "keeps its own run_id, so the multi-run file still validates "
        "and 'events report --run' can pick one run out",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live progress on stderr (implementations checked, "
        "cache hits, quarantines, ETA), driven by "
        "the same event stream --events records",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a profile after the report: stage breakdown, slowest "
        "VCs, hottest quantifiers, deadline pressure",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="explain every verdict: failed proofs get a source-anchored "
        "blame report built from the prover's countermodel (which command, "
        "which field, which modifies entries, which inclusion chain "
        "failed); verified ones get a replay-validated proof log",
    )
    parser.add_argument(
        "--explain-format",
        choices=("text", "json"),
        default="text",
        help="explanation rendering (default: text); json conforms to "
        "the in-tree explanations.schema.json",
    )
    parser.add_argument(
        "--explain-out",
        metavar="FILE",
        default=None,
        help="write the explanations to FILE instead of stdout (implies "
        "--explain); written even when the run fails",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=_positive_int,
        metavar="N",
        default=None,
        help="check implementations on N supervised worker processes "
        "(process isolation: a crashed, hung, or OOM-killed proof costs "
        "only its own verdict). Default: serial, in-process",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="reuse verdicts from (and publish new ones into) the "
        "crash-safe incremental result cache at PATH; corrupted or "
        "version-skewed entries are rejected with an OL903 warning and "
        "recomputed. Bypassed under --explain",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=_nonneg_int,
        metavar="B",
        default=None,
        help="with --cache-dir: bound the cache directory to B bytes by "
        "evicting least-recently-used entries on store",
    )
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="keep a crash-safe run ledger in DIR (created if missing): "
        "every finished verdict is committed to an fsync'd append-only "
        "JSONL file before the run can report it — verdicts settled "
        "without proving (static discharge, cache hits) in one fsync "
        "before proving starts, each proved verdict in its own — so a "
        "run killed mid-flight "
        "(SIGKILL, OOM, power loss) can be resumed with --resume. A "
        "damaged or out-of-date ledger is rotated aside with an OL905 "
        "warning — it never fails the run",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --run-dir: reuse the verdicts already committed to "
        "the ledger (validated per-implementation against the current "
        "sources, limits, and checker version) and check only the "
        "remainder; the final report is byte-identical to an "
        "uninterrupted run",
    )
    parser.add_argument(
        "--max-retries",
        type=_nonneg_int,
        metavar="K",
        default=None,
        help="with -j: retries after a worker death before the "
        "job is quarantined as INTERNAL_ERROR/OL902 (default: 2)",
    )
    parser.add_argument(
        "--job-timeout",
        type=_nonneg_float,
        metavar="S",
        default=None,
        help="with -j: hard wall-clock limit per proof job, in "
        "seconds — the worker is SIGKILLed (no cooperative poll needed) "
        "and the verdict is TIMED_OUT/OL901",
    )
    parser.add_argument(
        "--static-discharge",
        choices=("on", "off"),
        default="off",
        help="statically discharge frame obligations before the prover "
        "(repro.analysis.effects): fully subsumed implementations skip "
        "the prover as verified, statically refuted ones as not proved "
        "with an OL401 blame. Default: off",
    )
    parser.add_argument(
        "--check-discharge",
        action="store_true",
        help="differential soundness guard: prove everything anyway and "
        "report any disagreement between the static discharge and the "
        "prover as an OL402 error (implies --static-discharge on)",
    )
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="oolong-lint",
        description=(
            "Run only the static analyses (restrictions, escape analysis, "
            "modifies inference, lints) over oolong programs — no prover."
        ),
    )
    _add_shared_arguments(parser)
    parser.add_argument(
        "--no-restrictions",
        action="store_true",
        help="skip the OL1xx restriction family (syntactic and "
        "flow-sensitive pivot passes)",
    )
    return parser


def _read_sources(
    paths: List[str],
) -> Tuple[Optional[List[Tuple[str, str]]], Optional[str]]:
    """Read every input file; (sources, None) or (None, error message)."""
    sources: List[Tuple[str, str]] = []
    for path in paths:
        try:
            with open(path) as handle:
                sources.append((path, handle.read()))
        except OSError as error:
            return None, f"cannot read {path}: {error}"
    return sources, None


def _print_frontend_errors(diagnostics, sources, fmt: str) -> None:
    from repro.analysis.diagnostics import render_json, render_text

    if fmt == "json":
        print(render_json(diagnostics, ok=False))
    elif fmt == "sarif":
        from repro.analysis.sarif import render_sarif

        print(render_sarif(diagnostics))
    else:
        print(render_text(diagnostics, dict(sources)), file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """The ``oolong-check`` entry point (with the ``lint`` subcommand)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "events":
        from repro.cli_ops import events_main

        return events_main(argv[1:])
    return check_main(argv)


def check_main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for given, needed, flag, needs in (
        (args.resume, args.run_dir, "--resume", "--run-dir DIR"),
        (
            args.cache_max_bytes is not None,
            args.cache_dir,
            "--cache-max-bytes",
            "--cache-dir PATH",
        ),
        (
            args.job_timeout is not None,
            args.jobs is not None,
            "--job-timeout",
            "-j N",
        ),
        (
            args.max_retries is not None,
            args.jobs is not None,
            "--max-retries",
            "-j N",
        ),
    ):
        if given and not needed:
            print(f"error: {flag} requires {needs}", file=sys.stderr)
            return 2
    sources, read_error = _read_sources(args.files)
    if read_error is not None:
        print(f"error: {read_error}", file=sys.stderr)
        return 2
    limits = Limits(
        time_budget=args.time_budget,
        max_instances=args.max_instances,
        scope_time_budget=args.scope_time_budget,
    )
    journal = None
    renderer = None
    if any(
        (args.trace, args.metrics, args.profile, args.events, args.progress)
    ):
        from repro.obs import EventJournal

        journal = EventJournal()
        if args.progress:
            from repro.obs import ProgressRenderer

            renderer = ProgressRenderer()
            journal.add_listener(renderer)
    if args.explain_out:
        args.explain = True
    outcome = {"report": None}
    try:
        from contextlib import nullcontext

        from repro.obs import journaling
        from repro.testing.chaos import plan_from_env
        from repro.testing.faults import inject

        # The chaos harness reaches subprocess runs through the
        # environment (OOLONG_CHAOS="stage@hit,..."): install the plan
        # exactly as `inject` would in-process, so coordinator kill
        # points fire inside real CLI runs.
        chaos_plan = plan_from_env()
        with journaling(journal):
            with (
                inject(chaos_plan)
                if chaos_plan is not None
                else nullcontext()
            ):
                return _check_journaled(
                    args, sources, limits, outcome, journal
                )
    finally:
        # Exports happen on every exit path — a trace of a failing or
        # crashing run is exactly the one worth keeping (spans are
        # closed by the instrumentation's ``with`` blocks on unwind,
        # and a journal of a crashed run records how far it got).
        if renderer is not None:
            renderer.finish()
        _write_exports(args, outcome, journal)


def _check_journaled(args, sources, limits: Limits, outcome, journal) -> int:
    try:
        scope, frontend = Scope.from_sources_recovering(sources)
        if frontend:
            _print_frontend_errors(frontend, sources, args.format)
            return 2
        report = check_scope(
            scope,
            limits,
            enforce_restrictions=not args.no_restrictions,
            lint=not args.no_lint,
            explain=args.explain,
            parallel=args.jobs,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            job_timeout=args.job_timeout,
            max_retries=(
                2 if args.max_retries is None else args.max_retries
            ),
            static_discharge=args.static_discharge,
            check_discharge=args.check_discharge,
            run_dir=args.run_dir,
            resume=args.resume,
        )
        outcome["report"] = report
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # keep the CLI alive on internal crashes
        print(
            f"internal error: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 2
    if report.ledger_summary:
        # Routine recovery detail (resumed counts, a torn tail trimmed,
        # duplicates collapsed, stale entries dropped) goes to stderr so
        # the report itself stays byte-identical to an uninterrupted
        # run; whole-ledger failures become OL905 report diagnostics in
        # the checker instead.
        for warning in report.ledger_summary.get("warnings", ()):
            print(f"warning: OL905: {warning}", file=sys.stderr)
    if args.stats and report.discharge_summary is not None:
        print(_discharge_line(report.discharge_summary), file=sys.stderr)
    if args.format == "json":
        from repro.analysis.diagnostics import render_json

        payload = report.to_dict()
        if args.trace or args.metrics or args.profile:
            from repro.obs import collect_metrics

            payload["metrics"] = collect_metrics(journal.records, report)
        print(render_json([], **payload))
    elif args.format == "sarif":
        from repro.analysis.sarif import render_report_sarif

        print(render_report_sarif(report))
    else:
        print(report.describe(stats=args.stats))
    if args.profile:
        from repro.obs import text_report

        print(text_report(journal.records, report))
    failed = not report.ok or _fails_threshold(
        report.diagnostics, args.fail_on
    )
    return 1 if failed else 0


def _discharge_line(summary: dict) -> str:
    """``--stats``: the static discharge tallies, kept out of the report."""
    tallies = (("obligations", summary["obligations"]), ("impls", summary["impls"]))
    parts = [
        f"{name} {tally['static-valid']} discharged, "
        f"{tally['static-violation']} refuted, {tally['unknown']} deferred"
        for name, tally in tallies
    ]
    if summary.get("checked"):
        parts.append(
            f"{summary.get('agreements', 0)} agreements, "
            f"{summary.get('disagreements', 0)} disagreements"
        )
    return f"discharge ({summary['mode']}): " + "; ".join(parts)


def _export(label: str, path: Optional[str], writer) -> None:
    """Write one export file with the CLI's uniform error policy.

    Every on-exit artifact (trace, metrics, explanations, cache summary)
    goes through here: a missing path is a no-op, and an unwritable path
    degrades to a stderr warning instead of masking the run's own exit
    code — the single place that rule lives.
    """
    if not path:
        return
    try:
        writer(path)
    except OSError as error:
        print(f"error: cannot write {label}: {error}", file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)
        handle.write("\n")


def _write_exports(args, outcome, journal=None) -> None:
    """Everything the CLI owes the filesystem, on *every* exit path.

    Called from ``check_main``'s single ``finally`` so a crash, a
    KeyboardInterrupt, or a clean failure all leave the same artifacts:
    the Chrome trace, the metrics file, the event journal, the
    explanation report (a run that crashed before any verdict still
    produces a valid, empty report), and the result-cache flush summary.
    """
    report = outcome.get("report")
    if journal is not None:
        from repro.obs import collect_metrics, write_chrome_trace, write_metrics

        _export(
            "trace",
            args.trace,
            lambda path: write_chrome_trace(path, journal.records),
        )
        _export(
            "metrics",
            args.metrics,
            lambda path: write_metrics(
                path, collect_metrics(journal.records, report)
            ),
        )
        _export(
            "events",
            args.events,
            lambda path: journal.write(path, append=args.events_append),
        )
    if args.explain:
        text = _render_explanations(args, report)
        if args.explain_out:
            _export(
                "explanations",
                args.explain_out,
                lambda path: _write_text(path, text),
            )
        else:
            print(text)
    if args.cache_dir:
        import json
        import os

        from repro.parallel.cache import atomic_write_text

        summary = (
            report.cache_summary if report is not None else None
        ) or {"directory": args.cache_dir, "note": "run ended before checking"}
        # Atomic (write-to-temp + rename): a reader polling summary.json
        # (CI dashboards, a concurrent run) never sees a torn file.
        _export(
            "cache summary",
            os.path.join(args.cache_dir, "summary.json"),
            lambda path: atomic_write_text(
                path, json.dumps(summary, indent=2, sort_keys=True) + "\n"
            ),
        )
    if getattr(args, "run_dir", None):
        import json
        import os

        from repro.parallel.cache import atomic_write_text

        ledger_summary = (
            report.ledger_summary if report is not None else None
        ) or {"directory": args.run_dir, "note": "run ended before checking"}
        _export(
            "ledger summary",
            os.path.join(args.run_dir, "summary.json"),
            lambda path: atomic_write_text(
                path,
                json.dumps(ledger_summary, indent=2, sort_keys=True) + "\n",
            ),
        )


def _render_explanations(args, report) -> str:
    verdicts = report.verdicts if report is not None else []
    explanations = [
        verdict.explanation
        for verdict in verdicts
        if verdict.explanation is not None
    ]
    if args.explain_format == "json":
        import json

        from repro.obs.explain import SCHEMA_VERSION

        payload = {
            "schema_version": SCHEMA_VERSION,
            "source": ", ".join(args.files),
            "explanations": [e.to_dict() for e in explanations],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    blocks = [e.render_text() for e in explanations]
    return "\n\n".join(blocks) if blocks else "(no explanations)"


def lint_main(argv: Optional[List[str]] = None) -> int:
    """The ``oolong-lint`` / ``oolong-check lint`` entry point."""
    args = build_lint_parser().parse_args(argv)
    sources, read_error = _read_sources(args.files)
    if read_error is not None:
        print(f"error: {read_error}", file=sys.stderr)
        return 2
    from repro.analysis.diagnostics import render_json, render_text
    from repro.analysis.engine import lint_scope

    try:
        scope, frontend = Scope.from_sources_recovering(sources)
        if frontend:
            _print_frontend_errors(frontend, sources, args.format)
            return 2
        result = lint_scope(
            scope,
            include_restrictions=not args.no_restrictions,
            include_flow=not args.no_restrictions,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # keep the CLI alive on internal crashes
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            render_json(
                result.diagnostics,
                inferred_modifies={
                    proc: list(designators)
                    for proc, designators in sorted(
                        result.inferred_modifies.items()
                    )
                },
                ok=result.ok,
            )
        )
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        print(render_sarif(result.diagnostics))
    else:
        text = render_text(result.diagnostics, dict(sources))
        if text:
            print(text)
        print(f"{len(result.diagnostics)} diagnostic(s)")
    if _fails_threshold(result.diagnostics, args.fail_on):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
