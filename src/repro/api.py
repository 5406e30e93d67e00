"""High-level convenience API: parse, lint, and check oolong programs."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    diagnostic_from_error,
    internal_error_diagnostic,
)
from repro.analysis.engine import LintResult, lint_program, lint_scope
from repro.errors import ReproError
from repro.obs import journaling
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits
from repro.vcgen.checker import CheckReport, ImplVerdict, check_scope

__all__ = [
    "CheckReport",
    "Diagnostic",
    "ImplVerdict",
    "LintResult",
    "Severity",
    "check_program",
    "check_program_resilient",
    "check_scope",
    "lint_program",
    "lint_scope",
    "parse_program",
    "parse_program_resilient",
]


def parse_program(source: str) -> Scope:
    """Parse an oolong program text into a well-formed scope.

    This function decides well-formedness for its caller (an ill-formed
    scope raises :class:`WellFormednessError`); :func:`check_program`
    does not call it, since ``check_scope`` decides it once per check.

    Fail-fast: the first syntax error raises. Use
    :func:`parse_program_resilient` to recover at declaration/command
    boundaries and get the partial scope and every diagnostic instead.
    """
    scope = Scope.from_source(source)
    check_well_formed(scope)
    return scope


def parse_program_resilient(
    source: str, filename: Optional[str] = None
) -> Tuple[Scope, List[Diagnostic]]:
    """Parse with error recovery; returns the partial scope + diagnostics.

    Never raises on malformed input: lexical/syntax errors come back as
    ``OL001``/``OL002`` diagnostics, well-formedness failures of the
    surviving declarations as ``OL100``.
    """
    from repro.errors import WellFormednessError

    scope, diagnostics = Scope.from_sources_recovering([(filename, source)])
    if not diagnostics:
        try:
            check_well_formed(scope)
        except WellFormednessError as error:
            diagnostics.append(diagnostic_from_error(error))
    return scope, diagnostics


def check_program(
    source: str,
    limits: Optional[Limits] = None,
    *,
    events=None,
    explain: bool = False,
    parallel: Optional[int] = None,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    job_timeout: Optional[float] = None,
    max_retries: int = 2,
    static_discharge: str = "off",
    check_discharge: bool = False,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> CheckReport:
    """Parse, validate, and verify an oolong program text.

    An ill-formed scope raises :class:`WellFormednessError` from
    ``check_scope``, which decides well-formedness once per check.

    ``events``, when given, is a :class:`repro.obs.EventJournal`
    installed for the duration of the call: the run's lifecycle records
    (job assignments, worker spawns and deaths, retries/quarantines,
    cache traffic) and its spans (stage boundaries, per-implementation,
    per-VC) land on it, ready for ``journal.write(path)``, a live
    listener such as :class:`repro.obs.ProgressRenderer`, or the
    exporters: :func:`repro.obs.chrome_trace`,
    :func:`repro.obs.collect_metrics` and :func:`repro.obs.text_report`.

    ``explain=True`` attaches a blame report or replayable proof log to
    each verdict (see :mod:`repro.obs.explain`).

    ``parallel=N`` checks implementations on ``N`` supervised worker
    processes, ``cache_dir`` enables the crash-safe incremental result
    cache, ``job_timeout`` is the hard per-job wall-clock bound, and
    ``max_retries`` the retry budget after worker deaths — see
    :mod:`repro.parallel` and :func:`repro.vcgen.checker.check_scope`.

    ``static_discharge``/``check_discharge`` control the static pass
    that discharges frame obligations before the prover —
    see :mod:`repro.analysis.effects` and
    :func:`repro.vcgen.checker.check_scope`.

    ``run_dir`` keeps a crash-safe run ledger in that directory and
    ``resume=True`` replays the verdicts it committed before a crash —
    see :mod:`repro.parallel.ledger`.
    """
    with journaling(events):
        return check_scope(
            Scope.from_source(source),
            limits,
            explain=explain,
            parallel=parallel,
            cache_dir=cache_dir,
            cache_max_bytes=cache_max_bytes,
            job_timeout=job_timeout,
            max_retries=max_retries,
            static_discharge=static_discharge,
            check_discharge=check_discharge,
            run_dir=run_dir,
            resume=resume,
        )


def check_program_resilient(
    source: str,
    limits: Optional[Limits] = None,
    *,
    filename: Optional[str] = None,
    events=None,
    explain: bool = False,
    parallel: Optional[int] = None,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    job_timeout: Optional[float] = None,
    max_retries: int = 2,
    static_discharge: str = "off",
    check_discharge: bool = False,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> CheckReport:
    """Parse, validate, and verify; never raises.

    The fault-tolerant driver: frontend errors (and any unexpected crash
    anywhere in the pipeline) are reported in ``report.fatal`` instead of
    propagating, every checkable implementation still gets a verdict, and
    the report always renders. This is the entry point the
    fault-injection harness drives.

    ``events`` installs a :class:`repro.obs.EventJournal` for the call
    (see :func:`check_program`); spans still close on every failure
    path, so traces of crashing runs are complete.

    The supervision knobs (``parallel``/``cache_dir``/``job_timeout``/
    ``max_retries``) behave as in :func:`check_program`.
    """
    report = CheckReport()
    with journaling(events):
        try:
            scope, diagnostics = Scope.from_sources_recovering(
                [(filename, source)]
            )
        except Exception as exc:
            report.fatal.append(internal_error_diagnostic("parsing", exc))
            return report
        frontend_errors = [
            d for d in diagnostics if d.severity is Severity.ERROR
        ]
        if frontend_errors:
            report.fatal.extend(frontend_errors)
            report.diagnostics.extend(
                d for d in diagnostics if d.severity is not Severity.ERROR
            )
            return report
        report.diagnostics.extend(diagnostics)
        try:
            inner = check_scope(
                scope,
                limits,
                explain=explain,
                parallel=parallel,
                cache_dir=cache_dir,
                cache_max_bytes=cache_max_bytes,
                job_timeout=job_timeout,
                max_retries=max_retries,
                static_discharge=static_discharge,
                check_discharge=check_discharge,
                run_dir=run_dir,
                resume=resume,
            )
        except ReproError as exc:
            report.fatal.append(diagnostic_from_error(exc))
            return report
        except Exception as exc:
            report.fatal.append(internal_error_diagnostic("checking", exc))
            return report
    inner.diagnostics = report.diagnostics + inner.diagnostics
    return inner
