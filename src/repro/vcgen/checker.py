"""The end-to-end modular checker driver.

``check_scope`` runs the full pipeline the paper's checker implements:

1. well-formedness (self-contained names, acyclic local inclusions);
2. the syntactic pivot-uniqueness restriction;
3. per-implementation VC generation and mechanical proof.

Step 3 is one decide → execute → merge pipeline (``_check_impls``) for
every backend: verdicts that need no prover (static discharge, a
run-ledger replay, a cache hit — in that precedence) are settled first,
only the open jobs reach an executor (inline or the ``-j``
supervisor), and one declaration-order loop builds the report.

Owner exclusion needs no separate pass: it is embedded in every call's
verification condition and assumed on entry via ``Init``.

The driver is fault-tolerant: every implementation is checked in
isolation, so a crash or hang in one VC (the paper itself reports prover
divergence on cyclic rep inclusions) never loses the verdicts of the
others. An unexpected exception becomes an ``INTERNAL_ERROR`` verdict
carrying an ``OL900`` traceback diagnostic; exhausting the shared
``Limits.scope_time_budget`` marks the remaining implementations
``TIMED_OUT`` (``OL901``) instead of starving them silently. The
advisory passes (lint pre-filter, pivot restriction) degrade to an
``OL900`` *warning* when they crash — checking continues. Only genuine
user errors (``WellFormednessError``) still raise.
"""

from __future__ import annotations

import enum
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    internal_error_diagnostic,
)
from repro.errors import WellFormednessError
from repro.obs import events as obs_events
from repro.oolong.ast import ImplDecl
from repro.oolong.contracts import desugar_contracts
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits, ProverStats, Verdict
from repro.record import Record, field, replace
from repro.restrictions.pivot import PivotViolation, check_pivot_uniqueness
from repro.vcgen.vc import vc_for_impl
from repro.vcgen.wlp import ObligationInfo

if TYPE_CHECKING:
    from repro.obs.explain import Explanation


class ImplStatus(enum.Enum):
    """Outcome of checking one implementation."""

    VERIFIED = "verified"
    NOT_PROVED = "not proved"
    RESOURCE_OUT = "resource limit exceeded"
    #: The scope-wide wall-clock budget ran out before (or while) this
    #: implementation was checked.
    TIMED_OUT = "timed out"
    #: VC generation or the prover crashed; the verdict carries an
    #: ``OL900`` diagnostic with the captured traceback.
    INTERNAL_ERROR = "internal error"


class ImplVerdict(Record):
    """The checker's verdict for a single implementation."""

    impl: ImplDecl
    index: int
    status: ImplStatus
    stats: ProverStats
    failed_obligation: Optional[ObligationInfo] = None
    #: For ``INTERNAL_ERROR``/``TIMED_OUT``: the OL9xx detail diagnostic.
    error: Optional[Diagnostic] = None
    #: In explain mode: the blame report (non-proofs) or replayable
    #: proof log (``VERIFIED``) — see :mod:`repro.obs.explain`.
    explanation: Optional["Explanation"] = None

    def __init__(
        self,
        impl,
        index,
        status,
        stats,
        failed_obligation=None,
        error=None,
        explanation=None,
    ):
        self.impl = impl
        self.index = index
        self.status = status
        self.stats = stats
        self.failed_obligation = failed_obligation
        self.error = error
        self.explanation = explanation

    @property
    def ok(self) -> bool:
        return self.status is ImplStatus.VERIFIED

    def describe(self) -> str:
        text = f"impl {self.impl.name}#{self.index}: {self.status.value}"
        if self.failed_obligation is not None:
            text += f" — stuck on {self.failed_obligation}"
        if self.error is not None:
            text += f" — {self.error.message}"
        return text


class CheckReport(Record):
    """Everything ``check_scope`` found.

    ``diagnostics`` holds the lint/inference findings of the static
    analysis pre-filter (``OL110``/``OL2xx``/``OL3xx``), plus ``OL900``
    warnings for advisory passes that crashed. They are advisory: ``ok``
    is decided by the restriction pass, the prover verdicts, and
    ``fatal`` alone (an ``OL301`` missing licence surfaces as a failed
    proof anyway).

    ``fatal`` holds diagnostics for failures that prevented checking
    altogether (frontend errors in resilient parsing, a crashed contract
    desugaring); a report with fatal diagnostics is never ``ok``.
    """

    pivot_violations: List[PivotViolation] = field(default_factory=list)
    verdicts: List[ImplVerdict] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    fatal: List[Diagnostic] = field(default_factory=list)
    elapsed: float = 0.0
    #: Result-cache traffic for this run (hits/misses/stores/rejections),
    #: set when ``cache_dir`` was given. Deliberately *not* part of
    #: ``to_dict``: the report stays byte-identical across cache states
    #: and serial/parallel backends; the CLI exports it separately.
    cache_summary: Optional[dict] = None
    #: Static-discharge tallies (obligations discharged / refuted /
    #: deferred, per-impl outcomes), set when ``static_discharge`` was
    #: enabled. Like ``cache_summary``, *not* part of ``to_dict`` — the
    #: report stays verdict-identical with discharge on or off.
    discharge_summary: Optional[dict] = None
    #: Run-ledger bookkeeping (commits, resumed/stale/skipped records),
    #: set when ``run_dir`` was given. Like the other summaries, *not*
    #: part of ``to_dict`` or ``describe`` — a resumed report must stay
    #: byte-identical to an uninterrupted one; the CLI surfaces recovery
    #: warnings on stderr instead.
    ledger_summary: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return (
            not self.fatal
            and not self.pivot_violations
            and all(v.ok for v in self.verdicts)
        )

    def verdict_for(self, proc_name: str, index: int = 0) -> Optional[ImplVerdict]:
        matching = [v for v in self.verdicts if v.impl.name == proc_name]
        if index < len(matching):
            return matching[index]
        return None

    def describe(self, *, stats: bool = False) -> str:
        """The canonical text report (the CLI prints exactly this).

        ``stats=True`` appends per-implementation prover counters to each
        verdict line.
        """
        lines: List[str] = []
        for diagnostic in self.fatal:
            lines.append(str(diagnostic))
        for violation in self.pivot_violations:
            lines.append(f"restriction violation: {violation}")
        for diagnostic in self.diagnostics:
            lines.append(str(diagnostic))
        for verdict in self.verdicts:
            line = verdict.describe()
            if stats:
                counters = verdict.stats
                line += (
                    f"  [instances={counters.instantiations}"
                    f" branches={counters.branches}"
                    f" rounds={counters.rounds}"
                    f" merges={counters.merges}"
                    f" time={counters.elapsed:.2f}s]"
                )
            lines.append(line)
            if stats and counters.per_quantifier:
                ranked = sorted(
                    counters.per_quantifier.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
                shown = ", ".join(
                    f"{name}={count}" for name, count in ranked[:5]
                )
                more = len(ranked) - 5
                suffix = f" (+{more} more)" if more > 0 else ""
                lines.append(f"    per-quantifier: {shown}{suffix}")
        lines.append("OK" if self.ok else "FAILED")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A machine-readable rendering (used by ``--format json``)."""
        return {
            "ok": self.ok,
            "elapsed": round(self.elapsed, 6),
            "restriction_violations": [
                violation.to_diagnostic().to_dict()
                for violation in self.pivot_violations
            ],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "fatal": [d.to_dict() for d in self.fatal],
            "verdicts": [
                {
                    "impl": verdict.impl.name,
                    "index": verdict.index,
                    "status": verdict.status.value,
                    "failed_obligation": (
                        str(verdict.failed_obligation)
                        if verdict.failed_obligation is not None
                        else None
                    ),
                    "error": (
                        verdict.error.to_dict()
                        if verdict.error is not None
                        else None
                    ),
                    "explanation": (
                        verdict.explanation.to_dict()
                        if verdict.explanation is not None
                        else None
                    ),
                    "stats": verdict.stats.to_dict(),
                }
                for verdict in self.verdicts
            ],
        }


def _deadline_diagnostic(impl: ImplDecl, *, before: bool) -> Diagnostic:
    phase = "before this implementation was checked" if before else (
        "while this implementation was being checked"
    )
    return Diagnostic(
        code="OL901",
        message=f"scope time budget exhausted {phase}",
        impl=impl.name,
    )


def _check_impl(
    scope: Scope,
    impl: ImplDecl,
    index: int,
    limits: Optional[Limits],
    deadline: Optional[float],
    explain: bool = False,
) -> Tuple[ImplVerdict, Optional[Diagnostic]]:
    """Check one implementation in isolation: any crash or overrun is
    converted into a verdict rather than propagated.

    Returns the verdict plus, in explain mode, an optional ``OL900``
    warning when the explainer itself crashed — explanation is advisory,
    so the verdict survives and the crash degrades like the other
    advisory passes.
    """
    if deadline is not None and time.monotonic() >= deadline:
        return (
            ImplVerdict(
                impl=impl,
                index=index,
                status=ImplStatus.TIMED_OUT,
                stats=ProverStats(),
                error=_deadline_diagnostic(impl, before=True),
            ),
            None,
        )
    try:
        bundle = vc_for_impl(scope, impl)
        result = bundle.prove(limits, explain=explain)
        verdict = result.verdict
        stats = result.stats
        error: Optional[Diagnostic] = None
        if verdict is Verdict.UNSAT:
            status = ImplStatus.VERIFIED
        elif verdict is Verdict.SAT:
            status = ImplStatus.NOT_PROVED
        elif deadline is not None and time.monotonic() >= deadline:
            status = ImplStatus.TIMED_OUT
            error = _deadline_diagnostic(impl, before=False)
        else:
            status = ImplStatus.RESOURCE_OUT
        # A resource-out or timed-out branch records the obligation it
        # was working on too (the prover snapshots its markers before
        # giving up), so those verdicts also name a culprit when the
        # markers identify one.
        failed = (
            bundle.failed_obligation(result)
            if status is not ImplStatus.VERIFIED
            else None
        )
        impl_verdict = ImplVerdict(
            impl=impl,
            index=index,
            status=status,
            stats=stats,
            failed_obligation=failed,
            error=error,
        )
        explain_crash: Optional[Diagnostic] = None
        if explain:
            try:
                from repro.obs.explain import attach_to_trace, explain_result

                impl_verdict.explanation = explain_result(
                    scope, impl.name, index, status.value, failed, result
                )
                attach_to_trace(impl_verdict.explanation)
            except Exception as exc:  # advisory: keep the verdict
                explain_crash = internal_error_diagnostic(
                    "verdict explanation",
                    exc,
                    impl=impl.name,
                    severity=Severity.WARNING,
                )
        return impl_verdict, explain_crash
    except Exception as exc:  # crash isolation: never lose the batch
        return (
            ImplVerdict(
                impl=impl,
                index=index,
                status=ImplStatus.INTERNAL_ERROR,
                stats=ProverStats(),
                error=internal_error_diagnostic(
                    "verification", exc, impl=impl.name
                ),
            ),
            None,
        )


def check_scope(
    scope: Scope,
    limits: Optional[Limits] = None,
    *,
    enforce_restrictions: bool = True,
    lint: bool = True,
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
    """Check every implementation in ``scope``.

    ``run_dir`` makes the run crash-safe: every decided verdict is
    fsync'd to a write-ahead ledger (:mod:`repro.parallel.ledger`)
    before the run can report it, so a SIGKILL'd coordinator loses no
    committed work. The verdicts settled without proving (discharge,
    cache hits) become durable together, in one fsync before any
    proving starts; each proved verdict is fsync'd on its own commit.
    ``resume=True`` replays a previous ledger in the
    same directory: records validated against the current scope's
    content keys settle their implementations before any proving (after
    static discharge, ahead of the result cache) and only the remainder
    is re-checked — the resumed report is byte-identical to an
    uninterrupted run. Damaged ledgers degrade (OL905), never crash; the
    ledger is disabled under ``explain=True`` like the result cache.

    ``static_discharge`` is ``"off"`` (the default) or ``"on"``.
    ``"on"`` runs the static discharge pass
    (:mod:`repro.analysis.effects`) ahead of vcgen: implementations whose
    every obligation is statically subsumed in the inclusion lattice skip
    the prover with a ``VERIFIED`` verdict, and statically refuted ones
    skip it with ``NOT_PROVED`` plus an ``OL401`` blame diagnostic;
    everything else reaches the prover unchanged. Discharged verdicts are
    never written to the result cache, and the pass is disabled under
    ``explain=True`` (explanations need a prover run). A crash in the
    pass degrades to an ``OL900`` warning and full proving.

    ``check_discharge=True`` is the differential soundness guard: every
    implementation is still proved, and each prover verdict is compared
    against the discharge prediction — a disagreement is reported as an
    ``OL402`` error. Implies ``static_discharge="on"`` if it was off.

    ``explain=True`` asks the prover to keep its reasoning: failed
    verdicts carry a source-anchored blame report built from the
    refuting branch's countermodel, verified ones a replayable proof
    log (:mod:`repro.obs.explain`). The default path pays nothing.

    ``parallel=N`` proves implementations on ``N`` supervised worker
    processes (:mod:`repro.parallel`): each job gets a **hard**
    wall-clock timeout (``job_timeout`` — the worker is SIGKILLed and
    the verdict is ``TIMED_OUT``/``OL901``), a dead worker's job is
    retried with exponential backoff up to ``max_retries`` times before
    being quarantined as ``INTERNAL_ERROR``/``OL902``, and results merge
    in declaration order — the report is byte-identical to a serial run
    modulo wall-clock fields. ``parallel=None`` (default) checks
    serially in-process; a ``parallel`` below 1 raises ``ValueError``.

    ``cache_dir`` enables the crash-safe incremental result cache
    (:mod:`repro.parallel.cache`): deterministic verdicts are keyed by a
    content hash of (implementation source, scope interface, limits,
    code version) and reused across runs; corrupted or version-skewed
    entries are rejected with an ``OL903`` warning and recomputed. The
    cache works on every backend and is bypassed under ``explain=True``
    (explanations are not cached). ``cache_max_bytes`` bounds the cache
    directory with LRU eviction.

    ``enforce_restrictions=False`` disables the pivot-uniqueness pass (used
    by the baseline experiments that demonstrate why the restriction is
    needed); the VCs are still generated and proved against the full
    background predicate.

    ``lint=True`` (the default) runs the static-analysis pre-filter
    before proving and records its findings in ``report.diagnostics``.
    The passes are pure AST/CFG walks, far below the prover's budget.

    Fault tolerance: ``limits.scope_time_budget`` bounds the whole batch
    (remaining implementations report ``TIMED_OUT``); a crash in VC
    generation or proving yields an ``INTERNAL_ERROR`` verdict for that
    implementation only; a crash in an advisory pass (lint, pivot
    restriction) degrades to an ``OL900`` warning. Ill-formed scopes
    still raise :class:`WellFormednessError` — that is a user error, not
    a pipeline fault.

    Well-formedness: this function decides it, once per check, before
    the ``check-start`` event and before any other pass; callers on the
    check path (``check_program``, ``check_program_resilient``, the CLI,
    ``ModuleSystem.check_module``) do not decide it first, and the lint
    pre-filter runs its passes without a second gate.

    Observability: under an installed tracer (:mod:`repro.obs`) the run
    is covered by a ``check_scope`` root span, per-stage spans at every
    boundary the fault harness names, and per-implementation/per-VC
    child spans; each verdict's ``ProverStats`` is folded into the
    tracer's metrics registry.
    """
    from repro import obs

    if static_discharge not in ("off", "on"):
        raise ValueError(
            f"static_discharge must be 'off' or 'on', "
            f"not {static_discharge!r}"
        )
    if parallel is not None and parallel < 1:
        raise ValueError(f"parallel must be at least 1, not {parallel!r}")
    if check_discharge and static_discharge == "off":
        static_discharge = "on"

    with obs.span("check_scope", obs.CAT_PIPELINE):
        start = time.monotonic()
        if (
            limits is not None
            and limits.scope_time_budget is not None
            and limits.scope_deadline is None
        ):
            limits = replace(
                limits, scope_deadline=start + limits.scope_time_budget
            )
        deadline = limits.scope_deadline if limits is not None else None

        # The one well-formedness decision of a check, made before the
        # run is announced: an ill-formed scope raises here and journals
        # no check-start.
        report = CheckReport()
        try:
            check_well_formed(scope)
        except WellFormednessError:
            raise
        except Exception as exc:
            # The pass itself died (not the scope): warn and keep checking —
            # per-impl isolation contains any knock-on failures.
            report.diagnostics.append(
                internal_error_diagnostic(
                    "well-formedness checking", exc, severity=Severity.WARNING
                )
            )

        obs_events.emit(
            "check-start",
            impls=sum(len(impls) for impls in scope.impls.values()),
            backend="parallel" if parallel is not None else "serial",
        )
        if lint:
            from repro.analysis.engine import lint_well_formed

            # The syntactic restriction family is reported separately below;
            # the flow-sensitive escape pass follows the restriction switch.
            try:
                result = lint_well_formed(
                    scope,
                    include_restrictions=False,
                    include_flow=enforce_restrictions,
                )
                report.diagnostics.extend(list(result.diagnostics))
            except Exception as exc:
                report.diagnostics.append(
                    internal_error_diagnostic(
                        "lint pre-filter", exc, severity=Severity.WARNING
                    )
                )
        try:
            scope = desugar_contracts(scope)
        except Exception as exc:
            report.fatal.append(
                internal_error_diagnostic("contract desugaring", exc)
            )
            report.elapsed = time.monotonic() - start
            obs_events.emit(
                "check-end", ok=report.ok, impls=len(report.verdicts)
            )
            return report
        if enforce_restrictions:
            try:
                report.pivot_violations = list(check_pivot_uniqueness(scope))
            except Exception as exc:
                report.diagnostics.append(
                    internal_error_diagnostic(
                        "pivot restriction pass",
                        exc,
                        severity=Severity.WARNING,
                    )
                )
        discharge = None
        if static_discharge != "off" and not explain:
            # Explain runs want the prover's reasoning; a discharged verdict
            # has none to offer, so the pass is bypassed entirely.
            from repro.analysis.effects import discharge_scope

            try:
                with obs.span("discharge", obs.CAT_PIPELINE):
                    discharge = discharge_scope(scope)
            except Exception as exc:
                report.diagnostics.append(
                    internal_error_diagnostic(
                        "static discharge", exc, severity=Severity.WARNING
                    )
                )
            if discharge is not None:
                report.discharge_summary = discharge.summary_dict()
                report.discharge_summary["checked"] = check_discharge
                _record_discharge_metrics(discharge)

        cache = None
        if cache_dir is not None and not explain:
            # Explain runs bypass the cache: explanations are never cached,
            # so a hit would silently drop the requested blame report.
            from repro.parallel.cache import ResultCache

            cache = ResultCache(cache_dir, max_bytes=cache_max_bytes)

        ledger = None
        if run_dir is not None and not explain:
            # The ledger shares the cache's explain bypass: explanations are
            # never persisted, so a replayed verdict would silently drop the
            # requested blame report.
            from repro.parallel.ledger import RunLedger

            journal = obs_events.journal()
            try:
                ledger = RunLedger(
                    run_dir,
                    scope,
                    limits,
                    resume=resume,
                    run_id=journal.run_id if journal is not None else None,
                )
            except OSError as exc:
                report.diagnostics.append(
                    _ledger_degraded_diagnostic(
                        f"run ledger unusable in {run_dir!r} ({exc})"
                    )
                )
            if ledger is not None:
                if ledger.discarded is not None:
                    report.diagnostics.append(
                        _ledger_degraded_diagnostic(
                            f"run ledger discarded ({ledger.discarded})"
                        )
                    )

        _check_impls(
            scope,
            limits,
            deadline,
            report,
            parallel=parallel,
            cache=cache,
            ledger=ledger,
            job_timeout=job_timeout,
            max_retries=max_retries,
            explain=explain,
            discharge=discharge,
            check_discharge=check_discharge,
        )
        if ledger is not None:
            report.ledger_summary = ledger.summary()
            report.ledger_summary["warnings"] = [
                f"{where}: {reason}" for where, reason in ledger.warnings
            ]
            ledger.close()
        if cache is not None:
            report.diagnostics.extend(_cache_rejection_diagnostics(cache))
            report.cache_summary = cache.summary()
        report.elapsed = time.monotonic() - start
        obs_events.emit("check-end", ok=report.ok, impls=len(report.verdicts))
        return report


def _ledger_degraded_diagnostic(
    detail: str, consequence: str = "all implementations re-checked"
) -> Diagnostic:
    # The whole-ledger failure paths (unusable directory, header skew,
    # a commit that failed to write): routine recovery (torn tail,
    # stale records) stays out of the report so resumed output is
    # byte-identical to an uninterrupted run; only "your durability is
    # gone / everything re-checks" earns a report-level warning.
    obs_events.emit("ledger-skip", reason=detail, code="OL905")
    return Diagnostic(
        code="OL905",
        message=f"{detail}; {consequence}",
        severity=Severity.WARNING,
    )


#: The counter each up-front settlement feeds instead of the prover
#: stats: cached and replayed stats describe work a *previous* run did,
#: and a discharged verdict had no prover run at all.
_SETTLED_COUNTERS = {
    "discharged": "checker.discharged",
    "preresolved": "checker.resumed",
    "cache_hit": "checker.cache_hits",
}


def _record_verdict_metrics(verdict: ImplVerdict, source: Optional[str]) -> None:
    from repro import obs

    registry = obs.metrics()
    if registry is None:
        return
    if source is None:
        registry.record_prover_stats(verdict.stats)
    else:
        registry.inc(_SETTLED_COUNTERS[source])
    registry.inc("checker.impls")
    registry.inc(f"checker.status.{verdict.status.name.lower()}")


def _record_discharge_metrics(discharge) -> None:
    from repro import obs

    registry = obs.metrics()
    if registry is None:
        return
    obligations = discharge.obligation_counts()
    registry.inc(
        "discharge.obligations_discharged", obligations["static-valid"]
    )
    registry.inc(
        "discharge.obligations_refuted", obligations["static-violation"]
    )
    registry.inc("discharge.obligations_deferred", obligations["unknown"])
    impls = discharge.impl_counts()
    registry.inc("discharge.impls_discharged", impls["static-valid"])
    registry.inc("discharge.impls_refuted", impls["static-violation"])
    registry.inc("discharge.impls_deferred", impls["unknown"])


def _discharged_verdict(impl: ImplDecl, index: int, entry) -> ImplVerdict:
    """The verdict a discharge outcome predicts, with empty prover stats
    (no prover ran)."""
    from repro.analysis.effects import Outcome

    if entry.outcome is Outcome.STATIC_VALID:
        return ImplVerdict(
            impl=impl,
            index=index,
            status=ImplStatus.VERIFIED,
            stats=ProverStats(),
        )
    assert entry.outcome is Outcome.STATIC_VIOLATION
    return ImplVerdict(
        impl=impl,
        index=index,
        status=ImplStatus.NOT_PROVED,
        stats=ProverStats(),
        failed_obligation=entry.blame.obligation,
    )


def _discharge_entry(discharge, impl: ImplDecl, index: int):
    """The actionable discharge entry for one implementation, if any."""
    if discharge is None:
        return None
    from repro.analysis.effects import Outcome

    entry = discharge.impls.get((impl.name, index))
    if entry is None or entry.outcome is Outcome.UNKNOWN:
        return None
    return entry


def _emit_discharge_findings(report: CheckReport, discharge, entry) -> None:
    """The OL401 diagnostics for a statically refuted implementation."""
    from repro.analysis.effects import Outcome, violation_diagnostic

    if entry.outcome is not Outcome.STATIC_VIOLATION:
        return
    report.diagnostics.append(
        violation_diagnostic(discharge.scope, entry, entry.blame)
    )


def _compare_discharge(
    report: CheckReport, discharge, entry, verdict: ImplVerdict
) -> None:
    """``--check-discharge``: diff one prover verdict against the static
    prediction. Non-terminal prover outcomes (timeouts, resource
    exhaustion, crashes) are not semantic disagreements — the prover
    never answered — and are skipped."""
    from repro.analysis.effects import Outcome

    predicted = (
        ImplStatus.VERIFIED
        if entry.outcome is Outcome.STATIC_VALID
        else ImplStatus.NOT_PROVED
    )
    if verdict.status not in (ImplStatus.VERIFIED, ImplStatus.NOT_PROVED):
        return
    if verdict.status is predicted:
        if report.discharge_summary is not None:
            report.discharge_summary["agreements"] = (
                report.discharge_summary.get("agreements", 0) + 1
            )
        _emit_discharge_findings(report, discharge, entry)
        return
    if report.discharge_summary is not None:
        report.discharge_summary["disagreements"] = (
            report.discharge_summary.get("disagreements", 0) + 1
        )
    report.diagnostics.append(
        Diagnostic(
            code="OL402",
            message=(
                f"static discharge predicted {predicted.value!r} for "
                f"impl {verdict.impl.name}#{verdict.index} but the "
                f"prover returned {verdict.status.value!r}"
            ),
            impl=verdict.impl.name,
        )
    )


def _check_impls(
    scope: Scope,
    limits: Optional[Limits],
    deadline: Optional[float],
    report: CheckReport,
    *,
    parallel: Optional[int],
    cache,
    ledger,
    job_timeout: Optional[float],
    max_retries: int,
    explain: bool,
    discharge,
    check_discharge: bool,
) -> None:
    """The one check pipeline behind every backend: decide, execute,
    merge.

    Modular soundness makes each implementation's verdict independent
    of the others, so a verdict can be settled before any proving:

    1. **Decide** — build the job book once and settle what needs no
       prover, in one fixed precedence: static discharge, then ledger
       replay, then cache hit.
    2. **Execute** — run only the still-open jobs on one executor: an
       inline loop (serial) or the ``-j`` supervisor.
    3. **Merge** — one declaration-order loop reports every verdict with
       its discharge findings and metrics.

    The job book carries the result cache and the run ledger, so every
    decided verdict, whichever step decides it, takes the book's one
    settle step (:meth:`~repro.parallel.jobs.JobBook.settle`): commit to
    the ledger, store a fresh verdict in the cache, emit
    ``impl-checked``.
    """
    from repro.parallel.jobs import build_jobs

    book = build_jobs(scope, cache=cache, ledger=ledger)
    with ledger.settled_batch() if ledger is not None else nullcontext():
        _decide(
            scope,
            limits,
            book,
            resumed=ledger.preloaded if ledger is not None else {},
            discharge=discharge if not check_discharge else None,
        )
    if not all(job.done for job in book):
        _execute(
            scope,
            limits,
            deadline,
            book,
            parallel=parallel,
            job_timeout=job_timeout,
            max_retries=max_retries,
            explain=explain,
        )
    report.diagnostics.extend(book.diagnostics)
    for job in book:
        if job.explain_crash is not None:
            report.diagnostics.append(job.explain_crash)
        entry = _discharge_entry(discharge, job.impl, job.impl_index)
        if entry is not None:
            # Outside --check-discharge every job with an entry was
            # settled by it in the decide step.
            if job.source == "discharged":
                _emit_discharge_findings(report, discharge, entry)
            else:
                _compare_discharge(report, discharge, entry, job.verdict)
        _record_verdict_metrics(job.verdict, job.source)
        report.verdicts.append(job.verdict)
        if ledger is not None:
            ledger.merge_chaos_point()


def _decide(scope: Scope, limits, book, *, resumed, discharge) -> None:
    """Settle every job that needs no prover, marking how on
    ``job.source`` (the ``impl-checked`` flag it is announced with).

    Settled verdicts are served even past the scope deadline: the work
    was already paid for. ``discharge`` is None under
    ``--check-discharge``, where every implementation still reaches the
    prover.
    """
    from repro import obs

    cache = book.cache
    if cache is not None:
        from repro.parallel.cache import cache_key, payload_to_verdict

    tracer = obs.current()
    for job in book:
        slot = (job.proc_name, job.impl_index)
        entry = _discharge_entry(discharge, job.impl, job.impl_index)
        if entry is not None:
            verdict = _discharged_verdict(job.impl, job.impl_index, entry)
            source = "discharged"
        elif slot in resumed:
            verdict, source = resumed[slot], "preresolved"
        elif cache is not None:
            if job.key is None:
                job.key = cache_key(scope, job.impl, job.impl_index, limits)
            payload = cache.load(job.key)
            if payload is None:
                continue
            verdict = payload_to_verdict(payload, job.impl, job.impl_index)
            source = "cache_hit"
        else:
            continue
        if source != "discharged" and verdict.failed_obligation is not None:
            _reanchor_failure(scope, verdict)
        book.settle(job, verdict, source=source)
        if tracer is not None:
            now = time.perf_counter()
            tracer.record(
                job.impl.name,
                obs.CAT_IMPL,
                now,
                now,
                parent=tracer.current_index(),
                args={
                    job.source: True,
                    "status": job.verdict.status.name.lower(),
                },
            )


def _reanchor_failure(scope: Scope, verdict: ImplVerdict) -> None:
    """Take a replayed or cached verdict's failed obligation from
    ``scope``.

    The decoded obligation describes the run that proved it, and the
    cache key and ledger record bind the implementation's text, not
    where it sits: the same body moved to another file or line hits the
    same entry. The obligation is found again by its ident, which
    numbers the implementation's obligations as wlp and the site list
    (:attr:`~repro.analysis.facts.ImplFacts.sites`) both do.
    """
    from repro.analysis.facts import impl_facts

    sites = impl_facts(scope, verdict.impl).sites
    ident = verdict.failed_obligation.ident
    if 0 <= ident < len(sites):
        verdict.failed_obligation = sites[ident].info


def _execute(
    scope: Scope,
    limits: Optional[Limits],
    deadline: Optional[float],
    book,
    *,
    parallel: Optional[int],
    job_timeout: Optional[float],
    max_retries: int,
    explain: bool,
) -> None:
    """Run the book's open jobs inline, or on the ``-j`` supervisor."""
    if parallel is not None:
        from repro.parallel.supervisor import (
            ParallelOptions,
            run_parallel_checks,
        )

        run_parallel_checks(
            scope,
            limits,
            options=ParallelOptions(
                jobs=parallel,
                job_timeout=job_timeout,
                max_retries=max_retries,
            ),
            explain=explain,
            scope_deadline=deadline,
            book=book,
        )
        return

    for job in book:
        if not job.done:
            verdict, job.explain_crash = _check_impl(
                scope, job.impl, job.impl_index, limits, deadline, explain
            )
            book.settle(job, verdict)


def _cache_rejection_diagnostics(cache) -> List[Diagnostic]:
    """One ``OL903`` warning per rejected cache entry — rejected entries
    are recomputed, never trusted, but the user should know their cache
    is rotting (disk fault, version skew, concurrent writer)."""
    return [
        Diagnostic(
            code="OL903",
            message=(
                f"cache entry {key[:12]}… rejected ({reason}); "
                "verdict recomputed"
            ),
            severity=Severity.WARNING,
        )
        for key, reason in cache.rejections
    ]
