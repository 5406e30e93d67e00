"""The shared job/lease protocol of the parallel and fleet backends.

Both the single-machine :class:`~repro.parallel.supervisor.WorkerSupervisor`
and the socket :class:`~repro.parallel.fleet.FleetCoordinator` schedule the
same unit of work — one per-implementation proof obligation — and enforce
the same failure policy on it: retries with exponential backoff after a
worker death, quarantine (``OL902``) after the retry budget is exhausted,
and the hard-timeout / scope-deadline vocabulary (``OL901``). This module
holds the pieces they share, so the two backends cannot drift apart:

* :class:`Job` — the per-implementation bookkeeping record (attempt
  counter, backoff eligibility, death history, final verdict);
* :func:`build_jobs` — jobs in the serial driver's iteration order (the
  declaration order every backend's merged report must follow). The
  checker builds this *job book* once, settles what it can before any
  proving, and hands the same book to whichever executor runs the rest;
* :func:`backoff_delay` — exponential backoff **with deterministic
  jitter**: pure-exponential delays make simultaneously-orphaned jobs
  retry in lockstep (a thundering herd against whatever killed their
  workers); the jitter is derived from a hash of a caller-supplied token
  so runs stay reproducible while distinct jobs spread out;
* the verdict builders for the shared failure outcomes: worker failure,
  quarantine, hard timeout, and scope-deadline cancellation, plus
  :func:`apply_result`, which files a worker's result on its job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.oolong.ast import ImplDecl
from repro.oolong.program import Scope
from repro.prover.core import ProverStats


@dataclass
class Job:
    """One per-implementation proof obligation in a backend's book."""

    job_id: int
    proc_name: str
    impl_index: int
    impl: ImplDecl
    key: Optional[str] = None
    attempts: int = 0
    #: Earliest monotonic time the next attempt may be scheduled
    #: (exponential backoff + jitter after a worker death).
    eligible_at: float = 0.0
    death_reasons: List[str] = field(default_factory=list)
    # Filled when the job completes:
    verdict: Optional[object] = None
    explain_crash: Optional[Diagnostic] = None
    #: How the checker settled the job before any executor ran it —
    #: ``"discharged"``, ``"preresolved"`` (a run-ledger replay) or
    #: ``"cache_hit"``, the ``impl-checked`` flag it is announced with —
    #: or None for a verdict an executor produced.
    source: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.verdict is not None


def build_jobs(
    scope: Scope,
    preresolved: Optional[Dict[Tuple[str, int], object]] = None,
) -> List[Job]:
    """The proof jobs in the serial driver's iteration order.

    Jobs named in ``preresolved`` (keyed ``(proc_name, index)``) start
    out done with that verdict; executors leave them alone.
    """
    preresolved = preresolved or {}
    jobs: List[Job] = []
    for proc_name, impls in scope.impls.items():
        for index, impl in enumerate(impls):
            jobs.append(
                Job(
                    job_id=len(jobs),
                    proc_name=proc_name,
                    impl_index=index,
                    impl=impl,
                    verdict=preresolved.get((proc_name, index)),
                )
            )
    return jobs


def jitter_fraction(token: str) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` for ``token``.

    Hash-derived rather than ``random``-derived so backoff schedules are
    reproducible run to run (and in seeded fault-injection tests) while
    still differing *between* jobs and attempts — which is the point of
    jitter: two jobs orphaned by the same worker death must not retry at
    the same instant forever.
    """
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def backoff_delay(
    base: float, attempt: int, *, jitter: float = 0.5, token: str = ""
) -> float:
    """Exponential backoff with deterministic jitter.

    Attempt *n* (1-based) waits ``base * 2**(n-1)``, stretched by up to
    ``jitter`` (a fraction of itself) according to
    :func:`jitter_fraction` of ``token:attempt``.
    """
    delay = base * (2 ** max(attempt - 1, 0))
    if jitter <= 0:
        return delay
    return delay * (1.0 + jitter * jitter_fraction(f"{token}:{attempt}"))


def apply_result(job: Job, result) -> None:
    """File a worker's :class:`~repro.parallel.worker.JobResult` on ``job``.

    A job that raised outside the worker's verdict isolation becomes an
    ``INTERNAL_ERROR``/``OL900`` verdict; otherwise the pickled verdict
    is re-anchored on the parent's own AST object so report identities
    match the serial driver's exactly.
    """
    if result.failure is not None:
        job.verdict = failure_verdict(job, result.failure)
        return
    verdict = result.verdict
    verdict.impl = job.impl
    job.verdict = verdict
    job.explain_crash = result.explain_crash


def failure_verdict(job: Job, failure: str) -> object:
    """The ``INTERNAL_ERROR``/``OL900`` verdict for a job that failed
    inside the worker (``failure`` is the worker-side traceback)."""
    from repro.vcgen.checker import ImplStatus, ImplVerdict

    return ImplVerdict(
        impl=job.impl,
        index=job.impl_index,
        status=ImplStatus.INTERNAL_ERROR,
        stats=ProverStats(),
        error=Diagnostic(
            code="OL900",
            message=(
                "worker job failed internally: "
                + failure.strip().splitlines()[-1]
            ),
            impl=job.impl.name,
        ),
    )


def quarantine_verdict(job: Job) -> object:
    """The ``INTERNAL_ERROR``/``OL902`` verdict for an exhausted job."""
    from repro.vcgen.checker import ImplStatus, ImplVerdict

    history = "; ".join(job.death_reasons)
    return ImplVerdict(
        impl=job.impl,
        index=job.impl_index,
        status=ImplStatus.INTERNAL_ERROR,
        stats=ProverStats(),
        error=Diagnostic(
            code="OL902",
            message=(
                f"worker died {job.attempts} time(s) running this "
                f"implementation ({history}); job quarantined"
            ),
            impl=job.impl.name,
        ),
    )


def hard_timeout_verdict(job: Job, detail: str) -> object:
    """The ``TIMED_OUT``/``OL901`` verdict for a hard-timeout overrun."""
    from repro.vcgen.checker import ImplStatus, ImplVerdict

    return ImplVerdict(
        impl=job.impl,
        index=job.impl_index,
        status=ImplStatus.TIMED_OUT,
        stats=ProverStats(),
        error=Diagnostic(
            code="OL901",
            message=detail,
            impl=job.impl.name,
        ),
    )


def deadline_verdict(job: Job, *, before: bool) -> object:
    """The scope-budget cancellation verdict, matching the serial driver's
    before/mid-check ``OL901`` vocabulary exactly."""
    from repro.vcgen.checker import (
        ImplStatus,
        ImplVerdict,
        _deadline_diagnostic,
    )

    return ImplVerdict(
        impl=job.impl,
        index=job.impl_index,
        status=ImplStatus.TIMED_OUT,
        stats=ProverStats(),
        error=_deadline_diagnostic(job.impl, before=before),
    )
