"""The one job policy of the parallel and fleet backends.

The single-machine :class:`~repro.parallel.supervisor.WorkerSupervisor`
and the socket :class:`~repro.parallel.fleet.FleetCoordinator` run the
same unit of work — one :class:`~repro.parallel.jobs.Job` per
implementation — under the same rules. This module owns those rules;
each executor keeps only its transport (fork/pipe workers and
heartbeats, or sockets, leases and membership) and calls in here for
every lifecycle decision:

* :func:`backoff_delay` — exponential backoff **with deterministic
  jitter**: pure-exponential delays make simultaneously-orphaned jobs
  retry in lockstep (a thundering herd against whatever killed their
  workers); the jitter is derived from a hash of a caller-supplied token
  so runs stay reproducible while distinct jobs spread out;
* :class:`JobPolicy` — the queue of open jobs and the loop's wait hint,
  the injected fault and hard deadline of each attempt, and the four
  outcomes with their journal records: a filed result, a retry or
  ``OL902`` quarantine after a worker death, an ``OL901`` hard timeout,
  and ``OL901`` scope-deadline cancellation in the serial driver's
  wording. Each outcome that decides a job settles it through the
  book (:meth:`~repro.parallel.jobs.JobBook.settle`).

The serial checker never loads this module.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.obs import events as obs_events
from repro.parallel.jobs import Job, JobBook
from repro.parallel.worker import JobRequest
from repro.prover.core import Limits, ProverStats
from repro.testing.faults import (
    record_supervisor_fault,
    supervisor_fault_hits,
)


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


def backoff_delay(base: float, attempt: int, *, token: str = "") -> float:
    """Exponential backoff with deterministic jitter.

    Attempt *n* (1-based) waits ``base * 2**(n-1)``, stretched by up to
    half of itself according to :func:`jitter_fraction` of
    ``token:attempt``.
    """
    delay = base * (2 ** max(attempt - 1, 0))
    # Jitter 0.5: simultaneous worker deaths must not retry in lockstep.
    return delay * (1.0 + 0.5 * jitter_fraction(f"{token}:{attempt}"))


class JobPolicy:
    """The job lifecycle both executors follow, over one job book.

    ``options`` is the executor's :class:`ParallelOptions` or
    :class:`FleetOptions`; the policy reads the fields they share
    (``job_timeout``, ``max_retries``, ``backoff_base``,
    ``poll_interval``). The jobs still open when the policy is made form
    its :attr:`queue`. The executor sets :attr:`tracer` and
    :attr:`parent_span` by opening its pipeline span through
    :meth:`traced`.
    """

    def __init__(
        self,
        jobs: JobBook,
        limits: Optional[Limits],
        options,
        scope_deadline: Optional[float],
        explain: bool = False,
    ):
        self.jobs = jobs
        self.options = options
        self.scope_deadline = scope_deadline
        self.explain = explain
        #: What each attempt runs under: the scope budget is the
        #: policy's to enforce (by cancellation), never a worker's.
        self.job_limits = (
            replace(limits, scope_time_budget=None, scope_deadline=None)
            if limits is not None
            else None
        )
        self.queue: List[Job] = [job for job in jobs if not job.done]
        self._faults = [
            (stage, action, supervisor_fault_hits(stage))
            for stage, action in (
                ("worker-kill", "kill"),
                ("worker-hang", "hang"),
            )
        ]
        self.tracer = None
        self.parent_span: Optional[int] = None

    @contextmanager
    def traced(self, name: str, workers: int) -> Iterator:
        """Open the executor's pipeline span; job spans nest under it."""
        from repro import obs

        with obs.span(
            name, obs.CAT_PIPELINE, jobs=len(self.jobs), workers=workers
        ):
            self.tracer = obs.current()
            if self.tracer is not None:
                self.parent_span = self.tracer.current_index()
            yield self.tracer

    # ------------------------------------------------------------------
    # Queue and timing
    # ------------------------------------------------------------------

    def expired(self, now: float) -> bool:
        """Whether the scope budget has run out."""
        return self.scope_deadline is not None and now >= self.scope_deadline

    def next_eligible(self, now: float) -> Optional[Job]:
        """Pop the first queued job whose retry backoff has elapsed."""
        for index, job in enumerate(self.queue):
            if job.eligible_at <= now and not job.done:
                return self.queue.pop(index)
        return None

    def wait_hint(
        self, now: float, deadlines: Iterable[Optional[float]] = ()
    ) -> float:
        """How long the executor may block before something falls due.

        At most one poll interval, and no later than the scope deadline,
        the end of a queued job's backoff, or any of ``deadlines`` (the
        executor's attempt and lease deadlines).
        """
        due = [d for d in deadlines if d is not None]
        due += [job.eligible_at for job in self.queue if job.eligible_at > now]
        if self.scope_deadline is not None:
            due.append(self.scope_deadline)
        timeout = min([self.options.poll_interval] + [d - now for d in due])
        return max(timeout, 0.001)

    # ------------------------------------------------------------------
    # Attempts
    # ------------------------------------------------------------------

    def begin_attempt(
        self, job: Job, now: float
    ) -> Tuple[JobRequest, Optional[float]]:
        """The request for ``job``'s next attempt, and its hard deadline.

        A first attempt carries the fault the active plan puts on its
        job index (``worker-kill`` before ``worker-hang``), so fault
        placement never depends on which worker takes the job. It asks
        the worker for spans and metrics only under a tracer. The
        deadline is ``now + job_timeout`` only: scope-budget expiry is
        handled by :meth:`cancel`.
        """
        inject = None
        if job.attempts == 0:
            for stage, action, hits in self._faults:
                if job.job_id in hits:
                    inject = action
                    record_supervisor_fault(stage, job.job_id, "raise")
                    break
        request = JobRequest(
            job_id=job.job_id,
            proc_name=job.proc_name,
            impl_index=job.impl_index,
            attempt=job.attempts,
            limits=self.job_limits,
            explain=self.explain,
            inject=inject,
            trace=self.tracer is not None,
        )
        timeout = self.options.job_timeout
        return request, (None if timeout is None else now + timeout)

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------

    def file_result(
        self,
        job: Job,
        result,
        *,
        worker,
        started: float,
        offset: float = 0.0,
        **fields,
    ) -> None:
        """File a worker's :class:`~repro.parallel.worker.JobResult`.

        A job that raised outside the worker's verdict isolation becomes
        an ``INTERNAL_ERROR``/``OL900`` verdict; otherwise the verdict,
        which crossed without its AST, is re-anchored on the parent's
        own ``ImplDecl`` so report identities match the serial driver's
        exactly. Under a tracer the job gets an ``implementation`` span
        from ``started`` (monotonic time; on the platforms workers run
        on ``time.monotonic`` and ``perf_counter`` share
        CLOCK_MONOTONIC), with the worker's own spans grafted beneath
        it, shifted by ``offset`` into this clock, and its metrics
        merged. ``fields`` (a fleet ``lease``) ride on the
        ``impl-checked`` record.
        """
        if result.failure is not None:
            verdict = _verdict(
                job,
                "INTERNAL_ERROR",
                Diagnostic(
                    code="OL900",
                    message="worker job failed internally: "
                    + result.failure.strip().splitlines()[-1],
                    impl=job.impl.name,
                ),
            )
        else:
            verdict = result.verdict
            verdict.impl = job.impl
            job.explain_crash = result.explain_crash
        tracer = self.tracer
        if tracer is not None:
            job_span = tracer.record(
                job.impl.name,
                "implementation",
                started,
                time.perf_counter(),
                parent=self.parent_span,
                args={
                    "worker": worker,
                    "attempt": result.attempt,
                    "status": verdict.status.name.lower(),
                },
            )
            if result.spans:
                tracer.absorb(result.spans, parent=job_span, offset=offset)
            if result.metrics:
                tracer.metrics.merge_dict(result.metrics)
        self.jobs.settle(
            job, verdict, worker=str(worker), attempt=result.attempt, **fields
        )

    def retry_or_quarantine(self, job: Job, reason: str) -> bool:
        """Charge a lost attempt to ``job``; True if it was requeued.

        The job goes back on the queue after a jittered exponential
        backoff, or — with its retries spent — is quarantined as
        ``INTERNAL_ERROR``/``OL902``, naming every death.
        """
        job.attempts += 1
        job.death_reasons.append(reason)
        if job.attempts > self.options.max_retries:
            self._fail(
                job,
                "INTERNAL_ERROR",
                Diagnostic(
                    code="OL902",
                    message=f"worker died {job.attempts} time(s) running "
                    f"this implementation ({'; '.join(job.death_reasons)}); "
                    "job quarantined",
                    impl=job.impl.name,
                ),
                "job-quarantined",
                attempt=job.attempts,
                code="OL902",
            )
            return False
        backoff = backoff_delay(
            self.options.backoff_base, job.attempts, token=f"job{job.job_id}"
        )
        job.eligible_at = time.monotonic() + backoff
        self.queue.append(job)
        obs_events.emit(
            "job-retry",
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            attempt=job.attempts,
            backoff=round(backoff, 6),
            reason=reason,
        )
        return True

    def hard_timeout(self, job: Job, worker, **fields) -> None:
        """``job`` overran its attempt deadline and ``worker`` was killed:
        ``TIMED_OUT``/``OL901``. ``fields`` (a fleet ``lease``) ride on
        the ``job-hard-timeout`` record."""
        if job.done:
            return
        self._fail(
            job,
            "TIMED_OUT",
            Diagnostic(
                code="OL901",
                message=f"hard job timeout ({self.options.job_timeout:.3g}s)"
                " exceeded while this implementation was being checked; "
                f"worker {worker} killed",
                impl=job.impl.name,
            ),
            "job-hard-timeout",
            **fields,
            worker=str(worker),
            code="OL901",
        )

    def cancel(self, inflight: Iterable[Job]) -> None:
        """The scope budget ran out: fail every open job.

        Matches the serial driver's vocabulary: the ``inflight`` jobs
        (the executor has already stopped their workers) report the
        mid-check ``OL901``, every other open job the before-check one.
        """
        from repro.vcgen.checker import _deadline_diagnostic

        for before, jobs in ((False, list(inflight)), (True, self.jobs)):
            for job in jobs:
                if job.done:
                    continue
                self._fail(
                    job,
                    "TIMED_OUT",
                    _deadline_diagnostic(job.impl, before=before),
                    "job-deadline",
                    code="OL901",
                )
        self.queue.clear()

    def _fail(
        self, job: Job, status: str, error: Diagnostic, event: str, **fields
    ) -> None:
        """Decide ``job`` without a prover: its lifecycle record, then
        the settle step for the ``ImplStatus`` named ``status`` with
        diagnostic ``error``."""
        obs_events.emit(
            event,
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            **fields,
        )
        self.jobs.settle(job, _verdict(job, status, error))


def _verdict(job: Job, status: str, error: Diagnostic) -> object:
    """A verdict the policy decides for ``job`` without a prover: the
    ``ImplStatus`` named ``status``, with diagnostic ``error``."""
    from repro.vcgen.checker import ImplStatus, ImplVerdict

    return ImplVerdict(
        impl=job.impl,
        index=job.impl_index,
        status=ImplStatus[status],
        stats=ProverStats(),
        error=error,
    )


def mp_context():
    """The ``multiprocessing`` context workers start in: ``fork`` where
    available (fast, shares the parsed scope), else ``spawn``."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        return multiprocessing.get_context("spawn")
