"""The supervised multi-process checking backend: the ``-j`` executor.

``check_scope(parallel=N)`` hands the open jobs of its job book to a
:class:`WorkerSupervisor`, which runs them on a pool of process-isolated
workers (:mod:`repro.parallel.worker`), each a forked child on one end of
a duplex pipe with a heartbeat stamped into shared memory. The
supervisor spawns and reaps workers, ships requests and receives
results, and detects what the cooperative serial driver cannot:

* a **dead worker** — a nonzero exit, a killing signal, a closed pipe or
  a stale heartbeat (a frozen interpreter);
* an **attempt past its hard deadline** — a runaway quantifier loop that
  never reaches a cooperative poll point is SIGKILLed;
* an **expired scope budget** — every worker is killed within one poll
  interval, instead of waiting for each to notice.

It also decides what follows, with a journal record for each outcome: a
filed result; a retry after a jittered exponential backoff
(:func:`backoff_delay`), or ``OL902`` quarantine once the retries are
spent; an ``OL901`` hard timeout; or cancellation in the serial
driver's ``OL901`` wording. A job that was never accepted because its
worker died first counts as a death. Every outcome that decides a job
settles it through the book (:meth:`repro.parallel.jobs.JobBook.settle`).

Determinism: results are merged in *job order* (declaration order of the
implementations — the exact order the serial driver uses), so the
rendered report is independent of scheduling, worker count, and
completion order; ``CheckReport.to_dict`` is byte-identical to a serial
run modulo wall-clock fields. Injected worker faults are placed by job
index, never by which worker takes the job.

The supervisor runs the jobs of the book it is given that are still
open. Deciding jobs up front (static discharge, ledger replay, cache
hits) and storing fresh verdicts in the result cache are the checker's
business (:mod:`repro.vcgen.checker`).

Warm workers: before the first fork the supervisor prepares the
scope's prover background (BP_D asserted on top of the process's UBP,
which is prepared first if it is not yet, every quantifier's matchers
compiled; :meth:`repro.prover.core.Background.prepare`), so each forked
worker resumes from that state instead of building it again.

Observability: under an installed event journal the supervisor records
one ``supervisor`` pipeline span and one implementation span per attempt
— filed, killed at its hard timeout or the scope deadline, or lost with
its worker — carrying ``worker``/``attempt`` args and a ``status`` or
an ``error``. Under a filed attempt's span it grafts the records the
worker journaled for the job (vcgen/prove stage spans with their per-VC
children), so ``--trace``/``--profile`` cover parallel runs end to
end. Workers journal a job, and ship its records, only when the parent
journals: an unjournaled check's results carry none. The serial checker
never loads this module.
"""

from __future__ import annotations

import hashlib
import os
import time
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.obs import events as obs_events
from repro.oolong.program import Scope
from repro.parallel.jobs import Job as _Job, JobBook, build_jobs
from repro.parallel.worker import (
    HEARTBEAT_INTERVAL,
    JobRequest,
    JobResult,
    worker_main,
)
from repro.prover.core import Limits, ProverStats
from repro.record import Record, replace
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


class ParallelOptions(Record, frozen=True):
    """Supervision policy for one parallel ``check_scope`` run."""

    #: Worker process count (the ``-j`` of the CLI).
    jobs: int = 2
    #: Hard wall-clock budget per job attempt; exceeded → the worker is
    #: SIGKILLed and the job records ``TIMED_OUT``/``OL901``. ``None``
    #: bounds attempts only by the scope budget (if any).
    job_timeout: Optional[float] = None
    #: Retries after a worker death before the job is quarantined as
    #: ``INTERNAL_ERROR``/``OL902``.
    max_retries: int = 2
    #: Base of the exponential retry backoff (seconds): attempt *n*
    #: waits ``backoff_base * 2**(n-1)``, stretched by a deterministic
    #: jitter (see :func:`backoff_delay`).
    backoff_base: float = 0.05
    #: A worker whose heartbeat is older than this while a job is
    #: running is considered dead (frozen interpreter) and killed.
    heartbeat_timeout: float = 2.0
    #: Supervision loop tick; bounds scope-budget overshoot and
    #: timeout-detection latency.
    poll_interval: float = 0.05


class _WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, context, worker_id: int, scope: Scope):
        self.worker_id = worker_id
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.heartbeat = context.Value("d", time.monotonic(), lock=False)
        self.process = context.Process(
            target=worker_main,
            args=(
                child_conn,
                self.heartbeat,
                scope,
                worker_id,
                os.getpid(),
            ),
            name=f"oolong-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.job: Optional[_Job] = None
        self.job_started: float = 0.0
        self.job_deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.job is None

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker and reap it; idempotent."""
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Ask an idle worker to exit (the ``None`` sentinel)."""
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass

    def reap(self) -> None:
        """Wait for a stopped worker to exit; kill it if it does not."""
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class ParallelOutcome(Record):
    """What the supervisor hands back to the checker driver."""

    #: Jobs in declaration order, each carrying its verdict (always
    #: present on return) and optional advisory explain-crash.
    jobs: List[_Job]


#: How long a worker whose pipe closed mid-job is given to exit before
#: its death is worded as a lost connection.
_REAP_GRACE = 1.0


def _death_reason(process, *, pipe_closed: bool = False) -> str:
    """How a worker process died, worded the same whichever way the
    supervisor noticed: ``exit code N`` or ``killed by signal N``.

    A closed pipe is read before the child is reaped, so it waits up to
    :data:`_REAP_GRACE` for the exit status first, and says ``connection
    lost`` only if the child is still alive then.
    """
    if pipe_closed:
        process.join(timeout=_REAP_GRACE)
    code = process.exitcode
    if code is None:
        return "connection lost"
    return f"exit code {code}" if code >= 0 else f"killed by signal {-code}"


def _mp_context():
    """The ``multiprocessing`` context workers start in: ``fork`` where
    available (fast, shares the parsed scope), else ``spawn``."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        return multiprocessing.get_context("spawn")


class WorkerSupervisor:
    """Runs the open jobs of a job book on supervised pipe workers, and
    decides each job's outcome."""

    def __init__(
        self,
        scope: Scope,
        limits: Optional[Limits],
        *,
        options: ParallelOptions,
        explain: bool = False,
        scope_deadline: Optional[float] = None,
        book: JobBook,
    ):
        self.scope = scope
        self.options = options
        self.explain = explain
        self.scope_deadline = scope_deadline
        #: The job book; jobs already done when the run starts are left
        #: as they are.
        self.jobs = book
        #: What each attempt runs under: the scope budget is the
        #: supervisor's to enforce (by cancellation), never a worker's.
        self.job_limits = (
            replace(limits, scope_time_budget=None, scope_deadline=None)
            if limits is not None
            else None
        )
        #: The open jobs waiting for a worker, in book order; a retried
        #: job rejoins at the end.
        self.queue: List[_Job] = [job for job in book if not job.done]
        self._faults = [
            (stage, action, supervisor_fault_hits(stage))
            for stage, action in (
                ("worker-kill", "kill"),
                ("worker-hang", "hang"),
            )
        ]
        #: The journal, and the id of the ``supervisor`` span job spans
        #: nest under.
        self.journal = None
        self.parent_span: Optional[int] = None
        self.workers: List[_WorkerHandle] = []
        self._context = _mp_context()
        self._next_worker_id = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self) -> ParallelOutcome:
        from repro import obs

        with obs.span(
            "supervisor",
            obs.CAT_PIPELINE,
            jobs=len(self.jobs),
            workers=self.options.jobs,
        ) as span:
            self.journal = obs.journal()
            self.parent_span = span.id
            try:
                if self.queue:
                    self._prepare_background()
                    self._supervise()
            finally:
                self._shutdown_workers()
        return ParallelOutcome(jobs=self.jobs)

    def _prepare_background(self) -> None:
        """Prepare the scope's prover background before the first fork,
        so every worker resumes from the E-graph and compiled matchers
        it inherits rather than asserting UBP or BP_D itself.

        The prepare runs under a job's time budget and the scope
        deadline. If it runs out or raises, it stores nothing and each
        worker prepares its own, as the first job there would anyway:
        a failure then becomes that job's verdict, as in a serial check.
        """
        if self._context.get_start_method() != "fork":
            return  # a pickled scope leaves its background behind
        from repro.vcgen.vc import scope_background_of

        limits = replace(
            self.job_limits or Limits(), scope_deadline=self.scope_deadline
        )
        try:
            scope_background_of(self.scope).prepare(limits)
        except Exception:
            pass  # each job meets it again in its worker and reports it

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------

    def _supervise(self) -> None:
        queue = self.queue
        while True:
            now = time.monotonic()
            if self.scope_deadline is not None and now >= self.scope_deadline:
                self._cancel_everything()
                return
            self._police(now)
            self._ensure_workers(len(queue))

            # Assign eligible jobs to idle workers.
            for worker in self.workers:
                if not queue:
                    break
                if not worker.idle or not worker.alive():
                    continue
                job = self._next_eligible(now)
                if job is None:
                    break
                self._assign(worker, job, now)

            busy = [w for w in self.workers if not w.idle]
            if not queue and not busy:
                return

            ready = connection_wait(
                [w.conn for w in self.workers if not w.conn.closed],
                timeout=self._wait_hint(now, busy),
            )
            for conn in ready:
                worker = next(
                    (w for w in self.workers if w.conn is conn), None
                )
                if worker is not None:
                    self._drain(worker)

    def _next_eligible(self, now: float) -> Optional[_Job]:
        """Pop the first queued job whose retry backoff has elapsed."""
        for index, job in enumerate(self.queue):
            if job.eligible_at <= now and not job.done:
                return self.queue.pop(index)
        return None

    def _wait_hint(self, now: float, busy: List[_WorkerHandle]) -> float:
        """How long the loop may block before something falls due: at
        most one poll interval, and no later than the scope deadline,
        the end of a queued job's backoff, or a ``busy`` worker's
        attempt deadline."""
        due = [w.job_deadline for w in busy if w.job_deadline is not None]
        due += [job.eligible_at for job in self.queue if job.eligible_at > now]
        if self.scope_deadline is not None:
            due.append(self.scope_deadline)
        timeout = min([self.options.poll_interval] + [d - now for d in due])
        return max(timeout, 0.001)

    def _ensure_workers(self, queued: int) -> None:
        self.workers = [w for w in self.workers if not w.conn.closed]
        alive = [w for w in self.workers if w.alive() or not w.idle]
        busy = sum(1 for w in alive if not w.idle)
        target = min(self.options.jobs, busy + queued)
        while len(alive) < target:
            handle = _WorkerHandle(
                self._context, self._next_worker_id, self.scope
            )
            self._next_worker_id += 1
            self.workers.append(handle)
            alive.append(handle)
            obs_events.emit(
                "worker-spawn",
                worker=str(handle.worker_id),
                pid=handle.process.pid,
            )

    def _assign(self, worker: _WorkerHandle, job: _Job, now: float) -> None:
        """Send ``job``'s next attempt to ``worker``.

        A first attempt carries the fault the active plan puts on its
        job index (``worker-kill`` before ``worker-hang``), so fault
        placement never depends on which worker takes the job. It asks
        the worker for its journal records only under a journal. The
        attempt's hard deadline is ``now + job_timeout`` only:
        scope-budget expiry is handled by :meth:`_cancel_everything`.
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
            journal=self.journal is not None,
        )
        worker.job = job
        worker.job_started = now
        try:
            worker.conn.send(request)
        except (OSError, ValueError, BrokenPipeError):
            # The worker died between spawn and first send; treat like a
            # mid-job death so the retry accounting stays uniform.
            self._worker_died(worker, "died before accepting the job")
            return
        obs_events.emit(
            "job-assigned",
            job=job.job_id,
            worker=str(worker.worker_id),
            attempt=job.attempts,
            impl=job.impl.name,
            index=job.impl_index,
        )
        timeout = self.options.job_timeout
        worker.job_deadline = None if timeout is None else now + timeout
        worker.heartbeat.value = time.monotonic()

    # ------------------------------------------------------------------
    # Results, deaths, and timeouts
    # ------------------------------------------------------------------

    def _drain(self, worker: _WorkerHandle) -> None:
        try:
            result: JobResult = worker.conn.recv()
        except (EOFError, OSError):
            if worker.job is not None:
                self._worker_died(
                    worker, _death_reason(worker.process, pipe_closed=True)
                )
            else:
                # An idle worker died; just reap it. Replacements are
                # spawned on demand by _ensure_workers.
                worker.kill()
            return
        job = worker.job
        if job is None or result.job_id != job.job_id:
            return  # stale result from a superseded attempt
        self._file_result(job, result, worker)
        worker.job = None
        worker.job_deadline = None

    def _file_result(
        self, job: _Job, result: JobResult, worker: _WorkerHandle
    ) -> None:
        """File the :class:`~repro.parallel.worker.JobResult` ``worker``
        sent for ``job``.

        A job that raised outside the worker's verdict isolation becomes
        an ``INTERNAL_ERROR``/``OL900`` verdict; otherwise the verdict,
        which crossed without its AST, is re-anchored on the parent's
        own ``ImplDecl`` so report identities match the serial driver's
        exactly. Under a journal the attempt gets its
        ``implementation`` span (:meth:`_job_span`).
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
        self._job_span(
            worker, verdict.status.name.lower(), records=result.records
        )
        self.jobs.settle(
            job, verdict, worker=str(worker.worker_id), attempt=result.attempt
        )

    def _job_span(
        self,
        worker: _WorkerHandle,
        status: Optional[str] = None,
        *,
        records: Sequence[dict] = (),
        error: Optional[str] = None,
    ) -> None:
        """Under a journal, record the ``implementation`` span of the
        attempt ``worker`` is running, from its assignment to now, with
        the ``records`` the worker journaled for it grafted beneath."""
        journal = self.journal
        if journal is None:
            return
        job = worker.job
        span = journal.span_ids
        journal.span_ids += 1
        args = {"worker": worker.worker_id, "attempt": job.attempts}
        if status is not None:
            args["status"] = status
        journal.emit(
            "span",
            name=job.impl.name,
            cat="implementation",
            start=worker.job_started,
            dur=time.monotonic() - worker.job_started,
            span=span,
            parent=self.parent_span,
            args=args,
            error=error,
        )
        _graft(journal, records, span)

    def _worker_died(self, worker: _WorkerHandle, reason: str) -> None:
        """Reap ``worker`` and charge the lost attempt to its job.

        The job goes back on the queue after a jittered exponential
        backoff, or — with its retries spent — is quarantined as
        ``INTERNAL_ERROR``/``OL902``, naming every death.
        """
        job = worker.job
        if job is not None:
            self._job_span(worker, error=f"worker died: {reason}")
        worker.job = None
        worker.kill()
        obs_events.emit(
            "worker-died",
            worker=str(worker.worker_id),
            reason=reason,
            job=job.job_id if job is not None else None,
        )
        if job is None or job.done:
            return
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
            return
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

    def _police(self, now: float) -> None:
        """Detect deaths, lost heartbeats, and hard-timeout overruns; an
        overrun kills its worker and times its job out
        (``TIMED_OUT``/``OL901``)."""
        for worker in list(self.workers):
            if worker.conn.closed or worker.idle:
                continue
            if not worker.alive():
                self._worker_died(worker, _death_reason(worker.process))
                continue
            stale = now - worker.heartbeat.value
            if stale > max(
                self.options.heartbeat_timeout, 4 * HEARTBEAT_INTERVAL
            ):
                self._worker_died(
                    worker, f"lost heartbeat ({stale:.2f}s stale)"
                )
                continue
            if worker.job_deadline is not None and now >= worker.job_deadline:
                job = worker.job
                self._job_span(worker, "timed_out")
                worker.job = None
                worker.kill()
                if job.done:
                    continue
                self._fail(
                    job,
                    "TIMED_OUT",
                    Diagnostic(
                        code="OL901",
                        message="hard job timeout "
                        f"({self.options.job_timeout:.3g}s) exceeded while "
                        "this implementation was being checked; "
                        f"worker {worker.worker_id} killed",
                        impl=job.impl.name,
                    ),
                    "job-hard-timeout",
                    worker=str(worker.worker_id),
                    code="OL901",
                )

    def _fail(
        self,
        job: _Job,
        status: str,
        error: Diagnostic,
        event: str,
        *,
        worker: Optional[str] = None,
        **fields,
    ) -> None:
        """Decide ``job`` without a prover: its lifecycle record, then
        the settle step for the ``ImplStatus`` named ``status`` with
        diagnostic ``error``. When an attempt of the job was running on
        ``worker``, both records name the worker and the attempt."""
        ran = {}
        if worker is not None:
            ran = {"worker": worker, "attempt": job.attempts}
        obs_events.emit(
            event,
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            **ran,
            **fields,
        )
        self.jobs.settle(job, _verdict(job, status, error), **ran)

    # ------------------------------------------------------------------
    # Scope-budget cancellation and shutdown
    # ------------------------------------------------------------------

    def _cancel_everything(self) -> None:
        """The scope budget expired: kill every worker and fail every
        open job in the serial driver's vocabulary — the jobs the
        workers were running with the mid-check ``OL901``, every other
        one with the before-check one."""
        from repro.vcgen.checker import _deadline_diagnostic

        inflight = [
            (w.job, str(w.worker_id)) for w in self.workers if w.job is not None
        ]
        for worker in self.workers:
            if worker.job is not None:
                self._job_span(worker, "timed_out")
            worker.job = None
            worker.kill()
        unassigned = [(job, None) for job in self.jobs]
        for before, jobs in ((False, inflight), (True, unassigned)):
            for job, worker in jobs:
                if not job.done:
                    self._fail(
                        job,
                        "TIMED_OUT",
                        _deadline_diagnostic(job.impl, before=before),
                        "job-deadline",
                        worker=worker,
                        code="OL901",
                    )
        self.queue.clear()

    def _shutdown_workers(self) -> None:
        """Stop every idle worker, then reap them, so they exit side by
        side; kill the rest."""
        stopping = []
        for worker in self.workers:
            if worker.conn.closed:
                continue
            if worker.idle and worker.alive():
                worker.stop()
                stopping.append(worker)
            else:
                worker.kill()
        for worker in stopping:
            worker.reap()
        self.workers = []


def run_parallel_checks(
    scope: Scope,
    limits: Optional[Limits],
    *,
    options: ParallelOptions,
    explain: bool = False,
    scope_deadline: Optional[float] = None,
    preresolved: Optional[Dict[Tuple[str, int], object]] = None,
    book: Optional[JobBook] = None,
) -> ParallelOutcome:
    """Convenience wrapper: build a supervisor, run it, return the jobs.

    ``book`` is the job book to run (default: one job per implementation
    of ``scope``, with those named in ``preresolved`` already done); only
    its open jobs reach a worker.
    """
    supervisor = WorkerSupervisor(
        scope,
        limits,
        options=options,
        explain=explain,
        scope_deadline=scope_deadline,
        book=book if book is not None else build_jobs(scope, preresolved),
    )
    return supervisor.run()


def _graft(journal, records: Sequence[dict], parent: int) -> None:
    """Emit the ``records`` a worker journaled for a job into ``journal``.

    Each record is stamped anew (run id, ``seq``, ``t_mono``), so the
    journal's order invariants hold; a span keeps the worker's
    ``start`` (on the platforms workers run on, ``time.monotonic`` is
    the system-wide monotonic clock), gets a fresh id, and hangs under
    ``parent`` if it was a root.
    """
    base = journal.span_ids
    for record in records:
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("event", "run_id", "seq", "t_mono", "t_wall")
        }
        if record["event"] == "span":
            fields["span"] += base
            fields["parent"] = (
                parent if "parent" not in fields else fields["parent"] + base
            )
            journal.span_ids = max(journal.span_ids, fields["span"] + 1)
        journal.emit(record["event"], **fields)


def _verdict(job: _Job, status: str, error: Diagnostic) -> object:
    """A verdict the supervisor decides for ``job`` without a prover:
    the ``ImplStatus`` named ``status``, with diagnostic ``error``."""
    from repro.vcgen.checker import ImplStatus, ImplVerdict

    return ImplVerdict(
        impl=job.impl,
        index=job.impl_index,
        status=ImplStatus[status],
        stats=ProverStats(),
        error=error,
    )
