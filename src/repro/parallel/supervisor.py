"""The supervised multi-process checking backend.

``check_scope(parallel=N)`` hands the per-implementation proof jobs to a
:class:`WorkerSupervisor`, which schedules them onto a pool of
process-isolated workers (:mod:`repro.parallel.worker`) and enforces the
guarantees the cooperative serial driver cannot:

* **hard wall-clock timeout per job** — a runaway quantifier loop that
  never reaches a cooperative poll point is SIGKILLed and recorded as
  ``TIMED_OUT`` with an ``OL901`` diagnostic; the rest of the batch is
  untouched;
* **worker-death detection and retry** — a nonzero exit, a killing
  signal, or a lost heartbeat triggers a retry with exponential backoff
  on a fresh worker, up to ``max_retries`` attempts; after exhaustion
  the job is quarantined as ``INTERNAL_ERROR`` with an ``OL902``
  diagnostic, so one poisonous VC can never sink the scope;
* **prompt scope-budget enforcement** — when ``Limits.scope_time_budget``
  expires, queued jobs are cancelled and in-flight workers killed within
  one poll interval, instead of waiting for each worker to notice.

Determinism: results are merged in *job order* (declaration order of the
implementations — the exact order the serial driver uses), so the
rendered report is independent of scheduling, worker count, and
completion order; ``CheckReport.to_dict`` is byte-identical to a serial
run modulo wall-clock fields.

The supervisor is a pure executor: it runs the jobs of the book it is
given that are still open. Deciding jobs up front (static discharge,
ledger replay, cache hits) and storing fresh verdicts in the result
cache are the checker's business (:mod:`repro.vcgen.checker`).

Observability: under an installed tracer the supervisor emits one
``supervisor`` pipeline span, one implementation span per job carrying
``worker``/``attempt``/``status`` args, and grafts each worker's own
span tree (vcgen/prove stage spans with their per-VC children)
underneath, so ``--trace``/``--profile`` cover parallel runs end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional, Tuple

from repro.obs import events as obs_events
from repro.oolong.program import Scope
from repro.parallel.jobs import (
    Job as _Job,
    apply_result,
    backoff_delay,
    build_jobs,
    deadline_verdict,
    hard_timeout_verdict,
    quarantine_verdict,
)
from repro.parallel.worker import (
    HEARTBEAT_INTERVAL,
    JobRequest,
    JobResult,
    worker_main,
)
from repro.prover.core import Limits
from repro.testing.faults import (
    record_supervisor_fault,
    supervisor_fault_hits,
)


@dataclass(frozen=True)
class ParallelOptions:
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
    #: waits ``backoff_base * 2**(n-1)``, stretched by jitter.
    backoff_base: float = 0.05
    #: Deterministic jitter fraction on the retry backoff (see
    #: :func:`repro.parallel.jobs.backoff_delay`): simultaneous worker
    #: deaths must not retry in lockstep. 0 disables it.
    backoff_jitter: float = 0.5
    #: A worker whose heartbeat is older than this while a job is
    #: running is considered dead (frozen interpreter) and killed.
    heartbeat_timeout: float = 2.0
    #: Supervision loop tick; bounds scope-budget overshoot and
    #: timeout-detection latency.
    poll_interval: float = 0.05
    #: ``multiprocessing`` start method; default prefers ``fork`` (fast,
    #: shares the parsed scope) and falls back to ``spawn``.
    start_method: Optional[str] = None

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"


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

    def shutdown(self) -> None:
        """Polite stop for an idle worker (sentinel, then reap)."""
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


@dataclass
class ParallelOutcome:
    """What the supervisor hands back to the checker driver."""

    #: Jobs in declaration order, each carrying its verdict (always
    #: present on return) and optional advisory explain-crash.
    jobs: List[_Job]


class WorkerSupervisor:
    """Schedules proof jobs onto supervised workers and merges results."""

    def __init__(
        self,
        scope: Scope,
        limits: Optional[Limits],
        *,
        options: ParallelOptions,
        explain: bool = False,
        scope_deadline: Optional[float] = None,
        book: Optional[List[_Job]] = None,
    ):
        self.scope = scope
        self.options = options
        self.explain = explain
        self.scope_deadline = scope_deadline
        self.job_limits = (
            replace(limits, scope_time_budget=None, scope_deadline=None)
            if limits is not None
            else None
        )
        #: The job book; jobs already done when the run starts are left
        #: as they are.
        self.jobs = book if book is not None else build_jobs(scope)
        self.workers: List[_WorkerHandle] = []
        self._context = multiprocessing.get_context(
            options.resolved_start_method()
        )
        self._next_worker_id = 0
        self._kill_faults = supervisor_fault_hits("worker-kill")
        self._hang_faults = supervisor_fault_hits("worker-hang")

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
        ):
            tracer = obs.current()
            parent_span = (
                tracer.current_index() if tracer is not None else None
            )
            try:
                pending = [job for job in self.jobs if not job.done]
                if pending:
                    self._supervise(pending, tracer, parent_span)
            finally:
                self._shutdown_workers()
        return ParallelOutcome(jobs=self.jobs)

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------

    def _supervise(self, pending: List[_Job], tracer, parent_span) -> None:
        queue: List[_Job] = list(pending)
        inflight = 0
        options = self.options
        while queue or inflight:
            now = time.monotonic()
            if self.scope_deadline is not None and now >= self.scope_deadline:
                self._cancel_everything(queue)
                return
            self._ensure_workers(len(queue))
            inflight = sum(1 for w in self.workers if not w.idle)

            # Assign eligible jobs to idle workers.
            for worker in self.workers:
                if not queue:
                    break
                if not worker.idle or not worker.alive():
                    continue
                job = self._next_eligible(queue, now)
                if job is None:
                    break
                self._assign(worker, job, now, queue)
                inflight += 1

            if not queue and inflight == 0:
                return

            timeout = self._wait_timeout(queue, now)
            ready = connection_wait(
                [w.conn for w in self.workers if not w.conn.closed],
                timeout=timeout,
            )
            for conn in ready:
                worker = next(
                    (w for w in self.workers if w.conn is conn), None
                )
                if worker is None:
                    continue
                self._drain(worker, queue, tracer, parent_span)

            self._police(queue, tracer, parent_span)
            inflight = sum(1 for w in self.workers if not w.idle)

    def _next_eligible(self, queue: List[_Job], now: float) -> Optional[_Job]:
        for index, job in enumerate(queue):
            if job.eligible_at <= now:
                return queue.pop(index)
        return None

    def _wait_timeout(self, queue: List[_Job], now: float) -> float:
        timeout = self.options.poll_interval
        if self.scope_deadline is not None:
            timeout = min(timeout, max(0.0, self.scope_deadline - now))
        for job in queue:
            if job.eligible_at > now:
                timeout = min(timeout, job.eligible_at - now)
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

    def _assign(
        self, worker: _WorkerHandle, job: _Job, now: float, queue: List[_Job]
    ) -> None:
        inject = None
        if job.attempts == 0:
            if job.job_id in self._kill_faults:
                inject = "kill"
                record_supervisor_fault("worker-kill", job.job_id, "raise")
            elif job.job_id in self._hang_faults:
                inject = "hang"
                record_supervisor_fault("worker-hang", job.job_id, "raise")
        request = JobRequest(
            job_id=job.job_id,
            proc_name=job.proc_name,
            impl_index=job.impl_index,
            attempt=job.attempts,
            limits=self.job_limits,
            explain=self.explain,
            inject=inject,
        )
        try:
            worker.conn.send(request)
        except (OSError, ValueError, BrokenPipeError):
            # The worker died between spawn and first send; treat like a
            # mid-job death so the retry accounting stays uniform.
            worker.job = job
            worker.job_started = now
            self._worker_died(worker, queue, "died before accepting the job")
            return
        worker.job = job
        worker.job_started = now
        obs_events.emit(
            "job-assigned",
            job=job.job_id,
            worker=str(worker.worker_id),
            attempt=job.attempts,
            impl=job.impl.name,
            index=job.impl_index,
        )
        deadline = None
        if self.options.job_timeout is not None:
            deadline = now + self.options.job_timeout
        if self.scope_deadline is not None:
            deadline = (
                self.scope_deadline
                if deadline is None
                else min(deadline, self.scope_deadline)
            )
        worker.job_deadline = deadline
        worker.heartbeat.value = time.monotonic()

    # ------------------------------------------------------------------
    # Result, death, and timeout handling
    # ------------------------------------------------------------------

    def _drain(self, worker, queue, tracer, parent_span) -> None:
        try:
            result: JobResult = worker.conn.recv()
        except (EOFError, OSError):
            if worker.job is not None:
                exit_code = worker.process.exitcode
                self._worker_died(
                    worker,
                    queue,
                    f"connection lost (exit code {exit_code})",
                )
            else:
                # An idle worker died; just reap it. Replacements are
                # spawned on demand by _ensure_workers.
                worker.kill()
            return
        job = worker.job
        if job is None or result.job_id != job.job_id:
            return  # stale result from a superseded attempt
        self._finish_job(worker, job, result, tracer, parent_span)

    def _finish_job(self, worker, job, result, tracer, parent_span) -> None:
        apply_result(job, result)
        if tracer is not None:
            job_span = tracer.record(
                job.impl.name,
                "implementation",
                # The supervisor measures in time.monotonic(); spans use
                # perf_counter. On the platforms workers run on both are
                # CLOCK_MONOTONIC, so the domains coincide.
                worker.job_started,
                time.perf_counter(),
                parent=parent_span,
                args={
                    "worker": worker.worker_id,
                    "attempt": result.attempt,
                    "status": job.verdict.status.name.lower(),
                },
            )
            if result.spans:
                tracer.absorb(result.spans, parent=job_span)
            if result.metrics:
                tracer.metrics.merge_dict(result.metrics)
        obs_events.emit_impl_checked(
            job.verdict,
            worker=str(worker.worker_id),
            attempt=result.attempt,
        )
        worker.job = None
        worker.job_deadline = None

    def _worker_died(self, worker, queue: List[_Job], reason: str) -> None:
        job = worker.job
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
            self._quarantine(job)
            return
        backoff = backoff_delay(
            self.options.backoff_base,
            job.attempts,
            jitter=self.options.backoff_jitter,
            token=f"job{job.job_id}",
        )
        job.eligible_at = time.monotonic() + backoff
        queue.append(job)
        obs_events.emit(
            "job-retry",
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            attempt=job.attempts,
            backoff=round(backoff, 6),
            reason=reason,
        )

    def _quarantine(self, job: _Job) -> None:
        job.verdict = quarantine_verdict(job)
        obs_events.emit(
            "job-quarantined",
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            attempt=job.attempts,
            code="OL902",
        )
        obs_events.emit_impl_checked(job.verdict)

    def _police(self, queue, tracer, parent_span) -> None:
        """Detect deaths, lost heartbeats, and hard-timeout overruns."""
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.conn.closed:
                continue
            if worker.idle:
                continue
            if not worker.alive():
                exit_code = worker.process.exitcode
                self._worker_died(
                    worker,
                    queue,
                    f"exit code {exit_code}"
                    if (exit_code or 0) >= 0
                    else f"killed by signal {-exit_code}",
                )
                continue
            stale = now - worker.heartbeat.value
            if stale > max(
                self.options.heartbeat_timeout, 4 * HEARTBEAT_INTERVAL
            ):
                self._worker_died(
                    worker,
                    queue,
                    f"lost heartbeat ({stale:.2f}s stale)",
                )
                continue
            if worker.job_deadline is not None and now >= worker.job_deadline:
                self._hard_timeout(worker)

    def _hard_timeout(self, worker) -> None:
        job = worker.job
        worker.job = None
        worker.kill()
        if job is None or job.done:
            return
        budget = self.options.job_timeout
        detail = (
            f"hard job timeout ({budget:.3g}s) exceeded"
            if budget is not None
            else "scope time budget exhausted"
        )
        job.verdict = hard_timeout_verdict(
            job,
            f"{detail} while this implementation was being "
            f"checked; worker {worker.worker_id} killed",
        )
        obs_events.emit(
            "job-hard-timeout",
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            worker=str(worker.worker_id),
            code="OL901",
        )
        obs_events.emit_impl_checked(job.verdict)

    # ------------------------------------------------------------------
    # Scope-budget cancellation and shutdown
    # ------------------------------------------------------------------

    def _cancel_everything(self, queue: List[_Job]) -> None:
        """The scope budget expired: kill in-flight work, fail the rest.

        Matches the serial driver's vocabulary: implementations that
        were running report the mid-check ``OL901``, queued ones the
        before-check variant.
        """
        for worker in self.workers:
            job = worker.job
            worker.job = None
            worker.kill()
            if job is not None and not job.done:
                job.verdict = deadline_verdict(job, before=False)
                obs_events.emit(
                    "job-deadline", job=job.job_id, code="OL901"
                )
                obs_events.emit_impl_checked(job.verdict)
        for job in queue:
            if not job.done:
                job.verdict = deadline_verdict(job, before=True)
                obs_events.emit(
                    "job-deadline", job=job.job_id, code="OL901"
                )
                obs_events.emit_impl_checked(job.verdict)
        queue.clear()

    def _shutdown_workers(self) -> None:
        for worker in self.workers:
            if worker.conn.closed:
                continue
            if worker.idle and worker.alive():
                worker.shutdown()
            else:
                worker.kill()
        self.workers = []


def run_parallel_checks(
    scope: Scope,
    limits: Optional[Limits],
    *,
    options: ParallelOptions,
    explain: bool = False,
    scope_deadline: Optional[float] = None,
    preresolved: Optional[Dict[Tuple[str, int], object]] = None,
    book: Optional[List[_Job]] = None,
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
