"""The supervised multi-process checking backend: the ``-j`` transport.

``check_scope(parallel=N)`` hands the per-implementation proof jobs to a
:class:`WorkerSupervisor`, which runs them on a pool of process-isolated
workers (:mod:`repro.parallel.worker`), each a forked child on one end of
a duplex pipe with a heartbeat stamped into shared memory. This module
is transport only. It spawns and reaps workers, ships requests and
receives results, and detects what the cooperative serial driver cannot:

* a **dead worker** — a nonzero exit, a killing signal, a closed pipe or
  a stale heartbeat (a frozen interpreter);
* an **attempt past its hard deadline** — a runaway quantifier loop that
  never reaches a cooperative poll point is SIGKILLed;
* an **expired scope budget** — every worker is killed within one poll
  interval, instead of waiting for each to notice.

What follows from each is the job policy's decision
(:class:`repro.parallel.policy.JobPolicy`), shared with the fleet: retry
with backoff or quarantine as ``OL902``, ``TIMED_OUT``/``OL901``, or
cancellation in the serial driver's ``OL901`` wording. A job that was
never accepted because its worker died first counts as a death.

Determinism: results are merged in *job order* (declaration order of the
implementations — the exact order the serial driver uses), so the
rendered report is independent of scheduling, worker count, and
completion order; ``CheckReport.to_dict`` is byte-identical to a serial
run modulo wall-clock fields.

The supervisor is a pure executor: it runs the jobs of the book it is
given that are still open. Deciding jobs up front (static discharge,
ledger replay, cache hits) and storing fresh verdicts in the result
cache are the checker's business (:mod:`repro.vcgen.checker`).

Warm workers: before the first fork the supervisor prepares the
scope's prover background (BP_D asserted on top of the process's UBP,
which is prepared first if it is not yet, every quantifier's matchers
compiled; :meth:`repro.prover.core.Background.prepare`), so each forked
worker resumes from that state instead of building it again.

Observability: under an installed tracer the supervisor emits one
``supervisor`` pipeline span, one implementation span per job carrying
``worker``/``attempt``/``status`` args, and grafts each worker's own
span tree (vcgen/prove stage spans with their per-VC children)
underneath, so ``--trace``/``--profile`` cover parallel runs end to end.
Workers trace a job, and ship its spans and metrics, only when the
parent traces: an untraced check's results carry neither.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional, Tuple

from repro.obs import events as obs_events
from repro.oolong.program import Scope
from repro.parallel.jobs import Job as _Job, build_jobs
from repro.parallel.policy import JobPolicy, mp_context
from repro.parallel.worker import (
    HEARTBEAT_INTERVAL,
    JobResult,
    worker_main,
)
from repro.prover.core import Limits


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
    #: waits ``backoff_base * 2**(n-1)``, stretched by the job policy's
    #: deterministic jitter (see :func:`repro.parallel.policy.backoff_delay`).
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


@dataclass
class ParallelOutcome:
    """What the supervisor hands back to the checker driver."""

    #: Jobs in declaration order, each carrying its verdict (always
    #: present on return) and optional advisory explain-crash.
    jobs: List[_Job]


class WorkerSupervisor:
    """Runs proof jobs on supervised pipe workers under the job policy."""

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
        #: The job book; jobs already done when the run starts are left
        #: as they are.
        self.jobs = book if book is not None else build_jobs(scope)
        self.policy = JobPolicy(
            self.jobs, limits, options, scope_deadline, explain
        )
        self.workers: List[_WorkerHandle] = []
        self._context = mp_context()
        self._next_worker_id = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self) -> ParallelOutcome:
        with self.policy.traced("supervisor", workers=self.options.jobs):
            try:
                if self.policy.queue:
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
            self.policy.job_limits or Limits(),
            scope_deadline=self.policy.scope_deadline,
        )
        try:
            scope_background_of(self.scope).prepare(limits)
        except Exception:
            pass  # each job meets it again in its worker and reports it

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------

    def _supervise(self) -> None:
        policy = self.policy
        queue = policy.queue
        while True:
            now = time.monotonic()
            if policy.expired(now):
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
                job = policy.next_eligible(now)
                if job is None:
                    break
                self._assign(worker, job, now)

            busy = [w for w in self.workers if not w.idle]
            if not queue and not busy:
                return

            ready = connection_wait(
                [w.conn for w in self.workers if not w.conn.closed],
                timeout=policy.wait_hint(now, (w.job_deadline for w in busy)),
            )
            for conn in ready:
                worker = next(
                    (w for w in self.workers if w.conn is conn), None
                )
                if worker is not None:
                    self._drain(worker)

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
        request, deadline = self.policy.begin_attempt(job, now)
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
        worker.job_deadline = deadline
        worker.heartbeat.value = time.monotonic()

    # ------------------------------------------------------------------
    # Results, deaths, and timeouts
    # ------------------------------------------------------------------

    def _drain(self, worker: _WorkerHandle) -> None:
        try:
            result: JobResult = worker.conn.recv()
        except (EOFError, OSError):
            if worker.job is not None:
                exit_code = worker.process.exitcode
                self._worker_died(
                    worker, f"connection lost (exit code {exit_code})"
                )
            else:
                # An idle worker died; just reap it. Replacements are
                # spawned on demand by _ensure_workers.
                worker.kill()
            return
        job = worker.job
        if job is None or result.job_id != job.job_id:
            return  # stale result from a superseded attempt
        self.policy.file_result(
            job, result, worker=worker.worker_id, started=worker.job_started
        )
        worker.job = None
        worker.job_deadline = None

    def _worker_died(self, worker: _WorkerHandle, reason: str) -> None:
        job = worker.job
        worker.job = None
        worker.kill()
        obs_events.emit(
            "worker-died",
            worker=str(worker.worker_id),
            reason=reason,
            job=job.job_id if job is not None else None,
        )
        if job is not None and not job.done:
            self.policy.retry_or_quarantine(job, reason)

    def _police(self, now: float) -> None:
        """Detect deaths, lost heartbeats, and hard-timeout overruns."""
        for worker in list(self.workers):
            if worker.conn.closed or worker.idle:
                continue
            if not worker.alive():
                exit_code = worker.process.exitcode
                self._worker_died(
                    worker,
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
                    worker, f"lost heartbeat ({stale:.2f}s stale)"
                )
                continue
            if worker.job_deadline is not None and now >= worker.job_deadline:
                job = worker.job
                worker.job = None
                worker.kill()
                self.policy.hard_timeout(job, worker.worker_id)

    # ------------------------------------------------------------------
    # Scope-budget cancellation and shutdown
    # ------------------------------------------------------------------

    def _cancel_everything(self) -> None:
        """The scope budget expired: kill every worker, then let the
        policy fail the jobs they were running and the queue."""
        inflight = [w.job for w in self.workers if w.job is not None]
        for worker in self.workers:
            worker.job = None
            worker.kill()
        self.policy.cancel(inflight)

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
