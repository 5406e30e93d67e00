"""Distributed fleet checking: a socket worker pool with leased jobs.

This generalizes the fork-pipe supervisor to a coordinator/worker
topology over the framed socket transport (:mod:`repro.parallel.transport`):

* the **coordinator** (the checking process) binds a listening socket
  and holds the job book — the same declaration-ordered
  :class:`~repro.parallel.jobs.Job` list the local supervisor uses;
* **workers** dial in, register, and *steal* work: an idle worker asks
  for a job, the coordinator leases it one. ``--fleet N`` spawns N local
  worker processes against an ephemeral loopback port (a hermetic
  multi-process fleet); ``--fleet HOST:PORT`` binds there and waits for
  external workers started with ``oolong-check workers serve HOST:PORT``
  (the scope ships to them inside the welcome message, so remote
  workers need no source files).

Soundness under an unreliable fleet rests on **leases**: every
assignment carries a deadline the worker must keep renewing (its
heartbeat). A worker that dies, partitions, or just goes quiet lets its
lease expire; the coordinator reclaims the job and reassigns it with
exponential backoff + deterministic jitter, and after ``max_retries``
reclaims the job is quarantined as ``OL902`` with exactly the local
supervisor's wording. Verdicts are merged in job order, so a fleet
report is byte-identical to a serial one modulo timing/worker fields —
regardless of worker count, membership churn, or which frames the
network ate.

Degradation, not failure: if the fleet cannot be assembled
(:class:`FleetUnavailable`) or collapses mid-run, the checker falls back
to the local supervisor with an ``OL904`` warning; a fleet outage never
costs a verdict.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.obs import events as obs_events
from repro.oolong.program import Scope
from repro.parallel.jobs import (
    Job,
    apply_result,
    backoff_delay,
    build_jobs,
    deadline_verdict,
    hard_timeout_verdict,
    quarantine_verdict,
)
from repro.obs.httpd import TelemetryHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.parallel.transport import (
    ConnectionClosed,
    FramedSocket,
    FrameError,
    FramePolicy,
    ReadTimeout,
    StatusServer,
    TransportError,
    clock_offset,
    clock_sample,
    close_listener,
    connect,
    parse_address,
    serve,
)
from repro.parallel.worker import JobRequest, JobResult, run_job
from repro.prover.core import Limits
from repro.testing.faults import (
    record_supervisor_fault,
    supervisor_fault_hits,
)

PROTOCOL = "oolong-fleet-1"


class FleetUnavailable(Exception):
    """The fleet could not be assembled (bind/spawn/registration failed)."""


@dataclass(frozen=True)
class FleetOptions:
    """Coordination policy for one fleet ``check_scope`` run."""

    #: Local worker processes to spawn (0 = external workers only).
    workers: int = 2
    #: Where the coordinator listens; port 0 picks an ephemeral port.
    address: Tuple[str, int] = ("127.0.0.1", 0)
    #: Shared secret echoed in every hello; keeps unrelated fleets from
    #: cross-talking on a shared host (not an authentication scheme).
    token: Optional[str] = None
    #: Hard wall-clock budget per job attempt (OL901 on overrun).
    job_timeout: Optional[float] = None
    #: Lease reclaims per job before OL902 quarantine.
    max_retries: int = 2
    #: Retry backoff base + jitter, as in the local supervisor.
    backoff_base: float = 0.05
    backoff_jitter: float = 0.5
    #: A lease not renewed for this long is reclaimed (the fleet's
    #: heartbeat-timeout analogue).
    lease_duration: float = 1.0
    #: How often a busy worker renews its lease.
    renew_interval: float = 0.2
    #: How long to wait for the first worker to register before giving
    #: the fleet up as unavailable.
    registration_wait: float = 5.0
    #: With live jobs but zero workers, how long to wait for (re)joins
    #: before degrading to the local supervisor.
    stall_timeout: float = 10.0
    #: Scheduling-loop tick.
    poll_interval: float = 0.05
    #: Local worker processes re-spawned after deaths before the
    #: coordinator stops replacing them.
    respawn_budget: int = 8
    #: ``multiprocessing`` start method for local workers.
    start_method: Optional[str] = None

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"

    @classmethod
    def from_spec(
        cls, spec: Union[int, str, "FleetOptions"], **overrides
    ) -> "FleetOptions":
        """Build options from the CLI/API ``--fleet`` value.

        An integer (or digit string) means "spawn that many local socket
        workers"; ``HOST:PORT`` means "bind there and use externally
        started workers".
        """
        if isinstance(spec, FleetOptions):
            return replace(spec, **overrides) if overrides else spec
        if isinstance(spec, bool):  # bool is an int; reject it explicitly
            raise ValueError("--fleet expects a worker count or HOST:PORT")
        if isinstance(spec, int) or (isinstance(spec, str) and spec.isdigit()):
            count = int(spec)
            if count <= 0:
                raise ValueError("--fleet worker count must be positive")
            return cls(workers=count, **overrides)
        if isinstance(spec, str):
            address = parse_address(spec)
            overrides.setdefault("workers", 0)
            return cls(address=address, **overrides)
        raise ValueError(f"bad --fleet spec {spec!r}")


@dataclass
class _Lease:
    """One live assignment: a job out at a worker, with deadlines."""

    lease_id: int
    job: Job
    worker: "_Member"
    #: Renewable: pushed forward by every renew message.
    lease_deadline: float
    #: Absolute: the hard job/scope budget; not renewable.
    job_deadline: Optional[float]
    started: float


class _Member:
    """Coordinator-side view of one registered worker."""

    def __init__(
        self,
        ordinal: int,
        channel: FramedSocket,
        kind: str,
        pid: Optional[int],
        clock_offset: float = 0.0,
    ):
        self.ordinal = ordinal
        self.channel = channel
        self.kind = kind  # "local" or "remote"
        self.pid = pid
        #: Seconds to add to this worker's perf_counter timestamps to
        #: land them in the coordinator's clock domain (see
        #: ``transport.clock_offset``); 0.0 for same-host members.
        self.clock_offset = clock_offset
        self.name = f"{kind}-{ordinal}"
        self.alive = True
        self.partitioned = False
        self.churn_after_result = False
        self.jobs_completed = 0

    def send(self, message) -> bool:
        """Best-effort send; a dead wire just marks the member gone."""
        if not self.alive:
            return False
        try:
            return self.channel.send(message)
        except TransportError:
            self.alive = False
            return False


@dataclass
class FleetOutcome:
    """What the coordinator hands back to the checker driver."""

    #: Jobs in declaration order. If ``degraded`` is set some may lack
    #: verdicts — the caller reruns those on the local supervisor.
    jobs: List[Job]
    #: Lease/steal/requeue counters and membership tallies.
    summary: Dict[str, int] = field(default_factory=dict)
    #: Why the fleet collapsed mid-run, or None on a clean finish.
    degraded: Optional[str] = None


class FleetCoordinator:
    """Owns the job book, the leases, and the member registry."""

    def __init__(
        self,
        scope: Scope,
        limits: Optional[Limits],
        *,
        options: FleetOptions,
        explain: bool = False,
        scope_deadline: Optional[float] = None,
        book: Optional[List[Job]] = None,
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
        self.members: Dict[int, _Member] = {}
        self.leases: Dict[int, _Lease] = {}
        self._next_lease_id = 0
        self._next_ordinal = 0
        self._events: "queue.Queue" = queue.Queue()
        self._queue: List[Job] = []
        self._ordinal_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._local_procs: List[multiprocessing.Process] = []
        self._respawns = 0
        self._policy = FramePolicy()
        self._partition_faults = supervisor_fault_hits("partition-worker")
        self._churn_faults = supervisor_fault_hits("worker-churn")
        self._kill_faults = supervisor_fault_hits("worker-kill")
        self._hang_faults = supervisor_fault_hits("worker-hang")
        self.counters: Dict[str, int] = {
            "fleet.registrations": 0,
            "fleet.deregistrations": 0,
            "fleet.steals": 0,
            "fleet.leases": 0,
            "fleet.renewals": 0,
            "fleet.lease_expiries": 0,
            "fleet.requeues": 0,
            "fleet.quarantines": 0,
            "fleet.stale_results": 0,
            "fleet.partitions": 0,
            "fleet.churn": 0,
            "fleet.frames_rejected": 0,
            "fleet.respawns": 0,
        }

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind, spawn local workers, and wait for the first registration.

        Raises :class:`FleetUnavailable` if no worker ever arrives — the
        caller degrades to the local supervisor *before* any lease, so
        nothing is half-done.
        """
        try:
            self._listener = serve(self.options.address)
        except TransportError as exc:
            raise FleetUnavailable(str(exc)) from exc
        host, port = self.bound_address
        obs_events.emit(
            "server-start",
            kind="coordinator",
            address=f"{host}:{port}",
            pid=os.getpid(),
        )
        accept = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        try:
            self._spawn_local_workers(self.options.workers)
        except BaseException:
            self.shutdown()
            raise
        deadline = time.monotonic() + self.options.registration_wait
        while not self.members:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                host, port = self.bound_address
                self.shutdown()
                raise FleetUnavailable(
                    "no worker registered within "
                    f"{self.options.registration_wait:.3g}s at {host}:{port}"
                )
            try:
                event = self._events.get(timeout=min(remaining, 0.1))
            except queue.Empty:
                continue
            self._handle_event(event, [])

    @property
    def bound_address(self) -> Tuple[str, int]:
        assert self._listener is not None
        return self._listener.getsockname()[:2]

    def _spawn_local_workers(self, count: int) -> None:
        context = multiprocessing.get_context(
            self.options.resolved_start_method()
        )
        address = self.bound_address
        for _ in range(count):
            process = context.Process(
                target=fleet_worker_main,
                args=(address,),
                kwargs={
                    "token": self.options.token,
                    "parent_pid": os.getpid(),
                    "renew_interval": self.options.renew_interval,
                },
                name=f"oolong-fleet-worker-{len(self._local_procs)}",
                daemon=True,
            )
            process.start()
            self._local_procs.append(process)
            obs_events.emit("worker-spawn", pid=process.pid, kind="local")

    # ------------------------------------------------------------------
    # Connection handling (threads feeding the event queue)
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            channel = FramedSocket(sock, policy=self._policy)
            thread = threading.Thread(
                target=self._register_and_read,
                args=(channel,),
                name="fleet-reader",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _register_and_read(self, channel: FramedSocket) -> None:
        try:
            hello = channel.recv(timeout=5.0)
        except TransportError:
            channel.close()
            return
        if (
            not isinstance(hello, tuple)
            or len(hello) not in (4, 5)
            or hello[0] != "hello"
            or hello[1] != PROTOCOL
        ):
            try:
                channel.send(("reject", "bad hello"))
            except TransportError:
                pass
            channel.close()
            return
        if self.options.token is not None and hello[2] != self.options.token:
            try:
                channel.send(("reject", "bad token"))
            except TransportError:
                pass
            channel.close()
            return
        pid = hello[3] if isinstance(hello[3], int) else None
        local_pids = {p.pid for p in self._local_procs}
        kind = "local" if pid in local_pids else "remote"
        # A 5-tuple hello carries the worker's (wall, perf) clock sample
        # so shipped span shards can be rebased onto our clock. Local
        # fork workers share our perf_counter domain already — keep
        # their offset at an exact 0.0 rather than an estimated ~0.
        offset = 0.0
        if kind == "remote" and len(hello) == 5:
            sample = hello[4]
            if (
                isinstance(sample, tuple)
                and len(sample) == 2
                and all(isinstance(v, (int, float)) for v in sample)
            ):
                offset = clock_offset(sample)
        member = _Member(
            self._bump_ordinal(),
            channel,
            kind=kind,
            pid=pid,
            clock_offset=offset,
        )
        if member.ordinal in self._partition_faults:
            member.partitioned = True
        if member.ordinal in self._churn_faults:
            member.churn_after_result = True
        welcome = (
            "welcome",
            member.name,
            self.scope,
            self.job_limits,
            self.explain,
        )
        if not member.send(welcome):
            channel.close()
            return
        self._events.put(("register", member))
        while not self._stop.is_set():
            try:
                message = channel.recv(timeout=0.5)
            except ReadTimeout:
                continue
            except FrameError:
                self._events.put(("frame-rejected", member))
                continue
            except ConnectionClosed:
                break
            self._events.put(("message", member, message))
        self._events.put(("gone", member))

    def _bump_ordinal(self) -> int:
        with self._ordinal_lock:
            ordinal = self._next_ordinal
            self._next_ordinal += 1
        return ordinal

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------

    def run(self) -> FleetOutcome:
        from repro import obs

        with obs.span(
            "fleet",
            obs.CAT_PIPELINE,
            jobs=len(self.jobs),
            workers=self.options.workers or len(self.members),
        ):
            tracer = obs.current()
            parent_span = tracer.current_index() if tracer is not None else None
            try:
                outcome = self._run_inner(tracer, parent_span)
            finally:
                self.shutdown()
            if tracer is not None:
                for name, value in self.counters.items():
                    if value:
                        tracer.metrics.inc(name, value)
            outcome.summary = dict(self.counters)
            return outcome

    def _run_inner(self, tracer, parent_span) -> FleetOutcome:
        pending = [job for job in self.jobs if not job.done]
        degraded = None
        if pending:
            degraded = self._schedule(pending, tracer, parent_span)
        return FleetOutcome(jobs=self.jobs, degraded=degraded)

    def _schedule(self, pending: List[Job], tracer, parent_span):
        """Lease jobs to stealing workers until the book closes.

        Returns None on a clean finish, or a degradation reason when the
        fleet collapsed with jobs still open.
        """
        self._queue: List[Job] = list(pending)
        stalled_since: Optional[float] = None
        while self._open_jobs():
            now = time.monotonic()
            if self.scope_deadline is not None and now >= self.scope_deadline:
                self._cancel_everything()
                return None
            self._police_leases(now)
            self._reap_local_workers()
            live = [m for m in self.members.values() if m.alive]
            if not live and not self.leases:
                if stalled_since is None:
                    stalled_since = now
                elif now - stalled_since > self.options.stall_timeout:
                    return (
                        "fleet collapsed: no live workers for "
                        f"{self.options.stall_timeout:.3g}s with "
                        f"{sum(1 for j in self.jobs if not j.done)} job(s) open"
                    )
            else:
                stalled_since = None
            try:
                event = self._events.get(timeout=self._tick(now))
            except queue.Empty:
                continue
            self._handle_event(event, (tracer, parent_span))
        return None

    def _open_jobs(self) -> bool:
        return any(not job.done for job in self.jobs)

    def _tick(self, now: float) -> float:
        timeout = self.options.poll_interval
        if self.scope_deadline is not None:
            timeout = min(timeout, max(self.scope_deadline - now, 0.0))
        for lease in self.leases.values():
            timeout = min(timeout, max(lease.lease_deadline - now, 0.0))
            if lease.job_deadline is not None:
                timeout = min(timeout, max(lease.job_deadline - now, 0.0))
        for job in getattr(self, "_queue", ()):
            if job.eligible_at > now:
                timeout = min(timeout, job.eligible_at - now)
        return max(timeout, 0.001)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def _handle_event(self, event, trace_ctx) -> None:
        kind = event[0]
        if kind == "register":
            member = event[1]
            self.members[member.ordinal] = member
            self.counters["fleet.registrations"] += 1
            obs_events.emit(
                "worker-registered",
                worker=member.name,
                pid=member.pid,
                kind=member.kind,
                offset=(
                    round(member.clock_offset, 6)
                    if member.clock_offset
                    else None
                ),
            )
            return
        if kind == "gone":
            self._member_gone(event[1], "connection lost")
            return
        if kind == "frame-rejected":
            self.counters["fleet.frames_rejected"] += 1
            obs_events.emit("frame-rejected", worker=event[1].name)
            # A corrupt inbound frame may have been this member's result
            # or renewal; the lease machinery will recover it. Nothing
            # else to do — the stream survived.
            return
        if kind == "message":
            member, message = event[1], event[2]
            if member.partitioned and self._member_holds_lease(member):
                # The partition eats the worker's traffic mid-job: drop
                # the message and sever, forcing lease reclamation.
                self.counters["fleet.partitions"] += 1
                record_supervisor_fault(
                    "partition-worker", member.ordinal, "raise"
                )
                obs_events.emit("worker-partition", worker=member.name)
                member.partitioned = False  # one-shot per plan hit
                self._member_gone(member, "partitioned mid-job")
                return
            self._handle_message(member, message, trace_ctx)

    def _member_holds_lease(self, member: _Member) -> bool:
        return any(l.worker is member for l in self.leases.values())

    def _handle_message(self, member: _Member, message, trace_ctx) -> None:
        if not isinstance(message, tuple) or not message:
            return
        kind = message[0]
        if kind == "steal":
            self.counters["fleet.steals"] += 1
            # A stealing worker is idle, so any lease it still holds was
            # never delivered (dropped or corrupted on the wire) or its
            # result was lost: reclaim immediately rather than waiting
            # for the lease clock.
            for lease_id in list(self.leases):
                lease = self.leases[lease_id]
                if lease.worker is member:
                    del self.leases[lease_id]
                    self._lease_failed(
                        lease, "worker stole again; lease frame lost"
                    )
            self._lease_to(member)
        elif kind == "renew" and len(message) == 2:
            lease = self.leases.get(message[1])
            if lease is not None and lease.worker is member:
                self.counters["fleet.renewals"] += 1
                lease.lease_deadline = (
                    time.monotonic() + self.options.lease_duration
                )
                obs_events.emit(
                    "lease-renewed",
                    lease=lease.lease_id,
                    job=lease.job.job_id,
                    worker=member.name,
                )
        elif kind == "result" and len(message) == 3:
            self._handle_result(member, message[1], message[2], trace_ctx)
        elif kind == "bye":
            self._member_gone(member, "worker said goodbye")

    def _lease_to(self, member: _Member) -> None:
        if not member.alive:
            return
        now = time.monotonic()
        job = self._next_eligible(now)
        if job is None:
            delay = self.options.poll_interval
            for queued in self._queue:
                if queued.eligible_at > now:
                    delay = min(delay, queued.eligible_at - now)
            member.send(("nowork", max(delay, 0.01)))
            return
        inject = None
        if job.attempts == 0:
            if job.job_id in self._kill_faults:
                inject = "kill"
                record_supervisor_fault("worker-kill", job.job_id, "raise")
            elif job.job_id in self._hang_faults:
                inject = "hang"
                record_supervisor_fault("worker-hang", job.job_id, "raise")
        lease_id = self._next_lease_id
        self._next_lease_id += 1
        request = JobRequest(
            job_id=job.job_id,
            proc_name=job.proc_name,
            impl_index=job.impl_index,
            attempt=job.attempts,
            limits=None,  # the worker got job_limits in its welcome
            explain=self.explain,
            inject=inject,
        )
        job_deadline = None
        if self.options.job_timeout is not None:
            job_deadline = now + self.options.job_timeout
        if self.scope_deadline is not None:
            job_deadline = (
                self.scope_deadline
                if job_deadline is None
                else min(job_deadline, self.scope_deadline)
            )
        lease = _Lease(
            lease_id=lease_id,
            job=job,
            worker=member,
            lease_deadline=now + self.options.lease_duration,
            job_deadline=job_deadline,
            started=now,
        )
        if not member.send(("lease", lease_id, request)):
            # The lease frame was dropped (fault) or the wire is dead.
            # The job was never delivered: requeue it immediately, and
            # let the lease machinery catch the member if it is gone.
            self._queue.append(job)
            return
        self.leases[lease_id] = lease
        self.counters["fleet.leases"] += 1
        obs_events.emit(
            "lease-granted",
            lease=lease_id,
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            worker=member.name,
            attempt=job.attempts,
        )

    def _next_eligible(self, now: float) -> Optional[Job]:
        for index, job in enumerate(self._queue):
            if job.eligible_at <= now and not job.done:
                return self._queue.pop(index)
        return None

    def _handle_result(
        self, member: _Member, lease_id: int, result: JobResult, trace_ctx
    ) -> None:
        lease = self.leases.pop(lease_id, None)
        if lease is None or lease.job.done:
            self.counters["fleet.stale_results"] += 1
            return
        job = lease.job
        self._finish_job(lease, job, result, trace_ctx)
        member.jobs_completed += 1
        if member.churn_after_result:
            member.churn_after_result = False
            self.counters["fleet.churn"] += 1
            record_supervisor_fault("worker-churn", member.ordinal, "raise")
            obs_events.emit("worker-churn", worker=member.name)
            member.send(("shutdown",))
            self._member_gone(member, "churned after first result")

    def _finish_job(self, lease: _Lease, job: Job, result: JobResult, trace_ctx) -> None:
        apply_result(job, result)
        tracer, parent_span = trace_ctx if trace_ctx else (None, None)
        if tracer is not None:
            job_span = tracer.record(
                job.impl.name,
                "implementation",
                lease.started,
                time.perf_counter(),
                parent=parent_span,
                args={
                    "worker": lease.worker.name,
                    "attempt": result.attempt,
                    "status": job.verdict.status.name.lower(),
                },
            )
            if result.spans:
                tracer.absorb(
                    result.spans,
                    parent=job_span,
                    offset=lease.worker.clock_offset,
                )
            if result.metrics:
                tracer.metrics.merge_dict(result.metrics)
        obs_events.emit_impl_checked(
            job.verdict,
            worker=lease.worker.name,
            attempt=result.attempt,
            lease=lease.lease_id,
        )

    # ------------------------------------------------------------------
    # Leases, membership, deadlines
    # ------------------------------------------------------------------

    def _police_leases(self, now: float) -> None:
        for lease_id in list(self.leases):
            lease = self.leases.get(lease_id)
            if lease is None:
                continue
            if lease.job_deadline is not None and now >= lease.job_deadline:
                self._hard_timeout(lease)
                continue
            if not lease.worker.alive or now >= lease.lease_deadline:
                expired = now >= lease.lease_deadline
                if expired:
                    self.counters["fleet.lease_expiries"] += 1
                    obs_events.emit(
                        "lease-expired",
                        lease=lease.lease_id,
                        job=lease.job.job_id,
                        worker=lease.worker.name,
                    )
                del self.leases[lease_id]
                worker = lease.worker
                self._lease_failed(
                    lease,
                    "lease expired (worker silent)"
                    if worker.alive
                    else "connection lost",
                )
                if worker.alive and expired:
                    # A silent worker is presumed wedged or partitioned:
                    # sever it (and SIGKILL its process if it is one of
                    # ours, so the respawn path restores capacity). A
                    # healthy-but-slow worker renews; it never gets here.
                    self._member_gone(worker, "severed after lease expiry")

    def _hard_timeout(self, lease: _Lease) -> None:
        self.leases.pop(lease.lease_id, None)
        job = lease.job
        budget = self.options.job_timeout
        detail = (
            f"hard job timeout ({budget:.3g}s) exceeded"
            if budget is not None
            else "scope time budget exhausted"
        )
        job.verdict = hard_timeout_verdict(
            job,
            f"{detail} while this implementation was being "
            f"checked; worker {lease.worker.name} killed",
        )
        obs_events.emit(
            "job-hard-timeout",
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            lease=lease.lease_id,
            worker=lease.worker.name,
            code="OL901",
        )
        obs_events.emit_impl_checked(job.verdict)
        # The worker may be wedged on this job; sever it so a fresh one
        # (respawned locally, or an external rejoin) takes its place.
        self._member_gone(lease.worker, "killed after hard timeout")

    def _lease_failed(self, lease: _Lease, reason: str) -> None:
        job = lease.job
        if job.done:
            return
        obs_events.emit(
            "lease-reclaimed",
            lease=lease.lease_id,
            job=job.job_id,
            worker=lease.worker.name,
            reason=reason,
        )
        job.attempts += 1
        job.death_reasons.append(reason)
        if job.attempts > self.options.max_retries:
            self.counters["fleet.quarantines"] += 1
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
            return
        backoff = backoff_delay(
            self.options.backoff_base,
            job.attempts,
            jitter=self.options.backoff_jitter,
            token=f"job{job.job_id}",
        )
        job.eligible_at = time.monotonic() + backoff
        self.counters["fleet.requeues"] += 1
        self._queue.append(job)
        obs_events.emit(
            "job-retry",
            job=job.job_id,
            impl=job.impl.name,
            index=job.impl_index,
            attempt=job.attempts,
            backoff=round(backoff, 6),
            reason=reason,
        )

    def _member_gone(self, member: _Member, reason: str) -> None:
        if self.members.pop(member.ordinal, None) is not None:
            self.counters["fleet.deregistrations"] += 1
            obs_events.emit(
                "worker-deregistered", worker=member.name, reason=reason
            )
        member.alive = False
        member.channel.close()
        if member.kind == "local":
            # A severed local worker that is merely partitioned will
            # reconnect on its own; a wedged one never will. SIGKILL is
            # the only safe disposition either way — the respawn path
            # restores the capacity.
            for process in self._local_procs:
                if process.pid == member.pid and process.is_alive():
                    try:
                        process.kill()
                    except (OSError, ValueError):
                        pass
        for lease_id in list(self.leases):
            lease = self.leases[lease_id]
            if lease.worker is member:
                del self.leases[lease_id]
                self._lease_failed(lease, reason)

    def _reap_local_workers(self) -> None:
        if not self._local_procs:
            return
        live = [p for p in self._local_procs if p.is_alive()]
        dead = len(self._local_procs) - len(live)
        self._local_procs = live
        want = self.options.workers - len(live)
        if dead == 0 or want <= 0:
            return
        spawn = min(want, max(self.options.respawn_budget - self._respawns, 0))
        if spawn > 0:
            self._respawns += spawn
            self.counters["fleet.respawns"] += spawn
            obs_events.emit("worker-respawn", count=spawn)
            self._spawn_local_workers(spawn)

    def _cancel_everything(self) -> None:
        for lease in list(self.leases.values()):
            if not lease.job.done:
                lease.job.verdict = deadline_verdict(lease.job, before=False)
                obs_events.emit(
                    "job-deadline",
                    job=lease.job.job_id,
                    impl=lease.job.impl.name,
                    index=lease.job.impl_index,
                    code="OL901",
                )
                obs_events.emit_impl_checked(lease.job.verdict)
        self.leases.clear()
        for job in self.jobs:
            if not job.done:
                job.verdict = deadline_verdict(job, before=True)
                obs_events.emit(
                    "job-deadline",
                    job=job.job_id,
                    impl=job.impl.name,
                    index=job.impl_index,
                    code="OL901",
                )
                obs_events.emit_impl_checked(job.verdict)
        self._queue = []

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        if not self._stop.is_set():
            obs_events.emit("server-stop", kind="coordinator", pid=os.getpid())
        self._stop.set()
        for member in list(self.members.values()):
            member.send(("shutdown",))
            member.channel.close()
        self.members.clear()
        if self._listener is not None:
            close_listener(self._listener)
        for process in self._local_procs:
            process.join(timeout=1.0)
            if process.is_alive():
                try:
                    process.kill()
                except (OSError, ValueError):
                    pass
                process.join(timeout=5.0)
        self._local_procs = []
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = []


# ----------------------------------------------------------------------
# The socket worker
# ----------------------------------------------------------------------


def fleet_worker_main(
    address: Tuple[str, int],
    *,
    token: Optional[str] = None,
    parent_pid: Optional[int] = None,
    renew_interval: float = 0.2,
    reconnect_attempts: int = 5,
    reconnect_delay: float = 0.2,
    io_timeout: float = 30.0,
    jobs_served=None,
    drain=None,
) -> None:
    """One socket worker: dial the coordinator, steal, prove, repeat.

    Runs until the coordinator says ``shutdown``, the reconnect budget
    runs out, the ``drain`` event is set (a pool-owned
    ``multiprocessing.Event``: finish the in-flight job, then exit
    instead of stealing another), or — for locally spawned workers —
    the parent process disappears (the same ``getppid`` orphan watchdog
    the pipe workers use, so a SIGKILLed coordinator never leaves
    orphans).
    """
    import signal

    from repro.obs import events as events_module
    from repro.obs import tracer as tracer_module
    from repro.testing import faults as faults_module

    # A forked child inherits the parent's ambient tracer, event journal
    # and fault plan; all are coordinator-side concerns here (fleet
    # faults are interpreted at the coordinator, frame faults on its
    # policy, and the journal records the coordinator's view).
    tracer_module._ACTIVE = None
    events_module._ACTIVE = None
    events_module._VERDICT_SINK = None
    faults_module._ACTIVE = None

    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; the *parent* coordinates shutdown (drain or terminate), so
    # a pool child must not die mid-job with a KeyboardInterrupt
    # traceback of its own.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass  # not the main thread, or an embedded interpreter

    if parent_pid is not None:
        def _watchdog():
            while True:
                if os.getppid() != parent_pid:
                    os._exit(0)
                time.sleep(0.05)

        threading.Thread(target=_watchdog, daemon=True).start()

    attempts_left = reconnect_attempts
    while attempts_left > 0:
        if drain is not None and drain.is_set():
            return
        attempts_left -= 1
        try:
            channel = connect(address, timeout=5.0)
        except TransportError:
            time.sleep(reconnect_delay)
            continue
        outcome = _worker_session(
            channel,
            token,
            renew_interval=renew_interval,
            io_timeout=io_timeout,
            jobs_served=jobs_served,
            drain=drain,
        )
        channel.close()
        if outcome in ("shutdown", "drained"):
            return
        if outcome == "registered":
            # A productive session that later lost its link: reset the
            # budget so a long run survives many transient partitions.
            attempts_left = reconnect_attempts
        time.sleep(reconnect_delay)


def _worker_session(
    channel: FramedSocket,
    token: Optional[str],
    *,
    renew_interval: float,
    io_timeout: float,
    jobs_served=None,
    drain=None,
) -> str:
    """One registration + steal/prove loop; returns why it ended."""
    try:
        channel.send(("hello", PROTOCOL, token, os.getpid(), clock_sample()))
        welcome = channel.recv(timeout=io_timeout)
    except TransportError:
        return "lost"
    if not (
        isinstance(welcome, tuple)
        and len(welcome) == 5
        and welcome[0] == "welcome"
    ):
        return "rejected"
    _, _name, scope, job_limits, explain = welcome
    registered = True
    while True:
        if drain is not None and drain.is_set():
            # Graceful drain: the in-flight job (if any) already
            # finished — stop stealing and say goodbye so the
            # coordinator deregisters us instead of reclaiming a lease.
            try:
                channel.send(("bye",))
            except TransportError:
                pass
            return "drained"
        try:
            channel.send(("steal",))
            # Short reply deadline: if the reply frame was dropped (the
            # drop-frame fault, or a lossy wire) the worker just steals
            # again rather than stalling the whole session on it.
            message = channel.recv(timeout=2.0)
        except FrameError:
            continue  # a damaged frame costs one steal, not the session
        except ReadTimeout:
            continue
        except TransportError:
            return "registered" if registered else "lost"
        if not isinstance(message, tuple) or not message:
            continue
        if message[0] == "shutdown":
            try:
                channel.send(("bye",))
            except TransportError:
                pass
            return "shutdown"
        if message[0] == "nowork":
            time.sleep(message[1] if len(message) > 1 else 0.05)
            continue
        if message[0] != "lease" or len(message) != 3:
            continue
        registered = True
        _, lease_id, request = message
        request = replace(
            request, limits=job_limits, explain=explain or request.explain
        )
        result = _prove_with_renewals(
            scope, request, channel, lease_id, renew_interval
        )
        if result is None:
            continue
        try:
            channel.send(("result", lease_id, result))
        except TransportError:
            return "registered"
        if jobs_served is not None:
            # A shared multiprocessing.Value owned by the WorkerPool: the
            # pool's status endpoint reads the sum across its processes.
            with jobs_served.get_lock():
                jobs_served.value += 1


def _prove_with_renewals(
    scope, request: JobRequest, channel: FramedSocket, lease_id: int,
    renew_interval: float,
):
    """Run one job while a side thread keeps the lease alive."""
    stop_event = threading.Event()

    def _renew():
        while not stop_event.wait(renew_interval):
            try:
                channel.send(("renew", lease_id))
            except TransportError:
                return

    renewer = threading.Thread(target=_renew, daemon=True)
    renewer.start()
    try:
        result = run_job(scope, request, stop_event)
    finally:
        stop_event.set()
        renewer.join(timeout=1.0)
    if result is None:
        return None
    try:
        import pickle

        pickle.dumps(result)
    except Exception as error:
        result = JobResult(
            job_id=request.job_id,
            attempt=request.attempt,
            failure=f"result not transportable: {type(error).__name__}: {error}",
        )
    return result


class WorkerPool:
    """A standing pool of fleet workers dialing one coordinator address.

    Owns ``jobs`` worker processes that keep dialing ``address`` until
    stopped — the pool attaches to successive fleet coordinator runs at
    that address. A shared counter tallies jobs served across the
    processes, and an optional :class:`StatusServer` (``--status``)
    answers live status queries: worker liveness, jobs served, uptime,
    and a metrics payload renderable as Prometheus text client-side.
    An optional :class:`~repro.obs.httpd.TelemetryHTTPServer`
    (``--http``) exposes the same payload to plain HTTP scrapers.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        jobs: int = 2,
        token: Optional[str] = None,
        status_address: Optional[Tuple[str, int]] = None,
        http_address: Optional[Tuple[str, int]] = None,
    ):
        self.address = address
        self.jobs = jobs
        self.token = token
        self.started = time.time()
        self._context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        # Unsigned long, lock-protected: workers increment it after each
        # successfully delivered result (see ``_worker_session``).
        self._jobs_served = self._context.Value("L", 0)
        # Set by drain(): workers finish their in-flight job, then exit
        # instead of stealing another.
        self._drain = self._context.Event()
        self._procs: List = []
        self._status_server: Optional[StatusServer] = None
        if status_address is not None:
            self._status_server = StatusServer(
                status_address, self.status, token=token
            )
        self._http_server: Optional[TelemetryHTTPServer] = None
        if http_address is not None:
            self._http_server = TelemetryHTTPServer(http_address, self.status)

    @property
    def coordinator_url(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def status_url(self) -> Optional[str]:
        if self._status_server is None:
            return None
        host, port = self._status_server.address
        return f"{host}:{port}"

    @property
    def http_url(self) -> Optional[str]:
        if self._http_server is None:
            return None
        return self._http_server.url

    def start(self) -> "WorkerPool":
        for index in range(self.jobs):
            process = self._context.Process(
                target=fleet_worker_main,
                args=(self.address,),
                kwargs={
                    "token": self.token,
                    "parent_pid": os.getpid(),
                    "reconnect_attempts": 1_000_000_000,
                    "reconnect_delay": 1.0,
                    "jobs_served": self._jobs_served,
                    "drain": self._drain,
                },
                name=f"oolong-fleet-worker-{index}",
                daemon=False,
            )
            process.start()
            self._procs.append(process)
            obs_events.emit("worker-spawn", pid=process.pid, kind="pool")
        if self._status_server is not None:
            self._status_server.start()
        if self._http_server is not None:
            self._http_server.start()
        obs_events.emit(
            "server-start",
            kind="worker-pool",
            address=self.status_url or self.coordinator_url,
            pid=os.getpid(),
            count=self.jobs,
        )
        return self

    def status(self) -> dict:
        """The pool's live status payload (served to STATUS queries)."""
        alive = [p for p in self._procs if p.is_alive()]
        with self._jobs_served.get_lock():
            served = int(self._jobs_served.value)
        metrics = MetricsRegistry()
        metrics.counters["pool.jobs_served"] = served
        metrics.counters["pool.workers_alive"] = len(alive)
        metrics.counters["pool.workers_configured"] = self.jobs
        return {
            "kind": "worker-pool",
            "coordinator": self.coordinator_url,
            "pid": os.getpid(),
            "uptime": round(time.time() - self.started, 3),
            "workers": {
                "configured": self.jobs,
                "alive": len(alive),
                "pids": [p.pid for p in alive],
            },
            "jobs_served": served,
            "metrics": metrics.to_dict(),
        }

    def join(self) -> None:
        for process in self._procs:
            process.join()

    def drain(self, timeout: float = 10.0) -> dict:
        """Graceful shutdown: let in-flight jobs finish, then stop.

        Sets the drain event (workers exit after their current job
        instead of stealing another) and waits up to ``timeout`` seconds
        total for them; stragglers still running at the deadline are
        terminated. Returns ``{"drained": n, "terminated": m}`` so the
        server entry point can announce how clean the exit was.
        """
        self._drain.set()
        deadline = time.monotonic() + max(0.0, timeout)
        drained = 0
        stragglers = []
        for process in self._procs:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                stragglers.append(process)
            else:
                drained += 1
        for process in stragglers:
            process.terminate()
        for process in stragglers:
            process.join(timeout=5.0)
        self.stop()
        return {"drained": drained, "terminated": len(stragglers)}

    def stop(self) -> None:
        obs_events.emit(
            "server-stop",
            kind="worker-pool",
            address=self.status_url or self.coordinator_url,
            pid=os.getpid(),
        )
        if self._status_server is not None:
            self._status_server.stop()
        if self._http_server is not None:
            self._http_server.stop()
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join(timeout=5.0)


def serve_workers_forever(
    address: Tuple[str, int],
    *,
    jobs: int = 2,
    token: Optional[str] = None,
    status_address: Optional[Tuple[str, int]] = None,
    http_address: Optional[Tuple[str, int]] = None,
    drain_timeout: float = 10.0,
) -> None:
    """Blocking entry point for ``oolong-check workers serve``.

    SIGTERM and SIGINT (Ctrl-C) both exit through the graceful drain
    path: workers finish their in-flight job (up to ``drain_timeout``
    seconds), the structured ``server-stop`` line is announced with the
    signal and drain outcome, and the function returns normally so the
    CLI exits 0.
    """
    import signal

    pool = WorkerPool(
        address,
        jobs=jobs,
        token=token,
        status_address=status_address,
        http_address=http_address,
    )
    pool.start()
    stop = {"reason": "exit"}

    def _on_term(signum, frame):
        stop["reason"] = "sigterm"
        raise KeyboardInterrupt

    # Handler first, announcement second: the server-start line is the
    # readiness signal scripts key on, and a SIGTERM may land the
    # moment it is printed.
    previous_term = signal.signal(signal.SIGTERM, _on_term)
    record = {
        "event": "server-start",
        "kind": "worker-pool",
        "coordinator": pool.coordinator_url,
        "workers": jobs,
        "pid": os.getpid(),
    }
    if pool.status_url is not None:
        record["address"] = pool.status_url
    if pool.http_url is not None:
        record["http"] = pool.http_url
    outcome = {"drained": 0, "terminated": 0}
    try:
        # Announce inside the try: a signal that lands the instant the
        # readiness line is printed must still drain gracefully.
        obs_events.announce(record)
        pool.join()
    except KeyboardInterrupt:
        if stop["reason"] == "exit":
            stop["reason"] = "sigint"
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        outcome = pool.drain(drain_timeout)
        obs_events.announce(
            {
                "event": "server-stop",
                "kind": "worker-pool",
                "coordinator": pool.coordinator_url,
                "pid": os.getpid(),
                "reason": stop["reason"],
                "drained": outcome["drained"],
                "terminated": outcome["terminated"],
            }
        )


def run_fleet_checks(
    scope: Scope,
    limits: Optional[Limits],
    *,
    options: FleetOptions,
    explain: bool = False,
    scope_deadline: Optional[float] = None,
    book: Optional[List[Job]] = None,
) -> FleetOutcome:
    """Assemble a fleet, run the job book's open jobs through it, return
    the jobs.

    Raises :class:`FleetUnavailable` if the fleet never assembles (the
    caller then degrades to the local supervisor with ``OL904``); a
    mid-run collapse instead returns an outcome with ``degraded`` set
    and the unfinished jobs still open, for the caller to run on the
    local supervisor.
    """
    coordinator = FleetCoordinator(
        scope,
        limits,
        options=options,
        explain=explain,
        scope_deadline=scope_deadline,
        book=book,
    )
    coordinator.start()
    return coordinator.run()
