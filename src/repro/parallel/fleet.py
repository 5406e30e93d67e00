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
lease expire and the coordinator reclaims the job. This module is
transport only — sockets, leases, membership, local respawn and the
``fleet.*`` counters. What a reclaimed lease, a hard-timeout overrun or
an expired scope budget means for the job is decided by the job policy
the local supervisor follows too (:class:`repro.parallel.policy.JobPolicy`),
so retries, ``OL902`` quarantine and both ``OL901`` outcomes read the
same on either backend. A lease frame that never reached its worker is
requeued without charging an attempt. Verdicts are merged in job order,
so a fleet report is byte-identical to a serial one modulo
timing/worker fields — regardless of worker count, membership churn, or
which frames the network ate.

Degradation, not failure: if the fleet cannot be assembled
(:class:`FleetUnavailable`) or collapses mid-run, the checker falls back
to the local supervisor with an ``OL904`` warning; a fleet outage never
costs a verdict.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.obs import events as obs_events
from repro.oolong.program import Scope
from repro.parallel.jobs import Job, build_jobs
from repro.parallel.policy import JobPolicy, mp_context
from repro.obs.httpd import TelemetryHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.parallel.transport import (
    ConnectionClosed,
    FramedSocket,
    FrameError,
    FramePolicy,
    Listener,
    ReadTimeout,
    StatusServer,
    TransportError,
    clock_offset,
    clock_sample,
    dial,
    encode_frame,
    greet,
    parse_address,
)
from repro.parallel.worker import (
    JobRequest,
    JobResult,
    detach_from_parent,
    encode_result,
    run_job,
)
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
    #: Retry backoff base, as in the local supervisor.
    backoff_base: float = 0.05
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
        #: The job book; jobs already done when the run starts are left
        #: as they are.
        self.jobs = book if book is not None else build_jobs(scope)
        self.policy = JobPolicy(
            self.jobs, limits, options, scope_deadline, explain
        )
        self.members: Dict[int, _Member] = {}
        self.leases: Dict[int, _Lease] = {}
        self._next_lease_id = 0
        self._next_ordinal = 0
        self._events: "queue.Queue" = queue.Queue()
        self._ordinal_lock = threading.Lock()
        self._listener: Optional[Listener] = None
        self._stop = threading.Event()
        self._local_procs: List[multiprocessing.Process] = []
        self._respawns = 0
        self._policy = FramePolicy()
        self._partition_faults = supervisor_fault_hits("partition-worker")
        self._churn_faults = supervisor_fault_hits("worker-churn")
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
            self._listener = Listener(
                self.options.address,
                self._register_and_read,
                name="fleet",
                policy=self._policy,
            )
        except TransportError as exc:
            raise FleetUnavailable(str(exc)) from exc
        host, port = self.bound_address
        obs_events.emit(
            "server-start",
            kind="coordinator",
            address=f"{host}:{port}",
            pid=os.getpid(),
        )
        self._listener.start()
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
            self._handle_event(event)

    @property
    def bound_address(self) -> Tuple[str, int]:
        assert self._listener is not None
        return self._listener.address

    def _spawn_local_workers(self, count: int) -> None:
        context = mp_context()
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
            _start_worker(process)
            self._local_procs.append(process)
            obs_events.emit("worker-spawn", pid=process.pid, kind="local")

    # ------------------------------------------------------------------
    # Connection handling (threads feeding the event queue)
    # ------------------------------------------------------------------

    def _register_and_read(self, channel: FramedSocket) -> None:
        hello = greet(channel, (PROTOCOL,), self.options.token)
        if hello is None:
            return
        pid = hello[3] if len(hello) > 3 and isinstance(hello[3], int) else None
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
            self.policy.job_limits,
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
        workers = self.options.workers or len(self.members)
        with self.policy.traced("fleet", workers=workers) as tracer:
            try:
                degraded = self._schedule() if self.policy.queue else None
            finally:
                self.shutdown()
            if tracer is not None:
                for name, value in self.counters.items():
                    if value:
                        tracer.metrics.inc(name, value)
        return FleetOutcome(
            jobs=self.jobs, summary=dict(self.counters), degraded=degraded
        )

    def _schedule(self) -> Optional[str]:
        """Lease jobs to stealing workers until the book closes.

        Returns None on a clean finish, or a degradation reason when the
        fleet collapsed with jobs still open.
        """
        stalled_since: Optional[float] = None
        while self._open_jobs():
            now = time.monotonic()
            if self.policy.expired(now):
                inflight = [lease.job for lease in self.leases.values()]
                self.leases.clear()
                self.policy.cancel(inflight)
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
            deadlines = [
                deadline
                for lease in self.leases.values()
                for deadline in (lease.lease_deadline, lease.job_deadline)
            ]
            try:
                event = self._events.get(
                    timeout=self.policy.wait_hint(now, deadlines)
                )
            except queue.Empty:
                continue
            self._handle_event(event)
        return None

    def _open_jobs(self) -> bool:
        return any(not job.done for job in self.jobs)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def _handle_event(self, event) -> None:
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
            self._handle_message(member, message)

    def _member_holds_lease(self, member: _Member) -> bool:
        return any(l.worker is member for l in self.leases.values())

    def _handle_message(self, member: _Member, message) -> None:
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
            self._handle_result(member, message[1], message[2])
        elif kind == "bye":
            self._member_gone(member, "worker said goodbye")

    def _lease_to(self, member: _Member) -> None:
        if not member.alive:
            return
        now = time.monotonic()
        job = self.policy.next_eligible(now)
        if job is None:
            member.send(("nowork", max(self.policy.wait_hint(now), 0.01)))
            return
        request, job_deadline = self.policy.begin_attempt(job, now)
        lease_id = self._next_lease_id
        self._next_lease_id += 1
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
            self.policy.queue.append(job)
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

    def _handle_result(
        self, member: _Member, lease_id: int, result: JobResult
    ) -> None:
        lease = self.leases.pop(lease_id, None)
        if lease is None or lease.job.done:
            self.counters["fleet.stale_results"] += 1
            return
        self.policy.file_result(
            lease.job,
            result,
            worker=lease.worker.name,
            started=lease.started,
            offset=lease.worker.clock_offset,
            lease=lease_id,
        )
        member.jobs_completed += 1
        if member.churn_after_result:
            member.churn_after_result = False
            self.counters["fleet.churn"] += 1
            record_supervisor_fault("worker-churn", member.ordinal, "raise")
            obs_events.emit("worker-churn", worker=member.name)
            member.send(("shutdown",))
            self._member_gone(member, "churned after first result")

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
        self.policy.hard_timeout(
            lease.job, lease.worker.name, lease=lease.lease_id
        )
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
        if self.policy.retry_or_quarantine(job, reason):
            self.counters["fleet.requeues"] += 1
        else:
            self.counters["fleet.quarantines"] += 1

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
            self._listener.stop()
        for process in self._local_procs:
            process.join(timeout=1.0)
            if process.is_alive():
                try:
                    process.kill()
                except (OSError, ValueError):
                    pass
                process.join(timeout=5.0)
        self._local_procs = []


# ----------------------------------------------------------------------
# The socket worker
# ----------------------------------------------------------------------


_HELD_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _start_worker(process) -> None:
    """Start a :func:`fleet_worker_main` process with SIGINT and SIGTERM
    held until it has set its own handlers: one landing before (a
    ``killpg`` right after ``server-start``) would run ours in the child.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD_SIGNALS)
    try:
        process.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


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
    orphans). A pool worker (one given ``drain``) takes ``shutdown`` as
    the end of one coordinator's run: it redials with a fresh budget,
    for the next run at the same address.
    """
    # Fleet faults are interpreted at the coordinator, frame faults on
    # its transport policy.
    detach_from_parent()

    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; the *parent* coordinates shutdown (drain or terminate), so
    # a pool child must not die mid-job with a KeyboardInterrupt
    # traceback of its own. SIGTERM (also the parent's ``terminate()``)
    # takes the default action, not the drain handler a serving parent
    # installed before forking this child.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass  # not the main thread, or an embedded interpreter
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _HELD_SIGNALS)

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
            channel, welcome = dial(
                address,
                PROTOCOL,
                token,
                os.getpid(),
                clock_sample(),
                timeout=io_timeout,
                connect_timeout=5.0,
            )
        except TransportError:
            time.sleep(reconnect_delay)
            continue
        if len(welcome) != 5:
            channel.close()  # refused, like a reject: no budget reset
            time.sleep(reconnect_delay)
            continue
        outcome = _worker_session(
            channel,
            welcome,
            renew_interval=renew_interval,
            jobs_served=jobs_served,
            drain=drain,
        )
        channel.close()
        if outcome == "drained" or (outcome == "shutdown" and drain is None):
            return
        # A registered session that later lost its link, or a pool
        # worker's finished run: reset the budget so a long run survives
        # many transient partitions, and a pool many runs.
        attempts_left = reconnect_attempts
        time.sleep(reconnect_delay)


def _worker_session(
    channel: FramedSocket,
    welcome: tuple,
    *,
    renew_interval: float,
    jobs_served=None,
    drain=None,
) -> str:
    """The steal/prove loop of one registration; returns why it ended."""
    _, _name, scope, job_limits, explain = welcome
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
            return "lost"
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
        _, lease_id, request = message
        request = replace(
            request, limits=job_limits, explain=explain or request.explain
        )
        result = _prove_with_renewals(
            scope, request, channel, lease_id, renew_interval
        )
        if result is None:
            continue
        # A pickling error or a frame over MAX_FRAME is raised before any
        # byte is written, so it costs only this job (see encode_result).
        frame = encode_result(
            lambda message: encode_frame(("result", lease_id, message)),
            request,
            result,
        )
        try:
            channel.send_frame(frame)
        except TransportError:
            return "lost"
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
        self._context = mp_context()
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
            try:
                self._http_server = TelemetryHTTPServer(http_address, self.status)
            except BaseException:
                if self._status_server is not None:
                    self._status_server.stop()
                raise

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
            _start_worker(process)
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

    def wait(self) -> None:
        """Block until every worker process has exited."""
        for process in self._procs:
            process.join()

    def announcement(self, starting: bool) -> dict:
        """This pool's fields of its ``server-start``/``server-stop``
        stdout records (see :func:`~repro.parallel.transport.serve_forever`)."""
        record = {"kind": "worker-pool", "coordinator": self.coordinator_url}
        if starting:
            record["workers"] = self.jobs
            if self.status_url is not None:
                record["address"] = self.status_url
            if self.http_url is not None:
                record["http"] = self.http_url
        return record

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
