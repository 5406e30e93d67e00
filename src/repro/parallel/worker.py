"""The process-isolated proof worker.

A worker is a long-lived child process owning one end of a duplex pipe.
It receives :class:`JobRequest` messages, proves the named
implementation with the same per-implementation isolation the serial
driver uses (:func:`repro.vcgen.checker._check_impl`), and sends a
:class:`JobResult` back. The result carries the verdict without its
``ImplDecl`` (the parent re-anchors it on its own) and the advisory
explain-crash diagnostic; when the parent journals, the request says so,
and the records the worker journaled for the job (its spans, re-rooted
under the supervisor's job span at merge time) ride along too.

A forked worker inherits its parent's scope, with the prover background
the supervisor prepared before forking, so its first job resumes from it
like every later one.

Liveness is reported out-of-band: a daemon thread stamps the current
monotonic time into a shared double at a fixed interval. The supervisor
reads the stamp to distinguish a worker that is *busy* (heartbeat fresh,
job slow → enforce the job timeout) from one that is *gone* (heartbeat
stale → treat as worker death and retry the job elsewhere).

Injected faults (``worker-kill``/``worker-hang``) arrive as part of the
job request — decided by the parent's supervisor
(:class:`repro.parallel.supervisor.WorkerSupervisor`) from the active
:class:`repro.testing.faults.FaultPlan`, so fault placement is keyed by
deterministic job index, never by which worker happened to pick the job
up. ``kill`` exits the process hard (``os._exit``, modelling SIGKILL by
the OOM killer); ``hang`` stops the heartbeat thread *and* never
returns, modelling a frozen interpreter that no cooperative deadline
can observe.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any, List, Optional

from repro.prover.core import Limits
from repro.record import Record, field

_set = object.__setattr__

#: Exit code used by the ``worker-kill`` injected fault (distinguishable
#: from genuine crashes in tests and logs).
KILL_EXIT_CODE = 113

#: Seconds between heartbeat stamps written by the worker's beat thread.
HEARTBEAT_INTERVAL = 0.05


class JobRequest(Record, frozen=True):
    """One per-implementation proof job, as sent over the pipe."""

    job_id: int
    proc_name: str
    #: Index among the implementations of ``proc_name`` (the serial
    #: driver's ``enumerate`` index — part of the verdict's identity).
    impl_index: int
    attempt: int = 0
    limits: Optional[Limits] = None
    explain: bool = False
    #: Supervisor-decided fault injection: None, "kill", or "hang".
    inject: Optional[str] = None
    #: Journal the job and ship its records (the parent journals).
    journal: bool = False

    def __init__(
        self,
        job_id,
        proc_name,
        impl_index,
        attempt=0,
        limits=None,
        explain=False,
        inject=None,
        journal=False,
    ):
        _set(self, "job_id", job_id)
        _set(self, "proc_name", proc_name)
        _set(self, "impl_index", impl_index)
        _set(self, "attempt", attempt)
        _set(self, "limits", limits)
        _set(self, "explain", explain)
        _set(self, "inject", inject)
        _set(self, "journal", journal)


class JobResult(Record):
    """What a worker sends back for one completed job."""

    job_id: int
    attempt: int
    #: The job's ``ImplVerdict``, sent without its ``ImplDecl``
    #: (``impl`` is None): the parent puts its own on receipt, so
    #: report identities match the parent's scope exactly, and the AST
    #: is most of what a verdict would pickle.
    verdict: Any = None
    #: Advisory OL900 warning when the explainer crashed (see
    #: ``_check_impl``); the verdict itself survived.
    explain_crash: Any = None
    #: The records the worker journaled for this job, empty unless the
    #: request asked for them.
    records: List[dict] = field(default_factory=list)
    #: Set when the job raised outside the verdict isolation layer
    #: (should not happen; surfaces as INTERNAL_ERROR parent-side).
    failure: Optional[str] = None


def _beat(heartbeat, stop_event: threading.Event, supervisor_pid: int) -> None:
    """Stamp liveness — and watch for an orphaned worker.

    If the supervisor is SIGKILLed, its ``daemon=True`` cleanup never
    runs (that is atexit machinery), and pipe EOF is not reliable either:
    forked siblings inherit copies of the parent-side pipe ends, keeping
    the write end open. The only robust orphan signal is the parent pid
    changing (re-parented to init), so the beat thread doubles as the
    orphan watchdog and hard-exits the process.
    """
    while not stop_event.is_set():
        heartbeat.value = time.monotonic()
        if os.getppid() != supervisor_pid:
            os._exit(0)
        stop_event.wait(HEARTBEAT_INTERVAL)


def detach_from_parent() -> None:
    """Drop the event journal and fault plan a forked worker inherits.

    Both are parent-side concerns: a job's records ship home with its
    result, and worker faults are placed by the parent's supervisor.
    """
    from repro.obs import events as events_module
    from repro.testing import faults as faults_module

    events_module._ACTIVE = None
    faults_module._ACTIVE = None


def worker_main(
    conn, heartbeat, scope, worker_id: int, supervisor_pid: int
) -> None:
    """The worker process entry point.

    ``scope`` is the already-desugared scope (inherited via fork, or
    pickled once at spawn); every job only names an implementation
    inside it. The loop exits on EOF, an explicit ``None`` sentinel, or
    the death of the supervisor process (see :func:`_beat`).
    ``supervisor_pid`` is recorded by the supervisor itself at spawn
    time, so the orphan watchdog works even if the supervisor dies
    before this process first runs.
    """
    detach_from_parent()
    stop_event = threading.Event()
    beat_thread = threading.Thread(
        target=_beat, args=(heartbeat, stop_event, supervisor_pid), daemon=True
    )
    beat_thread.start()

    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            if request is None:
                break
            result = _run_job(scope, request, stop_event)
            if result is None:
                continue
            payload = encode_result(request, result)
            try:
                conn.send_bytes(payload)
            except (OSError, ValueError):
                break
    finally:
        stop_event.set()


def encode_result(request: JobRequest, result: JobResult) -> bytes:
    """``result`` pickled for the pipe.

    A result that does not pickle (an unpicklable object smuggled into
    an explanation, say) is replaced by a ``result not transportable``
    failure, which the parent files as an ``INTERNAL_ERROR``/``OL900``
    verdict for that job alone.
    """
    try:
        return ForkingPickler.dumps(result)
    except Exception as error:
        return ForkingPickler.dumps(
            JobResult(
                job_id=request.job_id,
                attempt=request.attempt,
                failure=(
                    "result not transportable: "
                    f"{type(error).__name__}: {error}"
                ),
            )
        )


def _run_job(scope, request: JobRequest, stop_event) -> Optional[JobResult]:
    from repro.obs import EventJournal, journaling
    from repro.vcgen.checker import _check_impl

    if request.inject == "kill":
        os._exit(KILL_EXIT_CODE)
    if request.inject == "hang":
        # An uncooperative freeze: the heartbeat stops and the job never
        # completes. The supervisor must notice via the stale heartbeat
        # (or the hard job timeout) and SIGKILL this process.
        stop_event.set()
        while True:
            time.sleep(3600)

    impls = scope.impls_of(request.proc_name)
    if request.impl_index >= len(impls):
        return JobResult(
            job_id=request.job_id,
            attempt=request.attempt,
            failure=(
                f"no implementation {request.proc_name!r}"
                f"#{request.impl_index} in worker scope"
            ),
        )
    impl = impls[request.impl_index]

    journal = EventJournal(run_id="job") if request.journal else None
    try:
        with journaling(journal):
            verdict, explain_crash = _check_impl(
                scope,
                impl,
                request.impl_index,
                request.limits,
                None,  # the scope deadline is enforced by the supervisor
                request.explain,
            )
        verdict.impl = None  # the parent re-anchors it on its own AST
        return JobResult(
            job_id=request.job_id,
            attempt=request.attempt,
            verdict=verdict,
            explain_crash=explain_crash,
            records=journal.records if journal is not None else [],
        )
    except Exception as error:  # pragma: no cover — _check_impl isolates
        import traceback

        return JobResult(
            job_id=request.job_id,
            attempt=request.attempt,
            failure="".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
        )
