"""``repro.parallel`` — supervised multi-process and distributed checking.

The paper's modular-soundness result (scope monotonicity) makes every
per-implementation verdict independent of the others; this package
exploits that independence for throughput *and* robustness:

* :mod:`repro.parallel.jobs` — the job book every backend checks
  from: one :class:`Job` per implementation, and the settle step each
  decided verdict takes;
* :mod:`repro.parallel.policy` — the one job policy both executors
  follow: the queue with deterministic jittered backoff, each attempt's
  injected fault and hard deadline, and every outcome with its journal
  records — a filed result, retry or quarantine (``OL902``), hard
  timeout and scope-budget cancellation (``OL901``) — so every
  executor fails identically;
* :mod:`repro.parallel.supervisor` — the ``-j`` transport: a
  :class:`WorkerSupervisor` running jobs on process-isolated pipe
  workers, detecting deaths (exit code, killing signal, lost heartbeat)
  and hard-timeout overruns (SIGKILL, not a cooperative poll), with a
  deterministic declaration-order merge;
* :mod:`repro.parallel.worker` — the long-lived worker process: one
  duplex pipe, a heartbeat thread, and the same per-implementation
  crash isolation the serial driver uses;
* :mod:`repro.parallel.transport` — length-prefixed, checksummed socket
  framing with read deadlines; a damaged frame is rejected (and the
  stream resynchronised) rather than trusted. It also holds how every
  endpoint admits a peer: ``Listener`` (bind, one accept thread, a
  thread per connection), ``greet`` (the server's hello and token
  check) and ``dial`` (the client's hello); and the standing worker
  pool's :func:`serve_forever`, its SIGTERM/^C announce-and-drain
  loop, and :func:`query_status`, its ``oolong-status-1`` client;
* :mod:`repro.parallel.fleet` — the distributed transport: a socket
  coordinator handing out *renewable leases* to a fleet of local and/or
  remote workers via work stealing; expired leases go back to the job
  policy, and an unreachable or collapsed fleet degrades to the local
  supervisor with ``OL904`` — never a failed run;
* :mod:`repro.parallel.cache` — a crash-safe incremental result cache:
  verdicts keyed by a content hash of (implementation source, scope
  interface, limits, code version), published with atomic
  temp-file+rename and a per-entry checksum, LRU-bounded on disk with
  ``max_bytes``, so a ``kill -9`` loses at most the in-flight jobs and
  corrupted or version-skewed entries are rejected (``OL903``) and
  recomputed.

Entry points: ``check_scope(parallel=N | fleet=..., cache_dir=...)``,
``check_program*`` with the same keywords, and the CLI (``oolong-check
-j N | --fleet N|HOST:PORT``, ``oolong-check workers serve``).
"""

import importlib

#: Each public name and the submodule that defines it. Submodules load
#: on first access (PEP 562), so the serial checker's job book
#: (``repro.parallel.jobs``) does not pull in multiprocessing, sockets
#: and the HTTP server.
_EXPORTS = {
    "CACHEABLE_STATUSES": "cache",
    "ResultCache": "cache",
    "atomic_write_text": "cache",
    "cache_key": "cache",
    "code_version": "cache",
    "validate_entry": "cache",
    "FleetCoordinator": "fleet",
    "FleetOptions": "fleet",
    "FleetOutcome": "fleet",
    "FleetUnavailable": "fleet",
    "fleet_worker_main": "fleet",
    "run_fleet_checks": "fleet",
    "Job": "jobs",
    "build_jobs": "jobs",
    "backoff_delay": "policy",
    "jitter_fraction": "policy",
    "ParallelOptions": "supervisor",
    "ParallelOutcome": "supervisor",
    "WorkerSupervisor": "supervisor",
    "run_parallel_checks": "supervisor",
    "ConnectionClosed": "transport",
    "FrameError": "transport",
    "FramedSocket": "transport",
    "FramePolicy": "transport",
    "ReadTimeout": "transport",
    "TransportError": "transport",
    "parse_address": "transport",
    "query_status": "transport",
    "serve_forever": "transport",
    "KILL_EXIT_CODE": "worker",
    "JobRequest": "worker",
    "JobResult": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
