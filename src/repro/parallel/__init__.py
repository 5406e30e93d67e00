"""``repro.parallel`` — supervised multi-process checking.

The paper's modular-soundness result (scope monotonicity) makes every
per-implementation verdict independent of the others; this package
exploits that independence for throughput *and* robustness:

* :mod:`repro.parallel.jobs` — the job book every backend checks
  from: one :class:`Job` per implementation, and the settle step each
  decided verdict takes;
* :mod:`repro.parallel.policy` — the job policy of the ``-j`` executor:
  the queue with deterministic jittered backoff, each attempt's
  injected fault and hard deadline, and every outcome with its journal
  records — a filed result, retry or quarantine (``OL902``), hard
  timeout and scope-budget cancellation (``OL901``);
* :mod:`repro.parallel.supervisor` — the ``-j`` transport: a
  :class:`WorkerSupervisor` running jobs on process-isolated pipe
  workers, detecting deaths (exit code, killing signal, lost heartbeat)
  and hard-timeout overruns (SIGKILL, not a cooperative poll), with a
  deterministic declaration-order merge;
* :mod:`repro.parallel.worker` — the long-lived worker process: one
  duplex pipe, a heartbeat thread, and the same per-implementation
  crash isolation the serial driver uses;
* :mod:`repro.parallel.cache` — a crash-safe incremental result cache:
  verdicts keyed by a content hash of (implementation source, scope
  interface, limits, code version), published with atomic
  temp-file+rename and a per-entry checksum, LRU-bounded on disk with
  ``max_bytes``, so a ``kill -9`` loses at most the in-flight jobs and
  corrupted or version-skewed entries are rejected (``OL903``) and
  recomputed;
* :mod:`repro.parallel.ledger` — the crash-safe run ledger behind
  ``--run-dir``/``--resume``.

Entry points: ``check_scope(parallel=N, cache_dir=...)``,
``check_program*`` with the same keywords, and the CLI (``oolong-check
-j N``).
"""

import importlib

#: Each public name and the submodule that defines it. Submodules load
#: on first access (PEP 562), so the serial checker's job book
#: (``repro.parallel.jobs``) does not pull in multiprocessing.
_EXPORTS = {
    "CACHEABLE_STATUSES": "cache",
    "ResultCache": "cache",
    "atomic_write_text": "cache",
    "cache_key": "cache",
    "code_version": "cache",
    "validate_entry": "cache",
    "Job": "jobs",
    "build_jobs": "jobs",
    "backoff_delay": "policy",
    "jitter_fraction": "policy",
    "ParallelOptions": "supervisor",
    "ParallelOutcome": "supervisor",
    "WorkerSupervisor": "supervisor",
    "run_parallel_checks": "supervisor",
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
