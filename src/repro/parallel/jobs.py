"""The job book: one job per implementation, and its settle step.

Both backends — serial and ``-j`` — check from one book:

* :class:`Job` — the per-implementation bookkeeping record (attempt
  counter, backoff eligibility, death history, final verdict);
* :class:`JobBook` and :func:`build_jobs` — the jobs in the serial
  driver's iteration order (the declaration order every backend's
  merged report must follow). The checker builds this book once, with
  the run's result cache and run ledger, settles what it can before
  any proving, and hands the same book to whichever executor runs the
  rest. :meth:`JobBook.settle` is the one step every decided verdict
  takes: it commits the verdict to the ledger, stores a fresh one in
  the cache and emits its ``impl-checked`` record.

How the ``-j`` executor runs the open jobs of a book — retries,
backoff, hard deadlines, cancellation — is
:mod:`repro.parallel.supervisor`. Importing this module loads neither
that executor nor ``multiprocessing``: the serial checker builds its
job book from here.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.obs import events as obs_events
from repro.oolong.ast import ImplDecl
from repro.oolong.program import Scope
from repro.record import MISSING, Record, field
from repro.testing.faults import (
    record_supervisor_fault,
    supervisor_fault_hits,
)


class Job(Record):
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

    def __init__(
        self,
        job_id,
        proc_name,
        impl_index,
        impl,
        key=None,
        attempts=0,
        eligible_at=0.0,
        death_reasons=MISSING,
        verdict=None,
        explain_crash=None,
        source=None,
    ):
        self.job_id = job_id
        self.proc_name = proc_name
        self.impl_index = impl_index
        self.impl = impl
        self.key = key
        self.attempts = attempts
        self.eligible_at = eligible_at
        self.death_reasons = [] if death_reasons is MISSING else death_reasons
        self.verdict = verdict
        self.explain_crash = explain_crash
        self.source = source

    @property
    def done(self) -> bool:
        return self.verdict is not None


class JobBook(list):
    """The jobs of one check, and what happens when one is decided.

    A list of :class:`Job` in the serial driver's order, carrying the
    run's result cache and run ledger (either may be None). Every
    decided verdict — settled up front by the checker or produced by
    an executor — goes through :meth:`settle`.
    """

    def __init__(self, *, cache=None, ledger=None):
        super().__init__()
        self.cache = cache
        self.ledger = ledger
        #: The ``OL905`` warning a failed ledger write leaves for the
        #: report.
        self.diagnostics: List[Diagnostic] = []

    def settle(
        self, job: Job, verdict, *, source: Optional[str] = None, **fields
    ) -> None:
        """Decide ``job``: set its verdict and ``source``, commit the
        verdict to the run ledger, store it in the result cache if it is
        fresh, and emit its ``impl-checked`` record.

        ``source`` is how the checker settled the job before proving
        (see :attr:`Job.source`), None for an executor's verdict.
        ``fields`` (a worker and attempt) ride on the
        ``impl-checked`` record, as does ``code``, the OL9xx code of the
        verdict's diagnostic. A ledger commit that fails to write
        becomes one ``OL905`` warning, and the ledger is off for the rest
        of the run.
        """
        job.verdict = verdict
        job.source = source
        if self.ledger is not None:
            try:
                self.ledger.commit(verdict)
            except OSError as error:
                from repro.vcgen.checker import _ledger_degraded_diagnostic

                self.diagnostics.append(
                    _ledger_degraded_diagnostic(
                        f"run ledger write failed in "
                        f"{self.ledger.run_dir!r} ({error})",
                        "later verdicts are not recorded for --resume",
                    )
                )
                self.ledger = None
        if self.cache is not None and source is None:
            self._store(job, verdict)
        error = verdict.error
        obs_events.emit(
            "impl-checked",
            impl=verdict.impl.name,
            index=verdict.index,
            status=verdict.status.name.lower(),
            **({source: True} if source is not None else {}),
            code=error.code if error is not None else None,
            **fields,
        )

    def _store(self, job: Job, verdict) -> None:
        """Store a verdict in the result cache if the codec keeps it.

        Cached verdicts must always mean "the prover said so", so only
        verdicts an executor produced get here. The ``cache-corrupt``
        fault point lives here: it damages the entry just published for
        its job index.
        """
        from repro.parallel.cache import verdict_to_payload

        payload = verdict_to_payload(verdict)
        if payload is None or job.key is None:
            return
        stored = self.cache.store(
            job.key, payload, impl=job.proc_name, index=job.impl_index
        )
        if stored and job.job_id in supervisor_fault_hits("cache-corrupt"):
            path = self.cache.path(job.key)
            try:
                with open(path, "r+") as handle:
                    handle.seek(max(os.path.getsize(path) // 2, 1))
                    handle.write("\x00GARBAGE\x00")
            except OSError:
                return
            record_supervisor_fault("cache-corrupt", job.job_id, "corrupt")


def build_jobs(
    scope: Scope,
    preresolved: Optional[Dict[Tuple[str, int], object]] = None,
    *,
    cache=None,
    ledger=None,
) -> JobBook:
    """The job book of ``scope``, in the serial driver's iteration order.

    Jobs named in ``preresolved`` (keyed ``(proc_name, index)``) start
    out done with that verdict; executors leave them alone. With a
    ``ledger``, each job takes the cache key the ledger computed when it
    opened, so the cache reads those keys rather than hashing each
    implementation again.
    """
    preresolved = preresolved or {}
    book = JobBook(cache=cache, ledger=ledger)
    for proc_name, impls in scope.impls.items():
        for index, impl in enumerate(impls):
            book.append(
                Job(
                    job_id=len(book),
                    proc_name=proc_name,
                    impl_index=index,
                    impl=impl,
                    key=(
                        ledger.keys[(proc_name, index)]
                        if ledger is not None
                        else None
                    ),
                    verdict=preresolved.get((proc_name, index)),
                )
            )
    return book
