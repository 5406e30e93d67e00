"""Deterministic fault injection for the checking pipeline.

Every stage boundary of the pipeline carries a named *injection point*:

========  ======================================================
stage     boundary
========  ======================================================
lex       :func:`repro.oolong.lexer.tokenize`
parse     :func:`repro.oolong.parser.parse_program_text` (both modes)
wellformed :func:`repro.oolong.wellformed.check_well_formed`
pivot     :func:`repro.restrictions.pivot.check_pivot_uniqueness`
lint      :func:`repro.analysis.engine.lint_scope`
vcgen     :func:`repro.vcgen.vc.vc_for_impl`
prove     :meth:`repro.vcgen.vc.VCBundle.prove`
========  ======================================================

With no plan active, :func:`fault_point` is a single global-``None``
check — cheap enough to stay in production code paths (the
``benchmarks/bench_resilience.py`` benchmark bounds the clean-path
overhead below 1%).

Under an active :class:`FaultPlan` (installed with :func:`inject`), the
n-th call to a stage can

* ``raise`` a :class:`FaultError` (modelling a crash — deliberately *not*
  a :class:`repro.errors.ReproError`, so it exercises the unexpected-
  exception paths, not the expected-diagnosis ones);
* ``delay`` by a fixed number of seconds (modelling a hang, bounded so
  the scope deadline's cooperative checking remains testable);
* ``corrupt`` the stage's return value, replacing it with a
  :class:`Corrupted` poison object whose every use raises (modelling a
  stage that returns garbage).

Plans are either built explicitly or fuzzed from a seed with
:meth:`FaultPlan.fuzz`; the same seed always yields the same plan, so CI
can sweep a fixed seed matrix and any failure reproduces locally.

This module holds the null paths the pipeline calls and the stage
vocabulary. The armed machinery (:class:`Fault`, :class:`FaultPlan`,
the injector, :func:`inject`, :class:`FaultError`, :class:`Corrupted`)
lives in :mod:`repro.testing.plans` and loads on first access to any of
those names here (PEP 562), so a plain check never compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

# Injection points are the pipeline's canonical stage names — the same
# vocabulary the tracer spans use, so traces and injected faults line up
# (re-exported here; the single definition lives in repro.obs.stages).
from repro.obs.stages import STAGES

if TYPE_CHECKING:
    from repro.testing.plans import Fault, Injector

#: Every fault action a plan may request.
ACTIONS: Tuple[str, ...] = ("raise", "delay", "corrupt")

#: Fault kinds interpreted by the *parallel supervisor*
#: (:mod:`repro.parallel.supervisor`) rather than by an in-process
#: ``fault_point`` call. For these the ``hit`` index is the **job
#: index** (the deterministic scheduling order of per-implementation
#: proof jobs), not a per-stage call counter — so a plan names "kill the
#: worker running job #2" independently of how jobs land on workers:
#:
#: * ``worker-kill`` — the worker assigned the job dies with
#:   ``os._exit`` before proving (first attempt only, so retries can be
#:   observed to succeed);
#: * ``worker-hang`` — the worker freezes *uncooperatively*: its
#:   heartbeat thread stops and the job never returns (first attempt
#:   only), exercising lost-heartbeat detection and the hard kill;
#: * ``cache-corrupt`` — the result-cache entry published for the job is
#:   overwritten with garbage bytes after the store, exercising checksum
#:   rejection on the next run.
#:
#: They are kept out of :data:`STAGES` so existing seeded fuzz plans are
#: unchanged; sweep them explicitly via ``FaultPlan.fuzz(seed,
#: stages=SUPERVISOR_STAGES)``.
SUPERVISOR_STAGES: Tuple[str, ...] = (
    "worker-kill",
    "worker-hang",
    "cache-corrupt",
)

#: Fault kinds interpreted by the *coordinator process itself* — the run
#: ledger (:mod:`repro.parallel.ledger`) and the report merge in
#: :mod:`repro.vcgen.checker`. They model the coordinator dying or its
#: write-ahead ledger being damaged, and drive the ``--resume``
#: differential tests in ``tests/test_chaos.py``:
#:
#: * ``kill-coordinator`` — the coordinator exits with ``os._exit(137)``
#:   (modelling SIGKILL: no atexit hooks, no flush; only fsync'd ledger
#:   records survive) immediately after the ``hit``-th ledger commit;
#: * ``kill-during-merge`` — the coordinator exits with ``os._exit(137)``
#:   at the ``hit``-th merge of a finished job into the report —
#:   *after* the verdict was committed but before it was reported;
#: * ``truncate-ledger-tail`` — after the ``hit``-th commit the ledger's
#:   trailing bytes are chopped mid-record, modelling a torn write the
#:   resume reader must skip (OL905), not crash on;
#: * ``duplicate-commit`` — the ``hit``-th ledger record is appended
#:   twice, exercising the reader's dedupe (no impl re-reported, no
#:   impl re-proved).
#:
#: As with the other out-of-process stages the ``hit`` index is a
#: deterministic ordinal (the commit/merge sequence number), and the
#: stages stay out of :data:`STAGES` so existing seeded fuzz plans are
#: unchanged; sweep them with ``FaultPlan.fuzz(seed,
#: stages=COORDINATOR_STAGES)``.
COORDINATOR_STAGES: Tuple[str, ...] = (
    "kill-coordinator",
    "kill-during-merge",
    "truncate-ledger-tail",
    "duplicate-commit",
)


#: The active injector, or None. Writes happen only inside :func:`inject`;
#: the clean path reads it once per stage boundary.
_ACTIVE: Optional[Injector] = None


def fault_point(stage: str, value=None):
    """A named injection point; returns ``value`` (possibly poisoned).

    Pipeline modules call this at their stage boundary, threading the
    stage's result through so ``corrupt`` faults can replace it. With no
    active plan this is a no-op returning ``value`` unchanged.
    """
    injector = _ACTIVE
    if injector is None:
        return value
    return injector.on_hit(stage, value)


def supervisor_fault_hits(stage: str) -> Dict[int, Fault]:
    """The active plan's faults at a supervisor stage, keyed by job index.

    Used by :mod:`repro.parallel.supervisor`: worker/cache faults are
    interpreted *in the supervisor*, not at an in-process
    :func:`fault_point`, because the action (SIGKILL a child, corrupt a
    cache file) spans process boundaries. Returns an empty mapping when
    no plan is active or the stage has no faults planned.
    """
    injector = _ACTIVE
    if injector is None:
        return {}
    return {
        fault.hit: fault
        for fault in injector.plan.faults
        if fault.stage == stage
    }


def record_supervisor_fault(stage: str, hit: int, action: str) -> None:
    """Log a supervisor-interpreted fault as fired (for test inspection).

    Mirrors what :meth:`Injector.on_hit` does for in-process faults, so
    ``injector.fired`` reflects supervisor faults too.
    """
    injector = _ACTIVE
    if injector is not None:
        injector.fired.append((stage, hit, action))


#: The armed names, each resolved from :mod:`repro.testing.plans` on
#: first access.
_ARMED = frozenset(
    ("Corrupted", "Fault", "FaultError", "FaultPlan", "Injector", "inject")
)


def __getattr__(name):
    if name not in _ARMED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.testing import plans

    return getattr(plans, name)
