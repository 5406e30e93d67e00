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
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import sleep
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Injection points are the pipeline's canonical stage names — the same
# vocabulary the tracer spans use, so traces and injected faults line up
# (re-exported here; the single definition lives in repro.obs.stages).
from repro.obs.stages import STAGES

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


class FaultError(RuntimeError):
    """The exception injected by ``raise`` faults (and raised by poison
    values). Intentionally outside the ``ReproError`` hierarchy: it
    models an internal crash, not a user-facing diagnosis."""


class Corrupted:
    """An opaque poison value: any attribute access or truth test raises.

    Returned by ``corrupt`` faults in place of a stage's real result, so
    whatever the next stage does with it blows up with a
    :class:`FaultError` — exercising the driver's isolation layer.
    """

    def __init__(self, origin: str = "?"):
        object.__setattr__(self, "_origin", origin)

    def __getattr__(self, name: str):
        raise FaultError(
            f"use of corrupted {object.__getattribute__(self, '_origin')} "
            f"value (attribute {name!r})"
        )

    def __bool__(self) -> bool:
        raise FaultError(
            f"truth test on corrupted "
            f"{object.__getattribute__(self, '_origin')} value"
        )

    def __repr__(self) -> str:
        return f"<Corrupted from {object.__getattribute__(self, '_origin')}>"


@dataclass(frozen=True)
class Fault:
    """One planned fault: act on the ``hit``-th call to ``stage``."""

    stage: str
    action: str
    hit: int = 0
    delay: float = 0.0

    def __post_init__(self):
        known = STAGES + SUPERVISOR_STAGES + COORDINATOR_STAGES
        if self.stage not in known:
            raise ValueError(
                f"unknown stage {self.stage!r}; known: {known}"
            )
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; known: {ACTIONS}")
        if self.hit < 0:
            raise ValueError("hit index must be non-negative")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults, applied while :func:`inject` is active."""

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def fuzz(
        cls,
        seed: int,
        *,
        stages: Sequence[str] = STAGES,
        max_faults: int = 3,
        max_hit: int = 2,
        max_delay: float = 0.05,
    ) -> "FaultPlan":
        """A pseudo-random plan fully determined by ``seed``.

        ``stages`` restricts which injection points may fault; ``max_hit``
        bounds the per-stage call index a fault may target; ``max_delay``
        bounds injected sleeps (keep it well under any deadline a test
        asserts, since a sleeping stage cannot observe the deadline).
        """
        rng = random.Random(seed)
        count = rng.randint(1, max(1, max_faults))
        faults: List[Fault] = []
        for _ in range(count):
            action = rng.choice(ACTIONS)
            faults.append(
                Fault(
                    stage=rng.choice(tuple(stages)),
                    action=action,
                    hit=rng.randint(0, max(0, max_hit)),
                    delay=rng.uniform(0.001, max_delay)
                    if action == "delay"
                    else 0.0,
                )
            )
        return cls(tuple(faults))

    def describe(self) -> str:
        if not self.faults:
            return "no faults"
        return ", ".join(
            f"{f.action}@{f.stage}#{f.hit}"
            + (f"({f.delay:.3f}s)" if f.action == "delay" else "")
            for f in self.faults
        )


@dataclass
class Injector:
    """Live state of an active plan: per-stage hit counters and a log."""

    plan: FaultPlan
    counts: Dict[str, int] = field(default_factory=dict)
    #: Every fault actually fired, as ``(stage, hit, action)`` triples.
    fired: List[Tuple[str, int, str]] = field(default_factory=list)

    def on_hit(self, stage: str, value):
        index = self.counts.get(stage, 0)
        self.counts[stage] = index + 1
        for fault in self.plan.faults:
            if fault.stage != stage or fault.hit != index:
                continue
            self.fired.append((stage, index, fault.action))
            if fault.action == "raise":
                raise FaultError(f"injected crash at {stage}#{index}")
            if fault.action == "delay":
                sleep(fault.delay)
            elif fault.action == "corrupt":
                value = Corrupted(f"{stage}#{index}")
        return value


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


@contextmanager
def inject(plan: FaultPlan) -> Iterator[Injector]:
    """Activate ``plan`` for the duration of the ``with`` block.

    Yields the live :class:`Injector` so tests can inspect which faults
    actually fired. Nested activation is rejected: overlapping plans
    would make runs non-deterministic.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("fault injection is already active")
    injector = Injector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
