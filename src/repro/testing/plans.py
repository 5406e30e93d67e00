"""Fault plans and the injector that arms them.

The armed half of :mod:`repro.testing.faults`: :class:`Fault`,
:class:`FaultPlan` (built explicitly or fuzzed from a seed), the
:class:`Injector` that counts stage hits and fires planned faults, and
:func:`inject`, which installs one for a ``with`` block. A plain check
runs only the null paths in :mod:`repro.testing.faults` and never loads
this module; every name here stays importable from there too.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from time import sleep
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.record import Record, field
from repro.testing import faults
from repro.testing.faults import (
    ACTIONS,
    COORDINATOR_STAGES,
    STAGES,
    SUPERVISOR_STAGES,
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


class Fault(Record, frozen=True):
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


class FaultPlan(Record, frozen=True):
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


class Injector(Record):
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


@contextmanager
def inject(plan: FaultPlan) -> Iterator[Injector]:
    """Activate ``plan`` for the duration of the ``with`` block.

    Yields the live :class:`Injector` so tests can inspect which faults
    actually fired. Nested activation is rejected: overlapping plans
    would make runs non-deterministic.
    """
    if faults._ACTIVE is not None:
        raise RuntimeError("fault injection is already active")
    injector = Injector(plan)
    faults._ACTIVE = injector
    try:
        yield injector
    finally:
        faults._ACTIVE = None
