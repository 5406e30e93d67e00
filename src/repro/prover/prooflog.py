"""Append-only proof logs and their independent replay checker.

When the solver runs in explain mode and closes a refutation, it leaves
behind a :class:`ProofLog`: one :class:`ProofStep` per reasoning event —
fact asserted, quantifier instance fired, unit propagation performed,
case split opened, branch decided, branch closed. ``UNSAT`` then stops
being a bare verdict: the log is the proof.

:func:`replay_proof_log` re-validates the log with a deliberately small
trusted kernel — the E-graph (congruence closure over ground literals)
plus a three-valued evaluator — and **none** of the solver's search
machinery: no E-matching, no relevancy filter, no split heuristics. The
checker verifies that

* every asserted instance really is a substitution instance of a
  quantifier the log previously asserted (``subst_formula`` equality);
* every unit propagation is justified: the clause it propagates from was
  genuinely derived (parked earlier on this branch) and every other
  disjunct evaluates to false;
* every case split covers *all* disjuncts of a derived clause, and every
  branch of it is closed;
* every branch closure is justified — either the ground kernel is in
  conflict, or some derived clause has every disjunct false;
* the closures compose: when the log ends, the whole refutation tree is
  closed back to the root.

The replay deliberately re-derives conflicts instead of trusting the
recorded ones, so a corrupted or fabricated log is rejected.

This module holds the step records the solver journals; the kernel
itself lives in :mod:`repro.prover.replay` and loads on the first
replay, so a solver that only journals never compiles it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.logic.terms import Forall, Formula, Or, Term

#: Step kinds, in the vocabulary the solver journals.
STEP_FACT = "fact"
STEP_INSTANCE = "instance"
STEP_PROPAGATE = "propagate"
STEP_SPLIT = "split"
STEP_BRANCH = "branch"
STEP_CLOSE = "close"
STEP_END_SPLIT = "end-split"

#: Close justifications.
CLOSE_KERNEL = "kernel"  # the ground kernel (E-graph) is inconsistent
CLOSE_CLAUSE = "clause"  # a derived clause has every disjunct refuted


def flatten_forall(formula: Forall) -> Forall:
    """Merge a ``Forall`` prefix into one quantifier (solver pooling form).

    Shared with the solver so that the quantifiers the replay checker
    registers are structurally identical to the ones the solver pooled
    and instantiated.
    """
    while isinstance(formula.body, Forall):
        inner = formula.body
        triggers = inner.triggers or formula.triggers
        caps = [c for c in (formula.width_cap, inner.width_cap) if c is not None]
        formula = Forall(
            formula.vars + inner.vars,
            inner.body,
            triggers,
            formula.name or inner.name,
            min(caps) if caps else None,
        )
    return formula


def one_line(formula: Formula) -> str:
    from repro.logic.printer import format_formula

    return " ".join(format_formula(formula).split())


@dataclass(frozen=True)
class ProofStep:
    """One reasoning event of a closed refutation."""

    kind: str
    #: The formula this step asserts (fact / instance / propagated unit /
    #: branch decision), when it asserts one.
    formula: Optional[Formula] = None
    #: The clause justifying a propagation, split, or clause-closure.
    clause: Optional[Or] = None
    #: For instances: the pooled quantifier and its witness substitution.
    quantifier: Optional[Forall] = None
    witnesses: Optional[Dict[str, Term]] = None
    #: For branches: the 0-based disjunct index within the split clause.
    index: Optional[int] = None
    #: For closes: :data:`CLOSE_KERNEL` or :data:`CLOSE_CLAUSE`.
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind}
        if self.formula is not None:
            payload["formula"] = one_line(self.formula)
        if self.clause is not None:
            payload["clause"] = one_line(self.clause)
        if self.quantifier is not None:
            payload["quantifier"] = self.quantifier.name or "<anonymous>"
        if self.witnesses is not None:
            from repro.logic.printer import format_term

            payload["witnesses"] = {
                var: format_term(term)
                for var, term in sorted(self.witnesses.items())
            }
        if self.index is not None:
            payload["index"] = self.index
        if self.reason is not None:
            payload["reason"] = self.reason
        return payload


@dataclass
class ProofLog:
    """The append-only record of one closed refutation."""

    steps: List[ProofStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def counts(self) -> Dict[str, int]:
        by_kind: Dict[str, int] = {}
        for step in self.steps:
            by_kind[step.kind] = by_kind.get(step.kind, 0) + 1
        return by_kind

    def to_dict(self, *, max_steps: Optional[int] = None) -> dict:
        steps = self.steps if max_steps is None else self.steps[:max_steps]
        return {
            "steps": [step.to_dict() for step in steps],
            "total_steps": len(self.steps),
            "truncated": max_steps is not None and len(self.steps) > max_steps,
            "counts": self.counts(),
        }


@dataclass
class ReplayResult:
    """Outcome of independently re-validating a proof log."""

    ok: bool
    steps_checked: int = 0
    splits: int = 0
    closes: int = 0
    instances: int = 0
    #: Human description of the first failing step, when ``ok`` is False.
    error: Optional[str] = None

    def describe(self) -> str:
        if self.ok:
            return (
                f"replay ok: {self.steps_checked} step(s), "
                f"{self.splits} split(s), {self.closes} close(s), "
                f"{self.instances} instance(s)"
            )
        return f"replay FAILED: {self.error}"


def replay_proof_log(log: ProofLog) -> ReplayResult:
    """Independently re-validate a proof log with the ground kernel.

    Returns a :class:`ReplayResult`; ``ok`` is True iff every step is
    justified and the refutation tree closes back to the root.
    """
    from repro.prover.replay import replay

    return replay(log)
