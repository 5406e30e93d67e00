"""The proof-replay kernel: re-validates a :class:`ProofLog`.

:func:`replay` is the deliberately small trusted kernel behind
:func:`repro.prover.prooflog.replay_proof_log` — the E-graph
(congruence closure over ground literals) plus a three-valued evaluator,
and none of the solver's search machinery. It lives apart from the
step records so that a solver journaling a proof does not load it; it
loads when something replays.
"""

from __future__ import annotations

from typing import List, Optional

from repro.logic.subst import subst_formula
from repro.logic.terms import (
    And,
    App,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    Pred,
    TrueF,
)
from repro.prover.egraph import EGraph
from repro.prover.prooflog import (
    CLOSE_CLAUSE,
    STEP_BRANCH,
    STEP_CLOSE,
    STEP_END_SPLIT,
    STEP_FACT,
    STEP_INSTANCE,
    STEP_PROPAGATE,
    STEP_SPLIT,
    ProofLog,
    ProofStep,
    ReplayResult,
    flatten_forall,
    one_line,
)


class _Frame:
    """One open case split during replay."""

    __slots__ = ("clause", "seen", "open_index", "mark", "pending_snapshot")

    def __init__(self, clause: Or):
        self.clause = clause
        self.seen: set = set()  # closed branch indices
        self.open_index: Optional[int] = None
        self.mark: Optional[int] = None
        self.pending_snapshot: Optional[list] = None


class _ReplayError(Exception):
    pass


class _Replayer:
    """The small trusted kernel: an E-graph plus a ground evaluator."""

    def __init__(self):
        self.egraph = EGraph()
        self.pending: List[Or] = []  # derived clauses on the current path
        self.quants: List[Forall] = []
        self.frames: List[_Frame] = []
        self.done = False  # the root refutation is closed

    # -- three-valued evaluation (never creates kernel state) ----------

    def _eval(self, formula: Formula) -> Optional[bool]:
        if isinstance(formula, TrueF):
            return True
        if isinstance(formula, FalseF):
            return False
        if isinstance(formula, Eq):
            left = self.egraph.intern(formula.left)
            right = self.egraph.intern(formula.right)
            if self.egraph.are_equal(left, right):
                return True
            if self.egraph.are_diseq(left, right):
                return False
            return None
        if isinstance(formula, Pred):
            node = self.egraph.intern(App(formula.name, formula.args))
            return self.egraph.truth(node)
        if isinstance(formula, Not):
            inner = self._eval(formula.body)
            return None if inner is None else not inner
        if isinstance(formula, And):
            value: Optional[bool] = True
            for conjunct in formula.conjuncts:
                inner = self._eval(conjunct)
                if inner is False:
                    return False
                if inner is None:
                    value = None
            return value
        if isinstance(formula, Or):
            value = False
            for disjunct in formula.disjuncts:
                inner = self._eval(disjunct)
                if inner is True:
                    return True
                if inner is None:
                    value = None
            return value
        return None  # quantifiers: unknown

    # -- ground assertion (mirrors the solver's deterministic _assert) --

    def assert_ground(self, formula: Formula) -> None:
        """Assert an NNF formula into the kernel; conflicts set the
        E-graph's conflict flag (checked by closes, never fatal here)."""
        if self.egraph.in_conflict:
            return
        if isinstance(formula, TrueF):
            return
        if isinstance(formula, FalseF):
            # An explicit falsum: force the kernel inconsistent.
            ok = self.egraph.assert_diseq(self.egraph.TRUE, self.egraph.TRUE)
            assert not ok
            return
        if isinstance(formula, And):
            for conjunct in formula.conjuncts:
                self.assert_ground(conjunct)
                if self.egraph.in_conflict:
                    return
            return
        if isinstance(formula, Or):
            remaining = []
            for disjunct in formula.disjuncts:
                value = self._eval(disjunct)
                if value is True:
                    return
                if value is None:
                    remaining.append(disjunct)
            if not remaining:
                self.assert_ground(FalseF())
                return
            if len(remaining) == 1:
                self.assert_ground(remaining[0])
                return
            self.pending.append(formula)
            return
        if isinstance(formula, Forall):
            self.quants.append(flatten_forall(formula))
            return
        if isinstance(formula, Exists):
            raise _ReplayError(
                "unexpected existential in a proof log (facts are "
                "skolemized before assertion)"
            )
        if isinstance(formula, Eq):
            left = self.egraph.intern(formula.left)
            right = self.egraph.intern(formula.right)
            self.egraph.assert_eq(left, right)
            return
        if isinstance(formula, Pred):
            node = self.egraph.intern(App(formula.name, formula.args))
            self.egraph.assert_eq(node, self.egraph.TRUE)
            return
        if isinstance(formula, Not):
            body = formula.body
            if isinstance(body, Eq):
                left = self.egraph.intern(body.left)
                right = self.egraph.intern(body.right)
                self.egraph.assert_diseq(left, right)
                return
            if isinstance(body, Pred):
                node = self.egraph.intern(App(body.name, body.args))
                self.egraph.assert_eq(node, self.egraph.FALSE)
                return
            raise _ReplayError(
                f"cannot assert non-literal negation {one_line(formula)}"
            )
        raise _ReplayError(f"cannot assert {formula!r}")

    # -- clause justification ------------------------------------------

    def _find_derived_clause(
        self, clause: Or, *, spare: Optional[Formula] = None
    ) -> Or:
        """A pending clause covering ``clause``: its disjuncts must be a
        superset of the clause's, and every disjunct not in the clause —
        and not the ``spare`` survivor — must evaluate to false."""
        wanted = set(clause.disjuncts)
        for parked in self.pending:
            have = set(parked.disjuncts)
            if not wanted <= have:
                continue
            omitted = [
                d for d in parked.disjuncts
                if d not in wanted and d is not spare and d != spare
            ]
            if all(self._eval(d) is False for d in omitted):
                return parked
        raise _ReplayError(
            f"clause {one_line(clause)} was never derived on this branch "
            "(or its pruned disjuncts are not refuted)"
        )

    def _justify_close(self, step: ProofStep) -> None:
        if self.egraph.in_conflict:
            return  # the ground kernel re-derived the conflict
        if step.reason == CLOSE_CLAUSE and step.clause is not None:
            # The closing clause must be derived and fully refuted.
            wanted = set(step.clause.disjuncts)
            for parked in self.pending:
                if wanted <= set(parked.disjuncts) and all(
                    self._eval(d) is False for d in parked.disjuncts
                ):
                    return
            raise _ReplayError(
                f"close by clause {one_line(step.clause)}: no derived "
                "clause with every disjunct refuted"
            )
        raise _ReplayError(
            "close is not justified: kernel is consistent and no refuted "
            "clause was given"
        )

    # -- branch bookkeeping --------------------------------------------

    def _close_current(self) -> None:
        """Close the innermost open branch (or the root)."""
        if not self.frames:
            self.done = True
            return
        frame = self.frames[-1]
        if frame.open_index is None:
            raise _ReplayError("close without an open branch")
        self.egraph.pop(frame.mark)
        self.pending = frame.pending_snapshot
        frame.seen.add(frame.open_index)
        frame.open_index = None

    def step_fact(self, step: ProofStep) -> None:
        if step.formula is None:
            raise _ReplayError("fact step carries no formula")
        self.assert_ground(step.formula)

    def step_instance(self, step: ProofStep) -> None:
        if step.quantifier is None or step.formula is None:
            raise _ReplayError("instance step is missing its quantifier")
        quantifier = flatten_forall(step.quantifier)
        if quantifier not in self.quants:
            raise _ReplayError(
                f"instance of unregistered quantifier "
                f"{quantifier.name or '<anonymous>'}"
            )
        witnesses = step.witnesses or {}
        if set(witnesses) != set(quantifier.vars):
            raise _ReplayError(
                f"instance witnesses {sorted(witnesses)} do not bind "
                f"exactly {sorted(quantifier.vars)}"
            )
        expected = subst_formula(quantifier.body, dict(witnesses))
        if expected != step.formula:
            raise _ReplayError(
                f"recorded instance is not the substitution instance of "
                f"{quantifier.name or '<anonymous>'}"
            )
        self.assert_ground(step.formula)

    def step_propagate(self, step: ProofStep) -> None:
        if step.formula is None or step.clause is None:
            raise _ReplayError("propagate step is missing its clause")
        if step.formula not in set(step.clause.disjuncts):
            raise _ReplayError("propagated unit is not in its clause")
        parked = self._find_derived_clause(step.clause, spare=step.formula)
        others = [
            d for d in parked.disjuncts if d != step.formula
        ]
        if not all(self._eval(d) is False for d in others):
            raise _ReplayError(
                f"propagation from {one_line(parked)}: a sibling "
                "disjunct is not refuted"
            )
        self.pending = [p for p in self.pending if p is not parked]
        self.assert_ground(step.formula)

    def step_split(self, step: ProofStep) -> None:
        if step.clause is None:
            raise _ReplayError("split step carries no clause")
        parked = self._find_derived_clause(step.clause)
        self.pending = [p for p in self.pending if p is not parked]
        self.frames.append(_Frame(step.clause))

    def step_branch(self, step: ProofStep) -> None:
        if not self.frames:
            raise _ReplayError("branch outside any split")
        frame = self.frames[-1]
        if frame.open_index is not None:
            raise _ReplayError("branch opened while another is open")
        if step.index is None or not (
            0 <= step.index < len(frame.clause.disjuncts)
        ):
            raise _ReplayError(f"branch index {step.index!r} out of range")
        if step.index in frame.seen:
            raise _ReplayError(f"branch {step.index} decided twice")
        decision = frame.clause.disjuncts[step.index]
        if step.formula is not None and step.formula != decision:
            raise _ReplayError(
                "branch decision does not match the split clause"
            )
        frame.open_index = step.index
        frame.mark = self.egraph.push()
        frame.pending_snapshot = list(self.pending)
        self.assert_ground(decision)

    def step_close(self, step: ProofStep) -> None:
        self._justify_close(step)
        self._close_current()

    def step_end_split(self, step: ProofStep) -> None:
        if not self.frames:
            raise _ReplayError("end-split outside any split")
        frame = self.frames[-1]
        if frame.open_index is not None:
            raise _ReplayError("end-split with a branch still open")
        expected = set(range(len(frame.clause.disjuncts)))
        if frame.seen != expected:
            missing = sorted(expected - frame.seen)
            raise _ReplayError(
                f"split on {one_line(frame.clause)} closed without "
                f"branch(es) {missing}"
            )
        self.frames.pop()
        # All branches refuted: the split's own branch point is closed.
        self._close_current()


def replay(log: ProofLog) -> ReplayResult:
    """Re-validate ``log``; see :func:`repro.prover.prooflog.replay_proof_log`."""
    replayer = _Replayer()
    result = ReplayResult(ok=False)
    handlers = {
        STEP_FACT: replayer.step_fact,
        STEP_INSTANCE: replayer.step_instance,
        STEP_PROPAGATE: replayer.step_propagate,
        STEP_SPLIT: replayer.step_split,
        STEP_BRANCH: replayer.step_branch,
        STEP_CLOSE: replayer.step_close,
        STEP_END_SPLIT: replayer.step_end_split,
    }
    for position, step in enumerate(log.steps):
        if replayer.done:
            result.error = f"step {position}: trailing step after the root closed"
            return result
        handler = handlers.get(step.kind)
        if handler is None:
            result.error = f"step {position}: unknown step kind {step.kind!r}"
            return result
        try:
            handler(step)
        except _ReplayError as error:
            result.error = f"step {position} ({step.kind}): {error}"
            return result
        result.steps_checked += 1
        if step.kind == STEP_SPLIT:
            result.splits += 1
        elif step.kind == STEP_CLOSE:
            result.closes += 1
        elif step.kind == STEP_INSTANCE:
            result.instances += 1
    if not replayer.done:
        result.error = "log ended before the refutation closed"
        return result
    result.ok = True
    return result
