"""The refutation engine: case splitting + quantifier instantiation.

``Solver`` accepts closed formulas (hypotheses) and decides satisfiability
of their conjunction, under explicit resource limits. ``prove_valid``
wraps the refutation style used for verification conditions: assert the
axioms and hypotheses, assert the *ordered negation* of the goal, and read
``UNSAT`` as "the VC is valid".

Search strategy (Simplify-flavoured):

1. Assert unit facts into the E-graph; park disjunctions and quantifiers.
2. Repeatedly simplify disjunctions against the E-graph (drop satisfied
   ones, prune refuted disjuncts, unit-propagate single survivors).
3. When splits remain, branch on the smallest disjunction (backtracking the
   E-graph via its trail).
4. At a split-free leaf, run an E-matching round over the quantifier pool;
   new instances are asserted and the loop continues. Saturation without
   conflict yields ``SAT`` (the goal is not provable); exceeding the
   instance/time budget yields ``RESOURCE_OUT`` — the analogue of the
   matching-loop divergence the paper reports for cyclic rep inclusions.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.logic.nnf import FreshNames, negate, skolemize, to_nnf
from repro.logic.subst import formula_free_vars, subst_formula
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
    Term,
    TrueF,
    Var,
)
from repro.prover.countermodel import Countermodel, capture_countermodel
from repro.prover.egraph import EGraph
from repro.prover.matching import match_multipattern
from repro.prover.prooflog import (
    CLOSE_CLAUSE,
    CLOSE_KERNEL,
    STEP_BRANCH,
    STEP_CLOSE,
    STEP_END_SPLIT,
    STEP_FACT,
    STEP_INSTANCE,
    STEP_PROPAGATE,
    STEP_SPLIT,
    ProofLog,
    ProofStep,
    flatten_forall,
)
from repro.prover.triggers import infer_triggers


class Verdict(enum.Enum):
    """Outcome of a satisfiability check."""

    UNSAT = "unsat"
    SAT = "sat"
    RESOURCE_OUT = "resource-out"


@dataclass
class Limits:
    """Resource bounds for one ``check`` call."""

    max_instances: int = 20000
    max_rounds: int = 40
    max_depth: int = 400
    max_branches: int = 200000
    max_matches_per_round: int = 5000
    #: Wall-clock budget for one ``check`` call — i.e. per implementation
    #: when driven by ``check_scope``. Enforced cooperatively: between
    #: fact assertions, search rounds, case splits, and matches.
    time_budget: Optional[float] = 30.0
    #: Wall-clock budget for a whole ``check_scope`` batch, shared by all
    #: implementations. The driver turns it into ``scope_deadline``.
    scope_time_budget: Optional[float] = None
    #: Absolute ``time.monotonic()`` deadline shared across solver
    #: instances (set by the driver from ``scope_time_budget``). Checked
    #: at the same cooperative points as ``time_budget``, so a
    #: pathological implementation cannot starve the rest of the batch.
    scope_deadline: Optional[float] = None
    #: Relevancy filter: a candidate instance is asserted only while its
    #: number of not-yet-refuted top-level disjuncts (its *width*) is at
    #: most this. Width 0 is a conflict, width 1 unit-propagates, width 2
    #: is a narrow case split. Wider instances are reconsidered on later
    #: rounds once more of their disjuncts are refuted.
    max_instance_width: int = 1
    #: When a round adds nothing at ``max_instance_width``, one extra pass
    #: admits instances up to ``max_instance_width + escalation_bonus``
    #: before the branch is declared saturated. 0 disables escalation.
    escalation_bonus: int = 2


@dataclass
class ProverStats:
    """Counters accumulated during a check."""

    instantiations: int = 0
    rounds: int = 0
    branches: int = 0
    conflicts: int = 0
    max_depth: int = 0
    unmatchable_quantifiers: int = 0
    per_quantifier: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    #: Values of "@obligation" marker atoms true in the first saturated
    #: branch (diagnosis of which proof obligation a non-proof stuck on).
    sat_markers: List[int] = field(default_factory=list)
    #: Closed formulas asserted into the solver (axioms + hypotheses +
    #: negated goal).
    facts: int = 0
    #: E-graph class unions performed (cumulative congruence-closure
    #: work, including backtracked branches).
    merges: int = 0
    #: Trigger match bindings enumerated by E-matching (before the
    #: relevancy filter prunes them down to ``instantiations``). A round
    #: stops matching at its first refuted candidate, so bindings it would
    #: have enumerated after that are not counted.
    matches: int = 0
    #: ``matches`` attributed per quantifier name (raw E-matching volume;
    #: compare with ``per_quantifier`` to see the relevancy filter's cut).
    matches_by_quantifier: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Machine-readable rendering (surfaced per verdict by
        ``CheckReport.to_dict`` and fed to the metrics registry)."""
        return {
            "instantiations": self.instantiations,
            "rounds": self.rounds,
            "branches": self.branches,
            "conflicts": self.conflicts,
            "max_depth": self.max_depth,
            "unmatchable_quantifiers": self.unmatchable_quantifiers,
            "per_quantifier": dict(sorted(self.per_quantifier.items())),
            "elapsed": round(self.elapsed, 6),
            "sat_markers": list(self.sat_markers),
            "facts": self.facts,
            "merges": self.merges,
            "matches": self.matches,
            "matches_by_quantifier": dict(
                sorted(self.matches_by_quantifier.items())
            ),
        }


@dataclass
class ProverResult:
    """Verdict plus statistics; ``valid`` reads the refutation outcome."""

    verdict: Verdict
    stats: ProverStats
    #: In explain mode only: the refuting branch snapshot on ``SAT`` …
    countermodel: Optional[Countermodel] = None
    #: … and the replayable step record of the refutation on ``UNSAT``.
    proof_log: Optional[ProofLog] = None

    @property
    def valid(self) -> bool:
        """For ``prove_valid``: the goal is proved iff refutation closed."""
        return self.verdict is Verdict.UNSAT


@dataclass
class _QuantRecord:
    formula: Forall
    triggers: Tuple[Tuple[Term, ...], ...]


class _State:
    """Branch-local search state (disjunctions and quantifier pool)."""

    __slots__ = ("disjunctions", "quants", "rounds")

    def __init__(self, disjunctions=None, quants=None, rounds=0):
        self.disjunctions: List[Or] = disjunctions if disjunctions is not None else []
        self.quants: List[_QuantRecord] = quants if quants is not None else []
        self.rounds = rounds

    def clone(self) -> "_State":
        return _State(list(self.disjunctions), list(self.quants), self.rounds)


@dataclass(frozen=True)
class _Prepared:
    """A solver's state at the boundary after a :class:`Background`'s last
    fact. Published once and never changed: a solver that resumes from it
    copies the E-graph and the lists it goes on to change."""

    egraph: EGraph
    disjunctions: Tuple[Or, ...]
    quants: Tuple[_QuantRecord, ...]
    #: The asserted background facts, NNF-converted and skolemized (for
    #: the journal) …
    facts: Tuple[Formula, ...]
    #: … whether the last of them closed the refutation …
    closed: bool
    #: … and the ``FreshNames`` counters their skolemization left.
    names: Tuple[Tuple[str, int], ...]
    #: ``ProverStats`` counters at the boundary.
    added: int
    conflicts: int
    unmatchable: int


class Background:
    """Closed hypotheses shared by many checks: a scope's UBP ∧ BP_D.

    The first :class:`Solver` given a background asserts its formulas as
    its leading facts and, at the boundary after the last one, stores the
    state they built here. Later solvers start from a copy of that state
    and assert only their own facts; verdicts, statistics and proof logs
    are those of asserting everything from scratch. A deadline or an
    exception before the boundary stores nothing.

    The state is process-local: its owner keeps it out of pickles.
    """

    def __init__(self, formulas: List[Formula]):
        self.formulas: Tuple[Formula, ...] = tuple(formulas)
        self._prepared: Optional[_Prepared] = None


class Solver:
    """A refutation-based solver for closed first-order formulas.

    With a ``background``, the solver's leading facts are the background's
    formulas: the first solver asserts them and prepares the background,
    the later ones resume from it (see :class:`Background`).
    """

    def __init__(
        self,
        limits: Optional[Limits] = None,
        *,
        explain: bool = False,
        background: Optional[Background] = None,
    ):
        self.limits = limits or Limits()
        #: With a ``background``: the prepared state this solver resumes
        #: from, once there is one …
        self._resumed = background._prepared if background is not None else None
        self.egraph = (
            EGraph() if self._resumed is None else self._resumed.egraph.copy()
        )
        self.stats = ProverStats()
        self._fresh = FreshNames()
        self._facts: List[Formula] = []
        #: … else the background this solver prepares, the number of its
        #: facts (0: nothing to prepare) and the name counters they left.
        self._background = background
        self._boundary = 0
        self._background_names: Tuple[Tuple[str, int], ...] = ()
        #: Instance keys asserted in the current branch …
        self._seen: Set[Tuple] = set()
        #: … and candidates whose instance already holds there (width −1).
        #: The E-graph only grows within a branch, so they stay redundant —
        #: as long as congruence covers every node. A node created in a
        #: popped branch loses its merges until a later merge touches its
        #: class, and a lookup that now lands on it can turn "true" into
        #: "unknown": ``_split`` drops the memo when a popped branch
        #: created nodes.
        self._redundant: Set[Tuple] = set()
        #: ``(set, key)`` additions to the two sets above, undone by
        #: ``_split`` when it leaves a branch.
        self._branch_trail: List[Tuple[Set[Tuple], Tuple]] = []
        #: Instances built for admitted candidates, by key.
        self._instance_cache: Dict[Tuple, Formula] = {}
        self._deadline: Optional[float] = None
        #: Explain mode: journal proof steps and keep the refuting branch.
        #: The default (off) path pays only ``is not None`` checks.
        self.explain = explain
        self._journal: Optional[List[ProofStep]] = [] if explain else None
        self._countermodel: Optional[Countermodel] = None
        prepared = self._resumed
        if prepared is not None:
            self._fresh = FreshNames(dict(prepared.names))
            self._facts = list(prepared.facts)
            self.stats.facts = prepared.added
            self.stats.conflicts = prepared.conflicts
            self.stats.unmatchable_quantifiers = prepared.unmatchable
        elif background is not None:
            for formula in background.formulas:
                self.add(formula)
            self._boundary = len(self._facts)
            # Asserting NNF, skolemized facts draws no names, so these are
            # the counters at the boundary too.
            self._background_names = tuple(self._fresh.counters().items())

    # ------------------------------------------------------------------
    # Loading formulas
    # ------------------------------------------------------------------

    def add(self, formula: Formula) -> None:
        """Assert a closed formula (axiom or hypothesis)."""
        free = formula_free_vars(formula)
        if free:
            raise ValueError(f"formula must be closed; free: {sorted(free)}")
        nnf = to_nnf(formula)
        self._facts.append(skolemize(nnf, self._fresh, "hyp"))
        self.stats.facts += 1

    def add_negated_goal(self, goal: Formula) -> None:
        """Assert the ordered negation of ``goal`` (refutation setup)."""
        free = formula_free_vars(goal)
        if free:
            raise ValueError(f"goal must be closed; free: {sorted(free)}")
        nnf = negate(goal, ordered=True)
        self._facts.append(skolemize(nnf, self._fresh, "cex"))
        self.stats.facts += 1

    # ------------------------------------------------------------------
    # Main entry points
    # ------------------------------------------------------------------

    def check(self) -> ProverResult:
        """Decide satisfiability of the asserted conjunction."""
        start = time.monotonic()
        if self.limits.time_budget is not None:
            self._deadline = start + self.limits.time_budget
        if self.limits.scope_deadline is not None:
            self._deadline = (
                self.limits.scope_deadline
                if self._deadline is None
                else min(self._deadline, self.limits.scope_deadline)
            )
        state = _State()
        verdict: Optional[Verdict] = None
        prepared = self._resumed
        if prepared is None:
            verdict = self._assert_facts(state, 0)
        else:
            # The journal prefix is the one asserting the background
            # would have written.
            if self._journal is not None:
                for fact in prepared.facts:
                    self._journal.append(ProofStep(STEP_FACT, formula=fact))
            if prepared.closed:
                if self._journal is not None:
                    self._journal.append(
                        ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL)
                    )
                verdict = Verdict.UNSAT
            else:
                state = _State(list(prepared.disjunctions), list(prepared.quants))
                verdict = self._assert_facts(state, len(prepared.facts))
        if verdict is None:
            verdict = self._search(state, 0)
        self.stats.elapsed = time.monotonic() - start
        self.stats.merges = self.egraph.merges
        result = ProverResult(verdict, self.stats)
        if self._journal is not None and verdict is Verdict.UNSAT:
            result.proof_log = ProofLog(list(self._journal))
        if verdict is Verdict.SAT:
            result.countermodel = self._countermodel
        return result

    def _assert_facts(self, state: _State, first: int) -> Optional[Verdict]:
        """Assert the facts from index ``first`` on; a verdict if that
        decides the check. Passing the background's boundary prepares it."""
        for index in range(first, len(self._facts)):
            if self._out_of_time():
                self._record_sat_markers()
                return Verdict.RESOURCE_OUT
            fact = self._facts[index]
            if self._journal is not None:
                self._journal.append(ProofStep(STEP_FACT, formula=fact))
            if not self._assert(fact, state):
                if self._journal is not None:
                    self._journal.append(
                        ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL)
                    )
                if index < self._boundary:
                    self._prepare(state, index + 1, closed=True)
                return Verdict.UNSAT
            if index + 1 == self._boundary:
                self._prepare(state, index + 1, closed=False)
        return None

    def _prepare(self, state: _State, asserted: int, closed: bool) -> None:
        """Store the state after the background's facts on the background."""
        self._background._prepared = _Prepared(
            egraph=self.egraph.copy(),
            disjunctions=tuple(state.disjunctions),
            quants=tuple(state.quants),
            facts=tuple(self._facts[:asserted]),
            closed=closed,
            names=self._background_names,
            added=self._boundary,
            conflicts=self.stats.conflicts,
            unmatchable=self.stats.unmatchable_quantifiers,
        )

    # ------------------------------------------------------------------
    # Assertion of NNF formulas
    # ------------------------------------------------------------------

    def _assert(self, formula: Formula, state: _State) -> bool:
        """Assert an NNF formula; returns False on E-graph conflict."""
        if isinstance(formula, TrueF):
            return True
        if isinstance(formula, FalseF):
            self.stats.conflicts += 1
            return False
        if isinstance(formula, And):
            for conjunct in formula.conjuncts:
                if not self._assert(conjunct, state):
                    return False
            return True
        if isinstance(formula, Or):
            return self._assert_disjunction(formula, state)
        if isinstance(formula, Forall):
            self._add_quantifier(formula, state)
            return True
        if isinstance(formula, Exists):
            body = skolemize(formula, self._fresh, "wit")
            return self._assert(body, state)
        if isinstance(formula, Eq):
            left = self.egraph.intern(formula.left)
            right = self.egraph.intern(formula.right)
            if not self.egraph.assert_eq(left, right):
                self.stats.conflicts += 1
                return False
            return True
        if isinstance(formula, Pred):
            node = self.egraph.intern(App(formula.name, formula.args))
            if not self.egraph.assert_eq(node, self.egraph.TRUE):
                self.stats.conflicts += 1
                return False
            return True
        if isinstance(formula, Not):
            body = formula.body
            if isinstance(body, Eq):
                left = self.egraph.intern(body.left)
                right = self.egraph.intern(body.right)
                if not self.egraph.assert_diseq(left, right):
                    self.stats.conflicts += 1
                    return False
                return True
            if isinstance(body, Pred):
                node = self.egraph.intern(App(body.name, body.args))
                if not self.egraph.assert_eq(node, self.egraph.FALSE):
                    self.stats.conflicts += 1
                    return False
                return True
            # Non-atomic negation: normalize and retry.
            return self._assert(to_nnf(formula), state)
        raise TypeError(f"cannot assert {formula!r}")

    def _assert_disjunction(self, formula: Or, state: _State) -> bool:
        status, remaining = self._simplify_disjunction(formula)
        if status == "sat":
            return True
        if status == "conflict":
            self.stats.conflicts += 1
            return False
        if len(remaining) == 1:
            return self._assert(remaining[0], state)
        state.disjunctions.append(Or(tuple(remaining)))
        return True

    def _add_quantifier(self, formula: Forall, state: _State) -> None:
        # Flatten a Forall prefix so triggers can cover all variables.
        # Shared with the proof-log replay checker, which must register
        # structurally identical quantifiers.
        formula = flatten_forall(formula)
        triggers = formula.triggers
        if not triggers:
            triggers = infer_triggers(formula)
            if not triggers:
                self.stats.unmatchable_quantifiers += 1
                return
        state.quants.append(_QuantRecord(formula, triggers))

    # ------------------------------------------------------------------
    # Three-valued evaluation against the E-graph
    # ------------------------------------------------------------------

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
            value = True
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
        return None  # quantifiers and anything else: unknown

    # Candidate evaluation: like _eval, but on a quantifier body under a
    # binding of its variables to nodes, without building the instance and
    # without interning. Each term resolves to the node ``EGraph.lookup``
    # would give its instance: a variable to its bound node, a constant
    # through the term index, an application through ``EGraph.app_node``
    # on its arguments' nodes. Terms not in the E-graph are "unknown".

    def _bound_width(self, body: Formula, binding: Dict[str, int]) -> int:
        """Number of top-level disjuncts of ``body`` under ``binding`` that
        are not currently refuted.

        The relevancy measure for candidate instances: −1 means the
        instance already holds (redundant), 0 that it conflicts, 1 that it
        unit-propagates, k that asserting it parks a k-way case split.
        """
        if isinstance(body, Or):
            width = 0
            for disjunct in body.disjuncts:
                inner = self._bound_width(disjunct, binding)
                if inner < 0:
                    return -1
                width += inner
            return width
        value = self._bound_value(body, binding)
        if value is None:
            return 1
        return -1 if value else 0

    def _bound_value(
        self, formula: Formula, binding: Dict[str, int]
    ) -> Optional[bool]:
        if isinstance(formula, Pred):
            node = self._bound_app(formula.name, formula.args, binding)
            return None if node is None else self.egraph.truth(node)
        if isinstance(formula, Eq):
            left = self._bound_node(formula.left, binding)
            right = self._bound_node(formula.right, binding)
            if left is None or right is None:
                return None
            if self.egraph.are_equal(left, right):
                return True
            if self.egraph.are_diseq(left, right):
                return False
            return None
        if isinstance(formula, Not):
            inner = self._bound_value(formula.body, binding)
            return None if inner is None else not inner
        if isinstance(formula, And):
            value = True
            for conjunct in formula.conjuncts:
                inner = self._bound_value(conjunct, binding)
                if inner is False:
                    return False
                if inner is None:
                    value = None
            return value
        if isinstance(formula, Or):
            value = False
            for disjunct in formula.disjuncts:
                inner = self._bound_value(disjunct, binding)
                if inner is True:
                    return True
                if inner is None:
                    value = None
            return value
        if isinstance(formula, TrueF):
            return True
        if isinstance(formula, FalseF):
            return False
        return None  # quantifiers: unknown

    def _bound_node(self, term: Term, binding: Dict[str, int]) -> Optional[int]:
        if isinstance(term, Var):
            return binding[term.name]
        if isinstance(term, App):
            return self._bound_app(term.fn, term.args, binding)
        return self.egraph.lookup(term)

    def _bound_app(
        self, fn: str, args: Tuple[Term, ...], binding: Dict[str, int]
    ) -> Optional[int]:
        child_ids = []
        for arg in args:
            child = self._bound_node(arg, binding)
            if child is None:
                return None
            child_ids.append(child)
        return self.egraph.app_node(fn, tuple(child_ids))

    def _simplify_disjunction(self, formula: Or):
        remaining: List[Formula] = []
        for disjunct in formula.disjuncts:
            value = self._eval(disjunct)
            if value is True:
                return "sat", []
            if value is None:
                remaining.append(disjunct)
        if not remaining:
            return "conflict", []
        return "open", remaining

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _out_of_time(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    def _search(self, state: _State, depth: int) -> Verdict:
        self.stats.max_depth = max(self.stats.max_depth, depth)
        if depth > self.limits.max_depth:
            self._record_sat_markers()
            return Verdict.RESOURCE_OUT
        while True:
            if self._out_of_time():
                self._record_sat_markers()
                return Verdict.RESOURCE_OUT
            progressed, verdict = self._propagate(state)
            if verdict is not None:
                return verdict
            if progressed:
                continue
            if state.disjunctions:
                return self._split(state, depth)
            # Leaf: instantiate quantifiers.
            if state.rounds >= self.limits.max_rounds:
                self._record_sat_markers()
                return Verdict.RESOURCE_OUT
            state.rounds += 1
            self.stats.rounds += 1
            outcome = self._instantiate_round(state, self.limits.max_instance_width)
            # Escalate gradually: admit wider case splits, one width step at
            # a time, before declaring the branch saturated.
            bonus = 1
            while outcome == 0 and bonus <= self.limits.escalation_bonus:
                outcome = self._instantiate_round(
                    state, self.limits.max_instance_width + bonus
                )
                bonus += 1
            if outcome == "resource":
                self._record_sat_markers()
                return Verdict.RESOURCE_OUT
            if outcome == "conflict":
                return Verdict.UNSAT
            if outcome == 0:
                # The branch saturated: the goal is not provable, and this
                # E-graph *is* the refutation's counterexample. Record the
                # obligation markers (forced: a resource-out sibling may
                # have left stale ones behind) and, in explain mode,
                # snapshot the branch before the unwind discards it.
                self._record_sat_markers(force=True)
                if self.explain and self._countermodel is None:
                    self._countermodel = capture_countermodel(
                        self.egraph, self._seen, self.stats.sat_markers
                    )
                return Verdict.SAT

    def _propagate(self, state: _State) -> Tuple[bool, Optional[Verdict]]:
        """One pass of disjunction simplification / unit propagation."""
        progressed = False
        surviving: List[Or] = []
        for disjunction in state.disjunctions:
            status, remaining = self._simplify_disjunction(disjunction)
            if status == "sat":
                progressed = True
                continue
            if status == "conflict":
                self.stats.conflicts += 1
                if self._journal is not None:
                    self._journal.append(
                        ProofStep(
                            STEP_CLOSE, clause=disjunction, reason=CLOSE_CLAUSE
                        )
                    )
                return progressed, Verdict.UNSAT
            if len(remaining) == 1:
                if self._journal is not None:
                    self._journal.append(
                        ProofStep(
                            STEP_PROPAGATE,
                            formula=remaining[0],
                            clause=disjunction,
                        )
                    )
                if not self._assert(remaining[0], state):
                    if self._journal is not None:
                        self._journal.append(
                            ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL)
                        )
                    return progressed, Verdict.UNSAT
                progressed = True
            elif len(remaining) < len(disjunction.disjuncts):
                surviving.append(Or(tuple(remaining)))
                progressed = True
            else:
                surviving.append(disjunction)
        state.disjunctions = surviving
        return progressed, None

    def _split(self, state: _State, depth: int) -> Verdict:
        # Pick the smallest disjunction; among equals prefer the most
        # recently derived one — instance-derived splits are usually local
        # to the contradiction being built.
        best_index = max(
            range(len(state.disjunctions)),
            key=lambda i: (-len(state.disjunctions[i].disjuncts), i),
        )
        disjunction = state.disjunctions[best_index]
        rest = [d for d in state.disjunctions if d is not disjunction]
        if self._journal is not None:
            self._journal.append(ProofStep(STEP_SPLIT, clause=disjunction))
        saw_resource = False
        for index, disjunct in enumerate(disjunction.disjuncts):
            if self._out_of_time():
                self._record_sat_markers()
                return Verdict.RESOURCE_OUT
            if self.stats.branches >= self.limits.max_branches:
                self._record_sat_markers()
                return Verdict.RESOURCE_OUT
            self.stats.branches += 1
            if self._journal is not None:
                self._journal.append(
                    ProofStep(STEP_BRANCH, formula=disjunct, index=index)
                )
            nodes = self.egraph.node_count
            mark = self.egraph.push()
            branch_mark = len(self._branch_trail)
            child = _State(list(rest), list(state.quants), state.rounds)
            ok = self._assert(disjunct, child)
            if not ok and self._journal is not None:
                self._journal.append(ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL))
            result = self._search(child, depth + 1) if ok else Verdict.UNSAT
            self.egraph.pop(mark)
            self._pop_branch(branch_mark)
            if self.egraph.node_count != nodes:
                self._redundant.clear()
            if result is Verdict.SAT:
                return Verdict.SAT
            if result is Verdict.RESOURCE_OUT:
                saw_resource = True
        if saw_resource:
            return Verdict.RESOURCE_OUT
        if self._journal is not None:
            self._journal.append(ProofStep(STEP_END_SPLIT))
        return Verdict.UNSAT

    def _record_sat_markers(self, force: bool = False) -> None:
        """Remember which obligation markers hold in the current branch.

        Recorded at the first saturated (SAT) leaf — where ``force``
        overwrites any markers left by an earlier resource-out branch —
        and at resource-out points, so ``RESOURCE_OUT``/``TIMED_OUT``
        verdicts can still name the obligation the prover was chewing on.
        """
        if self.stats.sat_markers:
            if not force:
                return
            self.stats.sat_markers.clear()
        from repro.logic.terms import IntLit as _IntLit

        for node in self.egraph.apps_with_head("@obligation"):
            if self.egraph.truth(node) is True:
                children = self.egraph.children_of(node)
                if children:
                    term = self.egraph.term_of(children[0])
                    if isinstance(term, _IntLit):
                        self.stats.sat_markers.append(term.value)

    def _remember(self, keys: Set[Tuple], key: Tuple) -> None:
        keys.add(key)
        self._branch_trail.append((keys, key))

    def _pop_branch(self, mark: int) -> None:
        trail = self._branch_trail
        while len(trail) > mark:
            keys, key = trail.pop()
            keys.discard(key)

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------

    def _instantiate_round(self, state: _State, width_limit: Optional[int] = None):
        """Match every pooled quantifier; assert relevant new instances.

        Each binding is evaluated on its nodes (``_bound_width``) and kept
        as a candidate if its *width* is within the limit (see
        ``Limits.max_instance_width``); instances are built only for the
        candidates ``_admit`` asserts, narrowest first, so that conflicts
        and unit propagations land before case splits. The first refuted
        (width 0) candidate ends the round at once: it would sort first
        and close the branch. Too-wide candidates are not marked seen —
        they are reconsidered on later rounds, when more of their
        disjuncts may have been refuted. Redundant ones (already true) are
        remembered for the branch and not evaluated again.

        Returns the number of asserted instances, or "conflict"/"resource".
        """
        if width_limit is None:
            width_limit = self.limits.max_instance_width
        candidates = []
        for record in list(state.quants):
            quantifier = record.formula
            variables = set(quantifier.vars)
            effective_limit = width_limit
            if quantifier.width_cap is not None:
                effective_limit = min(width_limit, quantifier.width_cap)
            for multipattern in record.triggers:
                matches = 0
                for binding in match_multipattern(
                    self.egraph,
                    multipattern,
                    stats=self.stats,
                    name=quantifier.name or "<anonymous>",
                ):
                    if self._out_of_time():
                        return "resource"
                    matches += 1
                    if matches > self.limits.max_matches_per_round:
                        break
                    if binding.keys() != variables:
                        continue  # trigger did not bind every variable
                    key = (
                        quantifier,
                        tuple(binding[v] for v in quantifier.vars),
                    )
                    if key in self._seen or key in self._redundant:
                        continue
                    width = self._bound_width(quantifier.body, binding)
                    if width < 0:
                        self._remember(self._redundant, key)
                        continue
                    if width > effective_limit:
                        continue
                    candidate = (width, len(candidates), key, binding, effective_limit)
                    if width == 0:
                        # It sorts first, nothing asserted before it can
                        # change its width, and asserting it closes the
                        # branch: the rest of the round cannot matter. (A
                        # node orphaned by a popped branch can keep the
                        # branch open; the round then ends with this one
                        # instance, and the search goes on.)
                        return self._admit([candidate], state)
                    candidates.append(candidate)
        candidates.sort(key=lambda c: (c[0], c[1]))
        return self._admit(candidates, state)

    def _admit(self, candidates, state: _State):
        """Assert the instances of ``candidates`` in order, re-checking
        each against the assertions made before it.

        Returns the number of asserted instances, or "conflict"/"resource".
        """
        added = 0
        for _, _, key, binding, effective_limit in candidates:
            if self._out_of_time():
                return "resource"
            if key in self._seen:
                continue
            quantifier = key[0]
            width = self._bound_width(quantifier.body, binding)
            if width < 0:
                self._remember(self._redundant, key)
                continue
            if width > effective_limit:
                continue
            self._remember(self._seen, key)
            self.stats.instantiations += 1
            name = quantifier.name or "<anonymous>"
            self.stats.per_quantifier[name] = (
                self.stats.per_quantifier.get(name, 0) + 1
            )
            if self.stats.instantiations > self.limits.max_instances:
                return "resource"
            added += 1
            witnesses = {
                v: self.egraph.term_of(node)
                for v, node in zip(quantifier.vars, key[1])
            }
            instance = self._instance_cache.get(key)
            if instance is None:
                instance = subst_formula(quantifier.body, witnesses)
                self._instance_cache[key] = instance
            if self._journal is not None:
                self._journal.append(
                    ProofStep(
                        STEP_INSTANCE,
                        formula=instance,
                        quantifier=quantifier,
                        witnesses=witnesses,
                    )
                )
            if not self._assert(instance, state):
                if self._journal is not None:
                    self._journal.append(
                        ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL)
                    )
                return "conflict"
        return added


def prove_valid(
    axioms: List[Formula],
    goal: Formula,
    limits: Optional[Limits] = None,
    *,
    explain: bool = False,
    background: Optional[Background] = None,
) -> ProverResult:
    """Prove ``(and axioms) ==> goal`` by refutation.

    ``UNSAT`` means the implication is valid; ``SAT`` means the prover
    saturated without closing (not provable with the given axioms);
    ``RESOURCE_OUT`` means the instantiation/time budget was exhausted.
    With ``explain``, the result additionally carries a replayable
    :class:`~repro.prover.prooflog.ProofLog` (``UNSAT``) or a
    :class:`~repro.prover.countermodel.Countermodel` (``SAT``). A
    ``background``'s formulas come first among the axioms, asserted once
    per background (see :class:`Background`).
    """
    solver = Solver(limits, explain=explain, background=background)
    for axiom in axioms:
        solver.add(axiom)
    solver.add_negated_goal(goal)
    return solver.check()
