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

Ground inclusion is decided by lookup, not by E-matching, once the facts
outside any branch hold the local-inclusion axiom
``forall S, X, A, B :: !linc(A, B) | inc(S, X, A, X, B)`` (UBP's
``inc-local``) and ground ``linc(a, b)`` facts (BP_D's): each such fact
registers its pair with the E-graph, which then decides every
``inc(s, x, a, x, b)`` it sees (see :class:`~repro.prover.egraph.EGraph`).
After each assertion the solver asserts the decided applications true; in
explain mode it first journals each as the ``inc-local`` instance with
witnesses ``s, x, a, b``, so the replay kernel, which has no lookup,
re-derives it. The axiom stays in the pool for what the lookup misses.
"""

from __future__ import annotations

import enum
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

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
from repro.prover.egraph import EGraph
from repro.prover.matching import Emitter, compile_trigger, compiled, term_shape
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
from repro.record import MISSING, Record, field

if TYPE_CHECKING:
    from repro.prover.countermodel import Countermodel


#: Version of the search; folded into the parallel result-cache key (see
#: :func:`repro.parallel.cache.code_version`) so cached verdicts, and the
#: ``ProverStats`` they carry, never outlive a change in which steps the
#: search takes. 2: ground inclusion decided by lookup.
SEARCH_VERSION = 2


class Verdict(enum.Enum):
    """Outcome of a satisfiability check."""

    UNSAT = "unsat"
    SAT = "sat"
    RESOURCE_OUT = "resource-out"


class Limits(Record):
    """Resource bounds for one ``check`` call."""

    max_instances: int = 20000
    max_rounds: int = 40
    max_depth: int = 400
    max_branches: int = 200000
    #: Matches taken from one multi-pattern in one round (the count
    #: starts again for every multi-pattern of every quantifier), so a
    #: round can see many times this many in all.
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

    def __init__(
        self,
        max_instances=20000,
        max_rounds=40,
        max_depth=400,
        max_branches=200000,
        max_matches_per_round=5000,
        time_budget=30.0,
        scope_time_budget=None,
        scope_deadline=None,
        max_instance_width=1,
        escalation_bonus=2,
    ):
        self.max_instances = max_instances
        self.max_rounds = max_rounds
        self.max_depth = max_depth
        self.max_branches = max_branches
        self.max_matches_per_round = max_matches_per_round
        self.time_budget = time_budget
        self.scope_time_budget = scope_time_budget
        self.scope_deadline = scope_deadline
        self.max_instance_width = max_instance_width
        self.escalation_bonus = escalation_bonus


class ProverStats(Record):
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
    #: ``inc`` applications decided true by the ground inclusion lookup
    #: (each one an ``inc-local`` instance E-matching did not have to
    #: find; not counted in ``instantiations``).
    inclusion_lookups: int = 0

    def __init__(
        self,
        instantiations=0,
        rounds=0,
        branches=0,
        conflicts=0,
        max_depth=0,
        unmatchable_quantifiers=0,
        per_quantifier=MISSING,
        elapsed=0.0,
        sat_markers=MISSING,
        facts=0,
        merges=0,
        matches=0,
        matches_by_quantifier=MISSING,
        inclusion_lookups=0,
    ):
        self.instantiations = instantiations
        self.rounds = rounds
        self.branches = branches
        self.conflicts = conflicts
        self.max_depth = max_depth
        self.unmatchable_quantifiers = unmatchable_quantifiers
        self.per_quantifier = (
            {} if per_quantifier is MISSING else per_quantifier
        )
        self.elapsed = elapsed
        self.sat_markers = [] if sat_markers is MISSING else sat_markers
        self.facts = facts
        self.merges = merges
        self.matches = matches
        self.matches_by_quantifier = (
            {} if matches_by_quantifier is MISSING else matches_by_quantifier
        )
        self.inclusion_lookups = inclusion_lookups

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
            "inclusion_lookups": self.inclusion_lookups,
        }


class ProverResult(Record):
    """Verdict plus statistics; ``valid`` reads the refutation outcome."""

    verdict: Verdict
    stats: ProverStats
    #: In explain mode only: the refuting branch snapshot on ``SAT`` …
    countermodel: Optional[Countermodel] = None
    #: … and the replayable step record of the refutation on ``UNSAT``.
    proof_log: Optional[ProofLog] = None

    def __init__(self, verdict, stats, countermodel=None, proof_log=None):
        self.verdict = verdict
        self.stats = stats
        self.countermodel = countermodel
        self.proof_log = proof_log

    @property
    def valid(self) -> bool:
        """For ``prove_valid``: the goal is proved iff refutation closed."""
        return self.verdict is Verdict.UNSAT


class _QuantRecord(Record):
    formula: Forall
    triggers: Tuple[Tuple[Term, ...], ...]
    #: The integer that stands for ``formula`` in the solver's instance
    #: keys: records of structurally equal quantifiers share it (see
    #: ``Solver._quantifier_ids``).
    ident: int = 0
    #: Built the first time the record is matched: a ``(matcher,
    #: parameters)`` pair per multi-pattern …
    matchers: Optional[Tuple[Tuple[Callable, Tuple[Term, ...]], ...]] = field(
        default=None, compare=False, repr=False
    )
    #: … and the body's ``(width function, parameters)``.
    width: Optional[Tuple[Callable, Tuple[Term, ...]]] = field(
        default=None, compare=False, repr=False
    )

    def __init__(self, formula, triggers, ident=0, matchers=None, width=None):
        self.formula = formula
        self.triggers = triggers
        self.ident = ident
        self.matchers = matchers
        self.width = width

    def compile(self) -> None:
        variables = self.formula.vars
        self.width = compile_width(self.formula)
        self.matchers = tuple(
            compile_trigger(multipattern, variables) for multipattern in self.triggers
        )

    def __getstate__(self):
        # Generated functions do not pickle; a copy compiles again.
        return {
            "formula": self.formula,
            "triggers": self.triggers,
            "ident": self.ident,
        }


def compile_width(quantifier: Forall) -> Tuple[Callable, Tuple[Term, ...]]:
    """The candidate width of ``quantifier``'s body, compiled, and its
    parameters: ``width(egraph, parameters, nodes)`` with ``nodes`` bound
    to the quantifier's variables in order.

    The width is the number of top-level disjuncts of the instance that
    are not currently refuted, the relevancy measure for candidate
    instances: −1 means the instance already holds (redundant), 0 that
    it conflicts, 1 that it unit-propagates, k that asserting it parks a
    k-way case split. It is read off the nodes without building the
    instance and without interning: each term resolves to the node
    ``EGraph.lookup`` would give its instance — a variable to its node, a
    constant through the term index, an application through the
    hash-consing memo, else by congruence through the signature table —
    and a term not in the E-graph is unknown. Quantified subformulas are
    unknown.
    """
    slots = {name: index for index, name in enumerate(quantifier.vars)}
    constants: Dict[Term, int] = {}
    shape = _formula_shape(quantifier.body, slots, constants)
    if len(slots) != len(quantifier.vars):
        raise ValueError(f"body has free variables: {quantifier}")
    key = ("width", len(slots), len(constants), shape)
    return compiled(key, lambda: _WidthWriter(key).source()), tuple(constants)


def _formula_shape(formula: Formula, slots, constants) -> tuple:
    """``formula`` as a nested tuple, its terms as in
    :func:`~repro.prover.matching.term_shape`; a quantified (or any other)
    subformula is ``("unknown",)``."""
    if isinstance(formula, (Or, And)):
        parts = formula.disjuncts if isinstance(formula, Or) else formula.conjuncts
        return (
            "or" if isinstance(formula, Or) else "and",
            tuple(_formula_shape(part, slots, constants) for part in parts),
        )
    if isinstance(formula, Not):
        return ("not", _formula_shape(formula.body, slots, constants))
    if isinstance(formula, Eq):
        return (
            "eq",
            term_shape(formula.left, slots, constants),
            term_shape(formula.right, slots, constants),
        )
    if isinstance(formula, Pred):
        args = tuple(term_shape(arg, slots, constants) for arg in formula.args)
        return ("pred", formula.name, args)
    if isinstance(formula, TrueF):
        return ("true",)
    if isinstance(formula, FalseF):
        return ("false",)
    return ("unknown",)


def _tuple_text(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


class _WidthWriter:
    """Writes the straight-line width function of one body shape.

    Each term and subformula is computed once, into a local, the first
    time a top-level disjunct needs it; three-valued truth is ``True``,
    ``False`` or ``None`` (unknown). The function returns at the first
    disjunct that already holds.
    """

    def __init__(self, key):
        _, self.nvars, self.nconstants, self.body = key
        self.out = Emitter(
            "def width(eg, params, nodes):",
            (
                ("find", "eg.find"),
                ("memo", "eg._memo.get"),
                ("sig", "eg._sig.get"),
                ("node_of", "eg._node_of.get"),
                ("truth", "eg.truth"),
                ("diseq", "eg.are_diseq"),
            ),
        )
        self.terms: Dict[tuple, Tuple[str, bool]] = {}
        self.values: Dict[tuple, str] = {}
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def source(self) -> Tuple[str, str]:
        out = self.out
        if self.nvars:
            out.line("".join(f"n{slot}, " for slot in range(self.nvars)) + "= nodes")
        if self.nconstants:
            names = "".join(f"c{index}, " for index in range(self.nconstants))
            out.line(f"{names}= params")
        out.line("w = 0")
        for disjunct in _disjuncts(self.body):
            value = self.value(disjunct)
            if value == "True":
                out.line("return -1")
                return out.text(), "width"
            if value == "None":
                out.line("w += 1")
            elif value != "False":
                out.line(f"if {value} is None: w += 1")
                out.line(f"elif {value}: return -1")
        out.line("return w")
        return out.text(), "width"

    def term(self, shape) -> Tuple[str, bool]:
        """The local holding ``shape``'s node, and whether it can be None."""
        known = self.terms.get(shape)
        if known is not None:
            return known
        out = self.out
        if shape[0] == "var":
            known = (f"n{shape[1]}", False)
        elif shape[0] == "const":
            name = f"k{shape[1]}"
            out.line(f"{name} = node_of(c{shape[1]})")
            known = (name, True)
        else:
            known = (self.application(shape[1], shape[2]), True)
        self.terms[shape] = known
        return known

    def application(self, fn: str, args) -> str:
        children = [self.term(arg) for arg in args]
        name = self.fresh("t")
        out = self.out
        unknown = [child for child, can_be_none in children if can_be_none]
        if unknown:
            out.line(f"if {' or '.join(f'{c} is None' for c in unknown)}:")
            out.line(f"    {name} = None")
            out.line("else:")
            out.depth += 1
        nodes = _tuple_text(child for child, _ in children)
        roots = _tuple_text(f"find({child})" for child, _ in children)
        out.line(f"{name} = memo(({fn!r}, {nodes}))")
        out.line(f"if {name} is None: {name} = sig(({fn!r}, {roots}))")
        if unknown:
            out.depth -= 1
        return name

    def value(self, shape) -> str:
        """The local (or literal) holding ``shape``'s three-valued truth."""
        known = self.values.get(shape)
        if known is not None:
            return known
        kind = shape[0]
        out = self.out
        if kind in ("true", "false", "unknown"):
            return {"true": "True", "false": "False", "unknown": "None"}[kind]
        name = self.fresh("v")
        if kind == "pred":
            node, _ = self.term(("app", shape[1], shape[2]))
            out.line(f"{name} = None if {node} is None else truth({node})")
        elif kind == "eq":
            sides = (self.term(shape[1]), self.term(shape[2]))
            (left, _), (right, _) = sides
            unknown = " or ".join(f"{n} is None" for n, maybe in sides if maybe)
            test = "if"
            if unknown:
                out.line(f"if {unknown}: {name} = None")
                test = "elif"
            out.line(f"{test} find({left}) == find({right}): {name} = True")
            out.line(f"elif diseq({left}, {right}): {name} = False")
            out.line(f"else: {name} = None")
        elif kind == "not":
            inner = self.value(shape[1])
            if inner in ("True", "False"):
                return "False" if inner == "True" else "True"
            if inner == "None":
                return "None"
            out.line(f"{name} = None if {inner} is None else not {inner}")
        else:
            parts = [self.value(part) for part in shape[1]]
            decisive, neutral = ("True", "False") if kind == "or" else ("False", "True")
            if decisive in parts:
                return decisive
            pending = [part for part in parts if part not in (neutral, "None")]
            if not pending:
                return "None" if "None" in parts else neutral
            decides = " or ".join(f"{part} is {decisive}" for part in pending)
            if "None" in parts:
                otherwise = "None"
            else:
                unknown = " or ".join(f"{part} is None" for part in pending)
                otherwise = f"(None if {unknown} else {neutral})"
            out.line(f"{name} = {decisive} if {decides} else {otherwise}")
        self.values[shape] = name
        return name


class _InclusionLookup(Record, frozen=True):
    """The local-inclusion axiom that licenses the ground inclusion lookup:
    ``forall S, X, A, B :: !local(A, B) | inclusion(S, X, A, X, B)``."""

    axiom: Forall
    inclusion: str
    local: str

    @staticmethod
    def of(axiom: Forall) -> Optional["_InclusionLookup"]:
        """The lookup ``axiom`` licenses, if it has the shape above."""
        body = axiom.body
        if len(axiom.vars) != 4 or not isinstance(body, Or):
            return None
        if len(body.disjuncts) != 2:
            return None
        local, inclusion = body.disjuncts
        if not (
            isinstance(local, Not)
            and isinstance(local.body, Pred)
            and isinstance(inclusion, Pred)
        ):
            return None
        s, x, a, b = (Var(name) for name in axiom.vars)
        if local.body.args != (a, b) or inclusion.args != (s, x, a, x, b):
            return None
        return _InclusionLookup(axiom, inclusion.name, local.body.name)

    def witnesses(
        self, egraph: EGraph, node: int, a: int, b: int
    ) -> Tuple[Term, Term, Term, Term]:
        """The axiom's witnesses for deciding ``node`` by the registered
        pair ``(a, b)``: the node's store and first object, and the pair."""
        store, obj = egraph.children_of(node)[:2]
        return tuple(egraph.term_of(witness) for witness in (store, obj, a, b))

    def instance(self, witnesses: Tuple[Term, ...]) -> ProofStep:
        """The journal step of the axiom's instance at ``witnesses``."""
        binding = dict(zip(self.axiom.vars, witnesses))
        return ProofStep(
            STEP_INSTANCE,
            formula=subst_formula(self.axiom.body, binding),
            quantifier=self.axiom,
            witnesses=binding,
        )


def _disjuncts(shape):
    """The top-level disjuncts of a body shape, nested disjunctions
    flattened."""
    if shape[0] != "or":
        return [shape]
    found = []
    for part in shape[1]:
        found.extend(_disjuncts(part))
    return found


class _State:
    """Branch-local search state (disjunctions and quantifier pool)."""

    __slots__ = ("disjunctions", "quants", "rounds")

    def __init__(self, disjunctions=None, quants=None, rounds=0):
        self.disjunctions: List[Or] = disjunctions if disjunctions is not None else []
        self.quants: List[_QuantRecord] = quants if quants is not None else []
        self.rounds = rounds

    def clone(self) -> "_State":
        return _State(list(self.disjunctions), list(self.quants), self.rounds)


class _Prepared(Record, frozen=True):
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
    #: … the ``FreshNames`` counters their skolemization left …
    names: Tuple[Tuple[str, int], ...]
    #: … and the quantifiers registered so far, by instance-key integer.
    quantifiers: Tuple[Forall, ...]
    quantifier_ids: Dict[Forall, int]
    #: The local-inclusion axiom among the facts, if one licenses lookups.
    lookup: Optional[_InclusionLookup]
    #: ``ProverStats`` counters at the boundary.
    added: int
    conflicts: int
    unmatchable: int


class Background:
    """Closed hypotheses shared by many checks: UBP, or a scope's UBP ∧ BP_D.

    A background may extend a ``base``: its formulas are the base's,
    followed by its own. The checker keeps one UBP background per process
    and gives each scope a background that extends it
    (:func:`repro.vcgen.vc.scope_background_of`), so UBP is asserted once
    per process and BP_D once per scope.

    A :class:`Solver` given a background resumes from the state of the
    last background along the chain that is prepared, and asserts only
    the formulas after it. At the boundary after each later background's
    last formula it stores the state they built on that background.
    Verdicts, statistics and proof logs are those of asserting everything
    from scratch. A deadline or an exception before a boundary stores
    nothing there.

    :meth:`prepare` stores the state without a check of its own. The
    ``-j`` supervisor prepares its scope's background before it forks
    its workers, so every worker resumes from the E-graph and compiled
    matchers it inherits.

    The state is process-local: its owner keeps it out of pickles.
    """

    def __init__(
        self, formulas: List[Formula], base: Optional["Background"] = None
    ):
        self.base = base
        own = tuple(formulas)
        self.formulas: Tuple[Formula, ...] = (
            own if base is None else base.formulas + own
        )
        self._prepared: Optional[_Prepared] = None

    def prepare(self, limits: Optional[Limits] = None) -> bool:
        """Store the state at the boundary now (its bases' too), and
        compile the matchers and width function of every quantifier in it.

        The formulas are asserted in a throwaway :class:`Solver`, as the
        first solver given this background would assert them. ``limits``
        bound it by their ``time_budget`` and ``scope_deadline``: a
        prepare that passes either, or raises, stores nothing, on this
        background or its bases. Returns whether the background is
        prepared; once it is, a call does nothing.
        """
        if self._prepared is None:
            solver = Solver(limits, background=self)
            pending = [background for _, background, _ in solver._boundaries]
            try:
                solver._arm_deadline(time.monotonic())
                solver._load(_State())
                prepared = self._prepared
                if prepared is not None:
                    for record in prepared.quants:
                        if record.matchers is None:
                            record.compile()
            except BaseException:
                for background in pending:
                    background._prepared = None
                raise
            if self._prepared is None or solver._out_of_time():
                for background in pending:
                    background._prepared = None
        return self._prepared is not None


class Solver:
    """A refutation-based solver for closed first-order formulas.

    With a ``background``, the solver's leading facts are the background's
    formulas: it resumes from the background's prepared state, or its
    base's, and prepares the rest (see :class:`Background`).
    """

    def __init__(
        self,
        limits: Optional[Limits] = None,
        *,
        explain: bool = False,
        background: Optional[Background] = None,
    ):
        self.limits = limits or Limits()
        # The background and its bases, outermost first, up to the first
        # prepared one: that one's state is resumed, the others prepared.
        unprepared: List[Background] = []
        resumed: Optional[_Prepared] = None
        while background is not None:
            resumed = background._prepared
            if resumed is not None:
                break
            unprepared.append(background)
            background = background.base
        #: The prepared state this solver resumes from, if any.
        self._resumed = resumed
        self.stats = ProverStats()
        if resumed is None:
            self.egraph = EGraph()
            self._fresh = FreshNames()
            self._facts: List[Formula] = []
            #: Every quantifier registered, by the integer that stands for
            #: it in instance keys, and the integer of each (structurally
            #: equal quantifiers share one, as they share instances).
            self._quantifiers: List[Forall] = []
            self._quantifier_ids: Dict[Forall, int] = {}
            #: Set by a fact that licenses the ground inclusion lookup.
            self._lookup: Optional[_InclusionLookup] = None
        else:
            self.egraph = resumed.egraph.copy()
            self._fresh = FreshNames(dict(resumed.names))
            self._facts = list(resumed.facts)
            self._quantifiers = list(resumed.quantifiers)
            self._quantifier_ids = dict(resumed.quantifier_ids)
            self._lookup = resumed.lookup
            self.stats.facts = resumed.added
            self.stats.conflicts = resumed.conflicts
            self.stats.unmatchable_quantifiers = resumed.unmatchable
        #: ``(formula count, background, name counters)`` at the boundary
        #: of each background this solver prepares, innermost first.
        #: Asserting NNF, skolemized facts draws no names, so the counters
        #: after adding a background's formulas are those at its boundary.
        self._boundaries: List[
            Tuple[int, Background, Tuple[Tuple[str, int], ...]]
        ] = []
        added = resumed.added if resumed is not None else 0
        for pending in reversed(unprepared):
            for formula in pending.formulas[added:]:
                self.add(formula)
            added = len(pending.formulas)
            self._boundaries.append(
                (added, pending, tuple(self._fresh.counters().items()))
            )
        #: Instance keys ``(quantifier integer, nodes)`` asserted in the
        #: current branch …
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

    # ------------------------------------------------------------------
    # Loading formulas
    # ------------------------------------------------------------------

    def add(self, formula: Formula) -> None:
        """Assert a closed formula (axiom or hypothesis)."""
        free = formula_free_vars(formula)
        if free:
            raise ValueError(f"formula must be closed; free: {sorted(free)}")
        atom = formula.body if isinstance(formula, Not) else formula
        if isinstance(atom, (Eq, Pred)):
            # A literal is its own NNF and has nothing to skolemize.
            self._facts.append(formula)
        else:
            self._facts.append(skolemize(to_nnf(formula), self._fresh, "hyp"))
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
        self._arm_deadline(start)
        state = _State()
        verdict = self._load(state)
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

    def _arm_deadline(self, start: float) -> None:
        """Set the deadline from the limits' budget and scope deadline."""
        if self.limits.time_budget is not None:
            self._deadline = start + self.limits.time_budget
        if self.limits.scope_deadline is not None:
            self._deadline = (
                self.limits.scope_deadline
                if self._deadline is None
                else min(self._deadline, self.limits.scope_deadline)
            )

    def _load(self, state: _State) -> Optional[Verdict]:
        """Resume into ``state`` and assert the facts after the resumed
        ones; a verdict if that decides the check."""
        prepared = self._resumed
        if prepared is not None and self._out_of_time():
            # Asserting from scratch stops before the first fact: so does
            # a resumed solver, with nothing of the resumed state.
            self.egraph = EGraph()
            self._lookup = None
            self.stats.conflicts = self.stats.unmatchable_quantifiers = 0
            prepared = None
        if prepared is None:
            return self._assert_facts(state, 0)
        # The journal prefix is the one asserting the background would
        # have written.
        if self._journal is not None:
            for fact in prepared.facts:
                self._journal.append(ProofStep(STEP_FACT, formula=fact))
        if prepared.closed:
            if self._journal is not None:
                self._journal.append(ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL))
            if self._boundaries:
                self._prepare(state, len(prepared.facts), closed=True)
            return Verdict.UNSAT
        state.disjunctions = list(prepared.disjunctions)
        state.quants = list(prepared.quants)
        return self._assert_facts(state, len(prepared.facts))

    def _assert_facts(self, state: _State, first: int) -> Optional[Verdict]:
        """Assert the facts from index ``first`` on; a verdict if that
        decides the check. Passing a background's boundary prepares it."""
        boundaries = self._boundaries
        for index in range(first, len(self._facts)):
            if self._out_of_time():
                self._record_sat_markers()
                return Verdict.RESOURCE_OUT
            fact = self._facts[index]
            if self._journal is not None:
                self._journal.append(ProofStep(STEP_FACT, formula=fact))
            if not (self._assert(fact, state) and self._decide_inclusions()):
                if self._journal is not None:
                    self._journal.append(
                        ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL)
                    )
                if boundaries:
                    self._prepare(state, index + 1, closed=True)
                return Verdict.UNSAT
            self._set_up_lookup(fact)
            if boundaries and index + 1 == boundaries[0][0]:
                self._prepare(state, index + 1, closed=False)
        return None

    def _prepare(self, state: _State, asserted: int, closed: bool) -> None:
        """Store the state after ``asserted`` facts on the backgrounds
        whose boundary it is, or a closed state on every pending one."""
        if self.stats.inclusion_lookups:
            # A resumed journal is rebuilt from the facts alone, without
            # lookup steps: such a background is asserted in full instead.
            self._boundaries.clear()
            return
        egraph = None
        while self._boundaries and (closed or self._boundaries[0][0] == asserted):
            added, background, names = self._boundaries.pop(0)
            if egraph is None:
                egraph = self.egraph.copy()
            background._prepared = _Prepared(
                egraph=egraph,
                disjunctions=tuple(state.disjunctions),
                quants=tuple(state.quants),
                facts=tuple(self._facts[:asserted]),
                closed=closed,
                names=names,
                quantifiers=tuple(self._quantifiers),
                quantifier_ids=dict(self._quantifier_ids),
                lookup=self._lookup,
                added=added,
                conflicts=self.stats.conflicts,
                unmatchable=self.stats.unmatchable_quantifiers,
            )

    def _set_up_lookup(self, fact: Formula) -> None:
        """Take the ground inclusion lookup's axiom, or one of its pairs,
        from a fact just asserted outside any branch."""
        lookup = self._lookup
        if isinstance(fact, Forall):
            if lookup is None:
                self._lookup = _InclusionLookup.of(flatten_forall(fact))
        elif (
            isinstance(fact, Pred)
            and lookup is not None
            and fact.name == lookup.local
            and len(fact.args) == 2
        ):
            egraph = self.egraph
            left, right = fact.args
            egraph.register_inclusion(
                lookup.inclusion, egraph.intern(left), egraph.intern(right)
            )

    def _decide_inclusions(self) -> bool:
        """Assert true the applications the E-graph decided by lookup since
        the last call; False on conflict (the caller journals the close).

        Each is asserted as the replay kernel asserts its journaled
        ``inc-local`` instance, whose ``linc`` premise is a fact: the atom
        ``inc(s, x, a, x, b)`` at the witnesses, the decided node itself
        when its objects and attributes are those very nodes, and
        otherwise one that congruence joins to it.
        """
        egraph = self.egraph
        decided = egraph.take_inclusions()
        while decided:
            lookup = self._lookup
            for node, a, b in decided:
                if egraph.are_equal(node, egraph.TRUE):
                    continue
                self.stats.inclusion_lookups += 1
                witnesses = lookup.witnesses(egraph, node, a, b)
                if self._journal is not None:
                    self._journal.append(lookup.instance(witnesses))
                store, obj, left, right = witnesses
                atom = App(lookup.inclusion, (store, obj, left, obj, right))
                if not egraph.assert_eq(egraph.intern(atom), egraph.TRUE):
                    self.stats.conflicts += 1
                    return False
            decided = egraph.take_inclusions()
        return True

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
            node = self.egraph.intern(formula.atom)
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
                node = self.egraph.intern(body.atom)
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
            # Background axioms carry their patterns, so a plain check
            # may never need inference.
            from repro.prover.triggers import infer_triggers

            triggers = infer_triggers(formula)
            if not triggers:
                self.stats.unmatchable_quantifiers += 1
                return
        ident = self._quantifier_ids.get(formula)
        if ident is None:
            ident = len(self._quantifiers)
            self._quantifier_ids[formula] = ident
            self._quantifiers.append(formula)
        state.quants.append(_QuantRecord(formula, triggers, ident))

    # ------------------------------------------------------------------
    # Three-valued evaluation against the E-graph
    # ------------------------------------------------------------------

    def _eval(self, formula: Formula) -> Optional[bool]:
        kind = formula.__class__
        if kind is Pred:
            return self.egraph.truth(self.egraph.intern(formula.atom))
        if kind is Eq:
            egraph = self.egraph
            left = egraph.intern(formula.left)
            right = egraph.intern(formula.right)
            if egraph.are_equal(left, right):
                return True
            if egraph.are_diseq(left, right):
                return False
            return None
        if kind is Not:
            inner = self._eval(formula.body)
            return None if inner is None else not inner
        if kind is Or:
            value = False
            for disjunct in formula.disjuncts:
                inner = self._eval(disjunct)
                if inner is True:
                    return True
                if inner is None:
                    value = None
            return value
        if kind is And:
            value = True
            for conjunct in formula.conjuncts:
                inner = self._eval(conjunct)
                if inner is False:
                    return False
                if inner is None:
                    value = None
            return value
        if kind is TrueF:
            return True
        if kind is FalseF:
            return False
        return None  # quantifiers and anything else: unknown

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
                    from repro.prover.countermodel import capture_countermodel

                    self._countermodel = capture_countermodel(
                        self.egraph,
                        self._seen,
                        self.stats.sat_markers,
                        self._quantifiers,
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
                if not (
                    self._assert(remaining[0], state)
                    and self._decide_inclusions()
                ):
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
        # Evaluating the clauses interns their atoms, which the lookup
        # may decide.
        lookups = self.stats.inclusion_lookups
        if not self._decide_inclusions():
            if self._journal is not None:
                self._journal.append(ProofStep(STEP_CLOSE, reason=CLOSE_KERNEL))
            return progressed, Verdict.UNSAT
        return progressed or self.stats.inclusion_lookups > lookups, None

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
            ok = self._assert(disjunct, child) and self._decide_inclusions()
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

    def _width_of(self, record: _QuantRecord) -> Tuple[Callable, Tuple[Term, ...]]:
        """The compiled width function of ``record``'s body and its
        parameters (see :func:`compile_width`)."""
        return record.width

    def _instantiate_round(self, state: _State, width_limit: Optional[int] = None):
        """Match every pooled quantifier; assert relevant new instances.

        Each match is evaluated on its nodes (:func:`compile_width`) and
        kept as a candidate if its *width* is within the limit (see
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
        egraph = self.egraph
        seen, redundant = self._seen, self._redundant
        max_matches = self.limits.max_matches_per_round
        candidates = []
        for record in list(state.quants):
            if record.matchers is None:
                record.compile()
            quantifier = record.formula
            ident = record.ident
            effective_limit = width_limit
            if quantifier.width_cap is not None:
                effective_limit = min(width_limit, quantifier.width_cap)
            width_of, width_parameters = self._width_of(record)
            for matcher, parameters in record.matchers:
                matches = 0
                closing = None
                for nodes in matcher(egraph, parameters):
                    matches += 1
                    # The deadline is read every 32 bindings (and at the
                    # first): the clock is dearer than a binding.
                    if matches & 31 == 1 and self._out_of_time():
                        self._count_matches(quantifier, matches)
                        return "resource"
                    if matches > max_matches:
                        break
                    if nodes is None:
                        continue  # trigger did not bind every variable
                    key = (ident, nodes)
                    if key in seen or key in redundant:
                        continue
                    width = width_of(egraph, width_parameters, nodes)
                    if width < 0:
                        self._remember(redundant, key)
                        continue
                    if width > effective_limit:
                        continue
                    candidate = (width, len(candidates), key, record, effective_limit)
                    if width == 0:
                        # It sorts first, nothing asserted before it can
                        # change its width, and asserting it closes the
                        # branch: the rest of the round cannot matter. (A
                        # node orphaned by a popped branch can keep the
                        # branch open; the round then ends with this one
                        # instance, and the search goes on.)
                        closing = candidate
                        break
                    candidates.append(candidate)
                if matches:
                    self._count_matches(quantifier, matches)
                if closing is not None:
                    return self._admit([closing], state)
        candidates.sort(key=lambda c: (c[0], c[1]))
        return self._admit(candidates, state)

    def _count_matches(self, quantifier: Forall, matches: int) -> None:
        """Add one multi-pattern's matches to ``stats.matches`` and to its
        quantifier's ``stats.matches_by_quantifier``."""
        self.stats.matches += matches
        name = quantifier.name or "<anonymous>"
        by_name = self.stats.matches_by_quantifier
        by_name[name] = by_name.get(name, 0) + matches

    def _admit(self, candidates, state: _State):
        """Assert the instances of ``candidates`` in order, re-checking
        each against the assertions made before it.

        Returns the number of asserted instances, or "conflict"/"resource".
        """
        added = 0
        for _, _, key, record, effective_limit in candidates:
            if self._out_of_time():
                return "resource"
            if key in self._seen:
                continue
            quantifier, nodes = record.formula, key[1]
            width_of, width_parameters = self._width_of(record)
            width = width_of(self.egraph, width_parameters, nodes)
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
                v: self.egraph.term_of(node) for v, node in zip(quantifier.vars, nodes)
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
            if not (self._assert(instance, state) and self._decide_inclusions()):
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
