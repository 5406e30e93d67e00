"""Assembly of per-implementation verification conditions (formula (1)).

``VC_D(m, C) = UBP & BP_D & Init(m) ==> wlp_{w,$0}(C, true)``

``Init(m)`` contributes, for every formal parameter ``t`` of ``m``,
``ownExcl(t, w, $0) & alive($0, t)`` (the paper's (5)); the ``$ = $0``
identification is performed by substituting the entry store for the free
current-store variable of the wlp. Formal parameters are encoded as logic
constants bearing their source names.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import VerificationError
from repro.logic.nnf import FreshNames
from repro.logic.subst import subst_formula
from repro.logic.terms import Const, Formula, IntLit, Not, Pred, TrueF, conj
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    BinOp,
    Call,
    ImplDecl,
    IntConst,
    ProcDecl,
    UnOp,
    walk_commands,
)
from repro.oolong.program import Scope
from repro.prover.core import Background, Limits, ProverResult, prove_valid
from repro.record import MISSING, Record, field, fields
from repro.vcgen.background import scope_background, universal_background
from repro.vcgen.translate import TranslationContext, own_excl_formula
from repro.vcgen.vocab import alive, entry_store
from repro.vcgen.wlp import OBLIGATION_MARKER, ObligationInfo, WlpContext, wlp


def init_formula(scope: Scope, proc: ProcDecl, fresh: FreshNames) -> Formula:
    """``Init(m)``: owner exclusion and liveness of every formal at entry."""
    env = {param: Const(param) for param in proc.params}
    conjuncts: List[Formula] = []
    for param in proc.params:
        own = own_excl_formula(
            Const(param), proc.modifies, env, entry_store(), fresh
        )
        if not isinstance(own, TrueF):
            conjuncts.append(own)
        conjuncts.append(alive(entry_store(), Const(param)))
    return conj(conjuncts)


def _literals_in(impl: ImplDecl) -> List[int]:
    """All integer literals occurring in the implementation body."""
    found: List[int] = []

    def expr(node) -> None:
        if isinstance(node, IntConst):
            found.append(node.value)
        elif isinstance(node, BinOp):
            expr(node.left)
            expr(node.right)
        elif isinstance(node, UnOp):
            expr(node.operand)

    for node in walk_commands(impl.body):
        if isinstance(node, (Assert, Assume)):
            expr(node.condition)
        elif isinstance(node, Assign):
            expr(node.target)
            expr(node.rhs)
        elif isinstance(node, AssignNew):
            expr(node.target)
        elif isinstance(node, Call):
            for arg in node.args:
                expr(arg)
    return sorted(set(found))


def _sort_facts(impl: ImplDecl) -> List[Formula]:
    """``isObj`` negations for the literal values the body mentions."""
    facts: List[Formula] = [
        Not(Pred("isObj", (Const("@true"),))),
        Not(Pred("isObj", (Const("@false"),))),
    ]
    for value in _literals_in(impl):
        facts.append(Not(Pred("isObj", (IntLit(value),))))
    return facts


def formula_nodes(formula: Formula) -> int:
    """Number of formula/term nodes — the telemetry size measure of a VC.

    Generic over the record shape of :mod:`repro.logic.terms`: every
    record counts as one node and its fields are walked, tuples are
    walked through, leaves (names, ints, None) are free.
    """
    count = 0
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Record):
            count += 1
            for spec in fields(node):
                stack.append(getattr(node, spec.name))
        elif isinstance(node, (tuple, list)):
            stack.extend(node)
    return count


def _marker_traversal_order(goal: Formula) -> List[int]:
    """Obligation-marker ids in left-to-right goal order (first occurrence)."""
    order: List[int] = []
    seen = set()

    def walk(formula) -> None:
        from repro.logic.terms import (
            And as _And,
            Exists as _Exists,
            Forall as _Forall,
            Iff as _Iff,
            Implies as _Implies,
            Not as _Not,
            Or as _Or,
        )

        if isinstance(formula, Pred):
            if (
                formula.name == OBLIGATION_MARKER
                and formula.args
                and isinstance(formula.args[0], IntLit)
            ):
                ident = formula.args[0].value
                if ident not in seen:
                    seen.add(ident)
                    order.append(ident)
        elif isinstance(formula, _Not):
            walk(formula.body)
        elif isinstance(formula, _And):
            for conjunct in formula.conjuncts:
                walk(conjunct)
        elif isinstance(formula, _Or):
            for disjunct in formula.disjuncts:
                walk(disjunct)
        elif isinstance(formula, _Implies):
            walk(formula.antecedent)
            walk(formula.consequent)
        elif isinstance(formula, _Iff):
            walk(formula.left)
            walk(formula.right)
        elif isinstance(formula, (_Forall, _Exists)):
            walk(formula.body)

    walk(goal)
    return order


#: UBP, the same for every program: one background per process, which
#: every scope's background extends, so the prover asserts it once.
_UNIVERSAL: Optional[Background] = None


def universal_background_of() -> Background:
    """The process's UBP background, built on first use."""
    global _UNIVERSAL
    if _UNIVERSAL is None:
        _UNIVERSAL = Background(universal_background())
    return _UNIVERSAL


def scope_background_of(scope: Scope) -> Background:
    """``UBP & BP_D``: the hypotheses of formula (1) that depend only on
    the scope, built on the scope's first VC and kept on the scope. BP_D
    extends the process's UBP background, so the prover asserts UBP once
    per process and BP_D once per scope and process."""
    background = scope.vc_background
    if background is None:
        background = Background(scope_background(scope), universal_background_of())
        scope.vc_background = background
    return background


class VCBundle(Record):
    """A ready-to-prove verification condition for one implementation.

    ``hypotheses`` lists every hypothesis of formula (1). The leading
    ``len(background.formulas)`` of them are the scope's background
    ``UBP & BP_D``, shared by every VC of the scope; the rest (sort facts
    and ``Init(m)``) are this implementation's own. :meth:`prove` asserts
    only the latter, on top of the scope's prepared background.
    """

    impl: ImplDecl
    proc: ProcDecl
    hypotheses: List[Formula]
    goal: Formula
    obligations: List[ObligationInfo] = field(default_factory=list)
    background: Optional[Background] = None

    def __init__(
        self,
        impl,
        proc,
        hypotheses,
        goal,
        obligations=MISSING,
        background=None,
    ):
        self.impl = impl
        self.proc = proc
        self.hypotheses = hypotheses
        self.goal = goal
        self.obligations = [] if obligations is MISSING else obligations
        self.background = background

    def prove(
        self, limits: Optional[Limits] = None, *, explain: bool = False
    ) -> ProverResult:
        from repro import obs
        from repro.testing.faults import fault_point

        # Span nesting: stage ("prove") → implementation → VC, the same
        # stage name the fault harness injects at, so traces and faults
        # line up. All three close even when the fault (or the prover)
        # raises.
        budget = limits.time_budget if limits is not None else None
        with obs.span("prove", impl=self.impl.name, time_budget=budget):
            with obs.span(self.impl.name, obs.CAT_IMPL):
                with obs.span(
                    f"vc {self.impl.name}",
                    obs.CAT_VC,
                    hypotheses=len(self.hypotheses),
                    obligations=len(self.obligations),
                ) as sp:
                    shared = self.background
                    own = self.hypotheses[len(shared.formulas) if shared else 0:]
                    result = fault_point(
                        "prove",
                        prove_valid(
                            own,
                            self.goal,
                            limits,
                            explain=explain,
                            background=shared,
                        ),
                    )
                    sp.set(
                        verdict=result.verdict.value,
                        instantiations=result.stats.instantiations,
                        branches=result.stats.branches,
                        merges=result.stats.merges,
                    )
                    return result

    def failed_obligation(self, result: ProverResult) -> Optional[ObligationInfo]:
        """The obligation a non-proof got stuck on, if identifiable.

        Under the ordered goal negation, a saturated branch asserts the
        markers of every obligation on the control path up to and including
        the one being refuted — so among the true markers, the one latest
        in the goal's left-to-right traversal order names the refuted
        obligation. (Registration order cannot be used: wlp builds the
        formula backwards.)
        """
        markers = set(result.stats.sat_markers)
        if not markers:
            return None
        order = _marker_traversal_order(self.goal)
        latest = None
        for ident in order:
            if ident in markers:
                latest = ident
        if latest is not None and 0 <= latest < len(self.obligations):
            return self.obligations[latest]
        return None


def vc_for_impl(
    scope: Scope, impl: ImplDecl, *, owner_exclusion: bool = True
) -> VCBundle:
    """Generate the verification condition for ``impl`` in ``scope``.

    ``owner_exclusion=False`` drops both the call-site owner-exclusion
    obligations and the corresponding ``Init`` assumptions — the unsound
    naive baseline of the Section 3 experiments.
    """
    from repro import obs

    with obs.span("vcgen", impl=impl.name):
        with obs.span(impl.name, obs.CAT_IMPL):
            return _build_vc(scope, impl, owner_exclusion=owner_exclusion)


def _build_vc(
    scope: Scope, impl: ImplDecl, *, owner_exclusion: bool
) -> VCBundle:
    from repro import obs

    with obs.span(f"vc {impl.name}", obs.CAT_VC) as sp:
        return _build_vc_timed(
            scope, impl, sp, owner_exclusion=owner_exclusion
        )


def _build_vc_timed(
    scope: Scope, impl: ImplDecl, sp, *, owner_exclusion: bool
) -> VCBundle:
    from repro import obs

    proc = scope.proc(impl.name)
    if proc is None:
        raise VerificationError(
            f"implementation of undeclared procedure {impl.name!r}"
        )
    fresh = FreshNames()
    ctx = TranslationContext(
        env={param: Const(param) for param in proc.params}, fresh=fresh
    )
    wctx = WlpContext(
        scope=scope,
        proc=proc,
        ctx=ctx,
        entry_store=entry_store(),
        owner_exclusion=owner_exclusion,
    )
    body_wlp = wlp(impl.body, TrueF(), wctx)
    goal = subst_formula(body_wlp, {"$": entry_store()})

    # Init(m) is kept even for the naive baseline: the "yes" horn of the
    # paper's Section 3 dilemma *assumes* the alias-confinement facts on
    # entry while no longer enforcing them at call sites — which is exactly
    # what makes it modularly unsound.
    background = scope_background_of(scope)
    hypotheses = (
        list(background.formulas)
        + _sort_facts(impl)
        + [init_formula(scope, proc, fresh)]
    )
    from repro.testing.faults import fault_point

    bundle = VCBundle(
        impl=impl,
        proc=proc,
        hypotheses=hypotheses,
        goal=goal,
        obligations=list(wctx.obligations),
        background=background,
    )
    if obs.active():
        # VC size telemetry — the node walk is not free, so it only runs
        # under an installed tracer.
        goal_nodes = formula_nodes(goal)
        sp.set(
            goal_nodes=goal_nodes,
            background_axioms=len(hypotheses),
            obligations=len(bundle.obligations),
        )
        registry = obs.metrics()
        registry.inc("vcgen.vcs")
        registry.inc("vcgen.goal_nodes", goal_nodes)
        registry.inc("vcgen.background_axioms", len(hypotheses))
        registry.inc("vcgen.obligations", len(bundle.obligations))
    return fault_point("vcgen", bundle)
