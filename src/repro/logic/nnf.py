"""Negation normal form, ordered negation, and skolemization.

``to_nnf`` eliminates :class:`Implies`/:class:`Iff` and pushes negation down
to atoms. ``negate`` offers the *ordered* negation of conjunctions used when
refuting verification conditions::

    !(A & B & C)  ~~>  !A  |  (A & !B)  |  (A & B & !C)

which lets the refutation of a later proof obligation assume the earlier
ones — exactly how the paper's hand proofs use the owner-exclusion check of
one call while discharging a later assert.

``skolemize`` removes existential quantifiers from an NNF formula by
introducing skolem constants/functions over the enclosing universals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.subst import subst_formula
from repro.logic.terms import (
    And,
    App,
    Const,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    OBLIGATION_MARKER,
    Or,
    Pred,
    Term,
    TrueF,
    Var,
    conj,
    disj,
)


def _is_marker(formula: Formula) -> bool:
    return isinstance(formula, Pred) and formula.name == OBLIGATION_MARKER


class FreshNames:
    """A deterministic fresh-name supply, one counter per prefix."""

    def __init__(self, counters: Optional[Dict[str, int]] = None):
        self._counters: Dict[str, int] = dict(counters or {})

    def counters(self) -> Dict[str, int]:
        """A copy of the per-prefix counts (a supply built from it goes on
        where this one stands)."""
        return dict(self._counters)

    def fresh(self, prefix: str) -> str:
        count = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = count
        return f"{prefix}!{count}"


def to_nnf(formula: Formula, *, ordered: bool = False) -> Formula:
    """Convert to negation normal form (negations only on atoms).

    With ``ordered=True``, negated conjunctions expand to the ordered form
    documented in the module docstring instead of the plain De Morgan dual.
    """
    return _nnf(formula, positive=True, ordered=ordered)


def negate(formula: Formula, *, ordered: bool = True) -> Formula:
    """The NNF of ``!formula`` (ordered conjunction negation by default)."""
    return _nnf(formula, positive=False, ordered=ordered)


def _nnf(formula: Formula, positive: bool, ordered: bool) -> Formula:
    if isinstance(formula, TrueF):
        return TrueF() if positive else FalseF()
    if isinstance(formula, FalseF):
        return FalseF() if positive else TrueF()
    if isinstance(formula, (Eq, Pred)):
        return formula if positive else Not(formula)
    if isinstance(formula, Not):
        return _nnf(formula.body, not positive, ordered)
    if isinstance(formula, And):
        if positive:
            return conj(_nnf(c, True, ordered) for c in formula.conjuncts)
        return _negate_and(formula.conjuncts, ordered)
    if isinstance(formula, Or):
        if positive:
            return disj(_nnf(d, True, ordered) for d in formula.disjuncts)
        return conj(_nnf(d, False, ordered) for d in formula.disjuncts)
    if isinstance(formula, Implies):
        if positive:
            return disj(
                (
                    _nnf(formula.antecedent, False, ordered),
                    _nnf(formula.consequent, True, ordered),
                )
            )
        # !(A ==> B) = A & !B — already "ordered": B's refutation assumes A.
        return conj(
            (
                _nnf(formula.antecedent, True, ordered),
                _nnf(formula.consequent, False, ordered),
            )
        )
    if isinstance(formula, Iff):
        left_pos = _nnf(formula.left, True, ordered)
        left_neg = _nnf(formula.left, False, ordered)
        right_pos = _nnf(formula.right, True, ordered)
        right_neg = _nnf(formula.right, False, ordered)
        if positive:
            return disj((conj((left_pos, right_pos)), conj((left_neg, right_neg))))
        return disj((conj((left_pos, right_neg)), conj((left_neg, right_pos))))
    if isinstance(formula, Forall):
        if positive:
            return Forall(
                formula.vars,
                _nnf(formula.body, True, ordered),
                formula.triggers,
                formula.name,
                formula.width_cap,
            )
        return Exists(formula.vars, _nnf(formula.body, False, ordered))
    if isinstance(formula, Exists):
        if positive:
            return Exists(formula.vars, _nnf(formula.body, True, ordered))
        return Forall(formula.vars, _nnf(formula.body, False, ordered))
    raise TypeError(f"not a formula: {formula!r}")


def _negate_and(conjuncts: Tuple[Formula, ...], ordered: bool) -> Formula:
    """Negate a conjunction; obligation markers are never refuted.

    Markers are inert atoms occurring only positively, so a goal containing
    them is valid iff the marker-free goal is; skipping their refutation
    branches keeps that equivalence while letting the markers ride along in
    the ordered prefixes for diagnosis.
    """
    if not ordered:
        return disj(
            _nnf(c, False, ordered) for c in conjuncts if not _is_marker(c)
        )
    branches: List[Formula] = []
    for index, conjunct in enumerate(conjuncts):
        if _is_marker(conjunct):
            continue
        assumed = [_nnf(c, True, ordered) for c in conjuncts[:index]]
        branches.append(conj(assumed + [_nnf(conjunct, False, ordered)]))
    return disj(branches)


def skolemize(formula: Formula, fresh: FreshNames, prefix: str = "sk") -> Formula:
    """Eliminate Exists from an NNF formula.

    Each existential variable becomes a fresh constant, or a fresh function
    applied to the universally bound variables in whose scope it sits.
    """
    return _skolemize(formula, fresh, prefix, ())


def _skolemize(
    formula: Formula,
    fresh: FreshNames,
    prefix: str,
    universals: Tuple[str, ...],
) -> Formula:
    if isinstance(formula, (TrueF, FalseF, Eq, Pred)):
        return formula
    if isinstance(formula, Not):
        return formula  # NNF: the body is an atom
    if isinstance(formula, And):
        return And(
            tuple(_skolemize(c, fresh, prefix, universals) for c in formula.conjuncts)
        )
    if isinstance(formula, Or):
        return Or(
            tuple(_skolemize(d, fresh, prefix, universals) for d in formula.disjuncts)
        )
    if isinstance(formula, Forall):
        return Forall(
            formula.vars,
            _skolemize(formula.body, fresh, prefix, universals + formula.vars),
            formula.triggers,
            formula.name,
            formula.width_cap,
        )
    if isinstance(formula, Exists):
        mapping: Dict[str, Term] = {}
        for var in formula.vars:
            symbol = fresh.fresh(f"{prefix}.{var}")
            if universals:
                mapping[var] = App(symbol, tuple(Var(u) for u in universals))
            else:
                mapping[var] = Const(symbol)
        body = subst_formula(formula.body, mapping)
        return _skolemize(body, fresh, prefix, universals)
    if isinstance(formula, (Implies, Iff)):
        raise ValueError("skolemize expects an NNF formula (run to_nnf first)")
    raise TypeError(f"not a formula: {formula!r}")
