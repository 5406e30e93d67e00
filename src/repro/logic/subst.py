"""Substitution and free-variable computation for terms and formulas.

Substitution is capture-avoiding: bound variables that clash with the
substitution's keys shadow them (the key is dropped inside the binder), and
bound variables that would capture a variable free in a substituted value
are renamed apart.

Substitution shares what it does not change: a subterm or subformula
with no free variable in the mapping is returned as it is, not rebuilt.
One substitution call also threads a memo from ``id`` of a node of its
input to that node's result, so a node that occurs many times is
rewritten once. Verification conditions lean on both: each write puts
the same store term ``upd($, o, f, v)`` in every place ``$`` stood, so
the next write meets one shared term many times and rewrites it once,
and the store terms stay shared from write to write. The memo holds only
under one mapping over one input tree: a binder that shadows a key or
renames its variables starts a new one. The ids are valid because the
input keeps every node it names alive for the whole call.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Set, Tuple

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
    IntLit,
    Not,
    Or,
    Pred,
    Term,
    TrueF,
    Var,
)


def term_free_vars(term: Term) -> FrozenSet[str]:
    """All variable names occurring in ``term``."""
    return _term_free_vars(term, {})


def _term_free_vars(term: Term, memo: Dict[int, FrozenSet[str]]) -> FrozenSet[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, (Const, IntLit)):
        return frozenset()
    if isinstance(term, App):
        # A term's free variables do not depend on where it occurs, so
        # one memo serves a whole formula.
        done = memo.get(id(term))
        if done is None:
            result: Set[str] = set()
            for arg in term.args:
                result |= _term_free_vars(arg, memo)
            done = memo[id(term)] = frozenset(result)
        return done
    raise TypeError(f"not a term: {term!r}")


def formula_free_vars(formula: Formula) -> FrozenSet[str]:
    """All variable names occurring free in ``formula``."""
    return _formula_free_vars(formula, {})


def _formula_free_vars(formula: Formula, memo) -> FrozenSet[str]:
    if isinstance(formula, (TrueF, FalseF)):
        return frozenset()
    if isinstance(formula, Eq):
        return _term_free_vars(formula.left, memo) | _term_free_vars(
            formula.right, memo
        )
    if isinstance(formula, Pred):
        result: Set[str] = set()
        for arg in formula.args:
            result |= _term_free_vars(arg, memo)
        return frozenset(result)
    if isinstance(formula, Not):
        return _formula_free_vars(formula.body, memo)
    if isinstance(formula, (And, Or)):
        parts = formula.conjuncts if isinstance(formula, And) else formula.disjuncts
        result = set()
        for part in parts:
            result |= _formula_free_vars(part, memo)
        return frozenset(result)
    if isinstance(formula, Implies):
        return _formula_free_vars(formula.antecedent, memo) | _formula_free_vars(
            formula.consequent, memo
        )
    if isinstance(formula, Iff):
        return _formula_free_vars(formula.left, memo) | _formula_free_vars(
            formula.right, memo
        )
    if isinstance(formula, (Forall, Exists)):
        return _formula_free_vars(formula.body, memo) - set(formula.vars)
    raise TypeError(f"not a formula: {formula!r}")


def subst_term(term: Term, mapping: Dict[str, Term]) -> Term:
    """Replace free variables of ``term`` according to ``mapping``."""
    return _subst_term(term, mapping, {})


def _subst_term(term: Term, mapping: Dict[str, Term], memo: Dict[int, Term]):
    kind = term.__class__
    if kind is Var:
        return mapping.get(term.name, term)
    if kind is App:
        done = memo.get(id(term))
        if done is not None:
            return done
        args = tuple([_subst_term(a, mapping, memo) for a in term.args])
        result = term if _same(args, term.args) else App(term.fn, args)
        memo[id(term)] = result
        return result
    if kind is Const or kind is IntLit:
        return term
    raise TypeError(f"not a term: {term!r}")


def _same(new: tuple, old: tuple) -> bool:
    """Whether substitution left every part of ``old`` as it was."""
    for a, b in zip(new, old):
        if a is not b:
            return False
    return True


def _fresh_name(base: str, taken: Set[str]) -> str:
    for index in itertools.count(1):
        candidate = f"{base}~{index}"
        if candidate not in taken:
            return candidate
    raise AssertionError("unreachable")


def _subst_binder(
    formula, mapping: Dict[str, Term]
) -> Tuple[Tuple[str, ...], Dict[str, Term], Dict[str, Term]]:
    """Common capture-avoiding handling for Forall/Exists.

    Returns the (possibly renamed) bound variables, the renaming to apply to
    the binder's body and triggers, and the surviving outer substitution.
    """
    inner = {k: v for k, v in mapping.items() if k not in formula.vars}
    if not inner:
        return formula.vars, {}, inner
    value_vars: Set[str] = set()
    for value in inner.values():
        value_vars |= term_free_vars(value)
    new_vars = []
    renaming: Dict[str, Term] = {}
    taken = value_vars | set(formula.vars) | set(inner)
    for var in formula.vars:
        if var in value_vars:
            fresh = _fresh_name(var, taken)
            taken.add(fresh)
            renaming[var] = Var(fresh)
            new_vars.append(fresh)
        else:
            new_vars.append(var)
    return tuple(new_vars), renaming, inner


def subst_formula(formula: Formula, mapping: Dict[str, Term]) -> Formula:
    """Capture-avoiding substitution of free variables in ``formula``."""
    if not mapping:
        return formula
    return _subst_formula(formula, mapping, {})


def _subst_formula(formula: Formula, mapping: Dict[str, Term], memo: Dict[int, object]):
    done = memo.get(id(formula))
    if done is not None:
        return done
    kind = formula.__class__
    if kind is TrueF or kind is FalseF:
        return formula
    if kind is Eq:
        old = (formula.left, formula.right)
        parts = tuple([_subst_term(side, mapping, memo) for side in old])
        result = formula if _same(parts, old) else Eq(*parts)
    elif kind is Pred:
        args = tuple([_subst_term(a, mapping, memo) for a in formula.args])
        result = formula if _same(args, formula.args) else Pred(formula.name, args)
    elif kind is Not:
        body = _subst_formula(formula.body, mapping, memo)
        result = formula if body is formula.body else Not(body)
    elif kind is And or kind is Or:
        old = formula.conjuncts if kind is And else formula.disjuncts
        parts = tuple([_subst_formula(part, mapping, memo) for part in old])
        result = formula if _same(parts, old) else kind(parts)
    elif kind is Implies or kind is Iff:
        if kind is Implies:
            old = (formula.antecedent, formula.consequent)
        else:
            old = (formula.left, formula.right)
        parts = tuple([_subst_formula(side, mapping, memo) for side in old])
        result = formula if _same(parts, old) else kind(*parts)
    elif kind is Forall or kind is Exists:
        result = _subst_quantifier(formula, mapping, memo)
    else:
        raise TypeError(f"not a formula: {formula!r}")
    memo[id(formula)] = result
    return result


def _subst_quantifier(formula, mapping: Dict[str, Term], memo: Dict[int, object]):
    new_vars, renaming, inner = _subst_binder(formula, mapping)
    if not inner:
        return formula
    if renaming:
        # The renamed body is a new tree, substituted under another
        # mapping: the outer memo's entries hold for neither.
        body = _subst_formula(_subst_formula(formula.body, renaming, {}), inner, {})
    else:
        # Under the same mapping every result outside the binder holds
        # inside it too; a shadowed key makes the mapping another one.
        same = len(inner) == len(mapping)
        body = _subst_formula(formula.body, inner, memo if same else {})
    if formula.__class__ is Exists:
        if body is formula.body and not renaming:
            return formula
        return Exists(new_vars, body)
    combined = dict(renaming)
    combined.update(inner)
    patterns: Dict[int, Term] = {}
    triggers = tuple(
        tuple([_subst_term(p, combined, patterns) for p in multi])
        for multi in formula.triggers
    )
    if (
        not renaming
        and body is formula.body
        and all(_same(new, old) for new, old in zip(triggers, formula.triggers))
    ):
        return formula
    return Forall(new_vars, body, triggers, formula.name, formula.width_cap)
