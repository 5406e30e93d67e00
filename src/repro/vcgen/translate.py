"""The ``tr`` translation (Figure 2) and the mod/incl/ownExcl macros.

``tr`` comes in two flavours: :func:`tr_term` maps an oolong expression to
a logic term (object dereferences become ``sel`` on the given store);
:func:`tr_formula` maps a boolean-position expression to a logic formula
(equalities, comparisons, connectives). A boolean value read from a
variable or field is translated as equality with ``@true``.

The macros follow Section 4.1 of the paper:

* ``incl(X·A, w, S)`` — some designator ``E.f`` of the modifies list ``w``
  includes ``X·A``: the disjunction of ``inc(S, tr_S(E), f, X, A)``.
* ``mod(X·A, w, S) = ¬alive(S, X) ∨ incl(X·A, w, S)``.
* ``ownExcl(t, w, S)`` — the owner-exclusion property for a parameter
  value ``t``.

A modifies list is always evaluated with an *environment* mapping the
procedure's formal parameter names to terms — the formals themselves for a
method's own list, or the translated actuals for a callee's list (the
paper's ``ws``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import VerificationError
from repro.logic.nnf import FreshNames
from repro.logic.terms import (
    App,
    Eq,
    FalseF,
    Forall,
    Formula,
    Implies,
    IntLit,
    Not,
    Pred,
    Term,
    TrueF,
    Var,
    conj,
    disj,
)
from repro.oolong.ast import (
    BinOp,
    BoolConst,
    Designator,
    Expr,
    FieldAccess,
    Id,
    IntConst,
    NullConst,
    UnOp,
)
from repro.record import MISSING, Record, field
from repro.vcgen import vocab
from repro.vcgen.vocab import FALSE_CONST, NULL, TRUE_CONST, attr_const, inc, sel

#: Boolean operators translated at the formula level.
_FORMULA_OPS = {"=", "!=", "<", "<=", ">", ">=", "&&", "||"}


class TranslationContext(Record):
    """Shared state for translating one implementation.

    ``env`` maps formal-parameter and local-variable names to the terms
    that denote them (usually ``Var(name)``); ``fresh`` supplies the bound
    variable names introduced by wlp and the macros.
    """

    env: Dict[str, Term]
    fresh: FreshNames = field(default_factory=FreshNames)

    def __init__(self, env, fresh=MISSING):
        self.env = env
        self.fresh = FreshNames() if fresh is MISSING else fresh

    def lookup(self, name: str) -> Term:
        term = self.env.get(name)
        if term is None:
            raise VerificationError(f"unbound program variable {name!r}")
        return term


# ---------------------------------------------------------------------------
# tr
# ---------------------------------------------------------------------------


def tr_term(expr: Expr, store: Term, ctx: TranslationContext) -> Term:
    """Translate an expression to a term, reading fields from ``store``."""
    if isinstance(expr, NullConst):
        return NULL
    if isinstance(expr, BoolConst):
        return TRUE_CONST if expr.value else FALSE_CONST
    if isinstance(expr, IntConst):
        return IntLit(expr.value)
    if isinstance(expr, Id):
        return ctx.lookup(expr.name)
    if isinstance(expr, FieldAccess):
        return sel(store, tr_term(expr.obj, store, ctx), attr_const(expr.attr))
    if isinstance(expr, BinOp):
        left = tr_term(expr.left, store, ctx)
        right = tr_term(expr.right, store, ctx)
        if expr.op in _FORMULA_OPS:
            # A boolean operator in term position: uninterpreted encoding.
            return App(f"@{expr.op}", (left, right))
        return App(expr.op, (left, right))
    if isinstance(expr, UnOp):
        operand = tr_term(expr.operand, store, ctx)
        if expr.op == "-":
            return App("-", (IntLit(0), operand))
        return App("@!", (operand,))
    raise VerificationError(f"cannot translate expression {expr!r}")


def tr_formula(expr: Expr, store: Term, ctx: TranslationContext) -> Formula:
    """Translate a boolean-position expression to a formula."""
    if isinstance(expr, BoolConst):
        return TrueF() if expr.value else FalseF()
    if isinstance(expr, BinOp):
        if expr.op == "&&":
            return conj(
                (
                    tr_formula(expr.left, store, ctx),
                    tr_formula(expr.right, store, ctx),
                )
            )
        if expr.op == "||":
            return disj(
                (
                    tr_formula(expr.left, store, ctx),
                    tr_formula(expr.right, store, ctx),
                )
            )
        if expr.op == "=":
            return Eq(tr_term(expr.left, store, ctx), tr_term(expr.right, store, ctx))
        if expr.op == "!=":
            return Not(
                Eq(tr_term(expr.left, store, ctx), tr_term(expr.right, store, ctx))
            )
        if expr.op in ("<", "<=", ">", ">="):
            return Pred(
                expr.op,
                (tr_term(expr.left, store, ctx), tr_term(expr.right, store, ctx)),
            )
    if isinstance(expr, UnOp) and expr.op == "!":
        return Not(tr_formula(expr.operand, store, ctx))
    # A boolean value read from a variable or a field.
    return Eq(tr_term(expr, store, ctx), TRUE_CONST)


def welldef_premises(
    exprs, store: Term, ctx: TranslationContext
) -> Formula:
    """Well-definedness of expression evaluation, as an assumption.

    The paper leaves the conditions stipulating well-defined evaluation
    implicit; its example proofs rely on them (e.g. Section 3's
    ``n := v.cnt`` supplies the non-nullness of ``v`` that the pivot
    uniqueness and owner exclusion arguments consume). We adopt blocking
    semantics: every dereferenced sub-expression is assumed non-null and
    allocated in the store it is read from.
    """
    premises: List[Formula] = []
    seen = set()

    def visit(expr: Expr) -> None:
        if isinstance(expr, FieldAccess):
            visit(expr.obj)
            obj = tr_term(expr.obj, store, ctx)
            if obj not in seen:
                seen.add(obj)
                premises.append(Not(Eq(obj, NULL)))
                premises.append(vocab.alive(store, obj))
        elif isinstance(expr, BinOp):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, UnOp):
            visit(expr.operand)

    for expr in exprs:
        visit(expr)
    return conj(premises)


def tr_designator_prefix(
    designator: Designator,
    env: Dict[str, Term],
    store: Term,
) -> Term:
    """``tr_S(E)`` for a modifies entry ``E.f``: the owning object's term."""
    root = env.get(designator.root)
    if root is None:
        raise VerificationError(
            f"modifies designator {designator} has unbound root {designator.root!r}"
        )
    term = root
    for field_name in designator.path:
        term = sel(store, term, attr_const(field_name))
    return term


# ---------------------------------------------------------------------------
# incl / mod / ownExcl
# ---------------------------------------------------------------------------


def incl_formula(
    obj: Term,
    attr: Term,
    modifies: Sequence[Designator],
    env: Dict[str, Term],
    store: Term,
) -> Formula:
    """``incl(obj·attr, w, S)``: some listed location includes ``obj·attr``."""
    disjuncts: List[Formula] = []
    for designator in modifies:
        owner = tr_designator_prefix(designator, env, store)
        disjuncts.append(inc(store, owner, attr_const(designator.attr), obj, attr))
    return disj(disjuncts)


def mod_formula(
    obj: Term,
    attr: Term,
    modifies: Sequence[Designator],
    env: Dict[str, Term],
    store: Term,
) -> Formula:
    """``mod(obj·attr, w, S) = ¬alive(S, obj) ∨ incl(obj·attr, w, S)``."""
    return disj(
        (
            Not(vocab.alive(store, obj)),
            incl_formula(obj, attr, modifies, env, store),
        )
    )


def own_excl_formula(
    value: Term,
    modifies: Sequence[Designator],
    env: Dict[str, Term],
    store: Term,
    fresh: FreshNames,
) -> Formula:
    """``ownExcl(value, w, S)`` (Section 4.1 of the paper).

    The non-null value of a pivot field ``F`` of an object ``X`` may equal
    ``value`` only if the modifies list grants no licence on the group the
    pivot maps into::

        forall X, A, F, B ::
            rinc(F, A, B) & value = sel(S, X, F) & value != null
            ==> !incl(X·A, w, S)
    """
    if not modifies:
        return TrueF()
    x = Var(fresh.fresh("oeX"))
    a = Var(fresh.fresh("oeA"))
    f = Var(fresh.fresh("oeF"))
    b = Var(fresh.fresh("oeB"))
    premise = conj(
        (
            vocab.rinc(f, a, b),
            Eq(value, sel(store, x, f)),
            Not(Eq(value, NULL)),
        )
    )
    conclusion = Not(incl_formula(x, a, modifies, env, store))
    trigger = (
        vocab.rinc_t(f, a, b),
        App(vocab.SEL, (store, x, f)),
    )
    return Forall(
        (x.name, a.name, f.name, b.name),
        Implies(premise, conclusion),
        (trigger,),
        "ownExcl",
        1,
    )
