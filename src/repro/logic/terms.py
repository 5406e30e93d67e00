"""Term and formula ASTs for the untyped first-order logic of the paper.

Terms
-----
* :class:`Var` — a variable (free or bound by a quantifier).
* :class:`Const` — an uninterpreted constant (attribute names, ``null``,
  skolem constants, store constants like ``$0``).
* :class:`IntLit` — an integer literal; distinct literals denote distinct
  values.
* :class:`App` — a function application. Interpreted function symbols
  (``+``, ``-``, ``*``) are evaluated on literals by the prover; every other
  symbol is uninterpreted (``sel``, ``upd``, ``new``, ``succ``, skolem
  functions, ...).

Formulas
--------
Atoms are :class:`Eq` and :class:`Pred` (predicate application — ``alive``,
``inc``, ``linc``, ``rinc``, and boolean-valued operator atoms such as
``<``). Connectives: :class:`Not`, :class:`And`, :class:`Or`,
:class:`Implies`, :class:`Iff`; quantifiers :class:`Forall` (with optional
E-matching triggers) and :class:`Exists`.

A *trigger* is a tuple of term patterns (a multi-pattern); a quantifier may
carry several alternative triggers. The prover auto-derives triggers when
none are given.

Every node is a frozen :class:`~repro.record.Record`, so it computes its
structural hash at most once: the prover probes sets and dicts keyed by
deep formulas many times over, and would otherwise re-hash the whole
tree on each probe. Likewise a :class:`Pred` builds the application term
the prover interns for it once (:attr:`Pred.atom`). Both caches live in
the instance ``__dict__`` and never cross a pickle. The parser, vcgen
and prover build these nodes by the million, so each class writes its
own ``__init__``.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.record import Record, field

_set = object.__setattr__


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(Record, frozen=True):
    """Base class for logic terms."""


class Var(Term):
    """A variable occurrence, referenced by name."""

    name: str

    def __init__(self, name):
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __str__(self) -> str:
        return self.name


class Const(Term):
    """An uninterpreted constant symbol."""

    name: str

    def __init__(self, name):
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __str__(self) -> str:
        return self.name


class IntLit(Term):
    """An integer literal; two distinct literals are provably unequal."""

    value: int

    def __init__(self, value):
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __str__(self) -> str:
        return str(self.value)


class App(Term):
    """An application ``fn(args...)``."""

    fn: str
    args: Tuple[Term, ...]

    def __init__(self, fn, args):
        _set(self, "fn", fn)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.fn, self.args) == (other.fn, other.args)
        return NotImplemented

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.fn}({rendered})"


#: Head symbol of inert proof-obligation marker atoms. Markers appear only
#: positively in goals; the negation transform never refutes them (see
#: repro.logic.nnf), so they label refutation branches without affecting
#: validity.
OBLIGATION_MARKER = "@obligation"

#: Function symbols the prover evaluates on integer-literal arguments.
INTERPRETED_FNS = {"+", "-", "*"}

#: Predicate symbols the prover evaluates on integer-literal arguments.
INTERPRETED_PREDS = {"<", "<=", ">", ">="}


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula(Record, frozen=True):
    """Base class for logic formulas."""


class TrueF(Formula):
    def __init__(self):
        pass

    def __str__(self) -> str:
        return "true"


class FalseF(Formula):
    def __init__(self):
        pass

    def __str__(self) -> str:
        return "false"


class Eq(Formula):
    """Equality between two terms."""

    left: Term
    right: Term

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __str__(self) -> str:
        return f"({self.left} = {self.right})"


class Pred(Formula):
    """A predicate application ``name(args...)``."""

    name: str
    args: Tuple[Term, ...]

    _per_process = ("_hash", "_atom")

    def __init__(self, name, args):
        _set(self, "name", name)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.args) == (other.name, other.args)
        return NotImplemented

    @property
    def atom(self) -> App:
        """``name(args...)`` as a term: the node the prover interns for
        this atom, built once per ``Pred``."""
        try:
            return self._atom
        except AttributeError:
            atom = App(self.name, self.args)
            _set(self, "_atom", atom)
            return atom

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.name}({rendered})"


class Not(Formula):
    body: Formula

    def __init__(self, body):
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.body,) == (other.body,)
        return NotImplemented

    def __str__(self) -> str:
        return f"!{self.body}"


class And(Formula):
    conjuncts: Tuple[Formula, ...]

    def __init__(self, conjuncts):
        _set(self, "conjuncts", conjuncts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.conjuncts,) == (other.conjuncts,)
        return NotImplemented

    def __str__(self) -> str:
        return "(" + " & ".join(str(c) for c in self.conjuncts) + ")"


class Or(Formula):
    disjuncts: Tuple[Formula, ...]

    def __init__(self, disjuncts):
        _set(self, "disjuncts", disjuncts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.disjuncts,) == (other.disjuncts,)
        return NotImplemented

    def __str__(self) -> str:
        return "(" + " | ".join(str(d) for d in self.disjuncts) + ")"


class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    def __init__(self, antecedent, consequent):
        _set(self, "antecedent", antecedent)
        _set(self, "consequent", consequent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.antecedent, self.consequent) == (
                other.antecedent,
                other.consequent,
            )
        return NotImplemented

    def __str__(self) -> str:
        return f"({self.antecedent} ==> {self.consequent})"


class Iff(Formula):
    left: Formula
    right: Formula

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __str__(self) -> str:
        return f"({self.left} <=> {self.right})"


#: A multi-pattern: every pattern term must match for the trigger to fire.
MultiPattern = Tuple[Term, ...]


class Forall(Formula):
    """Universal quantification with optional E-matching triggers.

    ``triggers`` is a tuple of alternative multi-patterns; an empty tuple
    means "let the prover derive triggers". ``width_cap`` optionally caps
    the instance width the prover will admit for this quantifier (1 makes
    it propagation-only); None defers to the prover's global limits.
    """

    vars: Tuple[str, ...]
    body: Formula
    triggers: Tuple[MultiPattern, ...] = field(default=(), compare=False)
    name: str = field(default="", compare=False)
    width_cap: "int | None" = field(default=None, compare=False)

    def __init__(self, vars, body, triggers=(), name="", width_cap=None):
        _set(self, "vars", vars)
        _set(self, "body", body)
        _set(self, "triggers", triggers)
        _set(self, "name", name)
        _set(self, "width_cap", width_cap)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vars, self.body) == (other.vars, other.body)
        return NotImplemented

    def __str__(self) -> str:
        return f"(forall {' '.join(self.vars)} :: {self.body})"


class Exists(Formula):
    vars: Tuple[str, ...]
    body: Formula

    def __init__(self, vars, body):
        _set(self, "vars", vars)
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vars, self.body) == (other.vars, other.body)
        return NotImplemented

    def __str__(self) -> str:
        return f"(exists {' '.join(self.vars)} :: {self.body})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def conj(formulas: Iterable[Formula]) -> Formula:
    """N-ary conjunction, flattening nested Ands and absorbing units."""
    flat: List[Formula] = []
    for formula in formulas:
        if isinstance(formula, TrueF):
            continue
        if isinstance(formula, FalseF):
            return FalseF()
        if isinstance(formula, And):
            flat.extend(formula.conjuncts)
        else:
            flat.append(formula)
    if not flat:
        return TrueF()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(formulas: Iterable[Formula]) -> Formula:
    """N-ary disjunction, flattening nested Ors and absorbing units."""
    flat: List[Formula] = []
    for formula in formulas:
        if isinstance(formula, FalseF):
            continue
        if isinstance(formula, TrueF):
            return TrueF()
        if isinstance(formula, Or):
            flat.extend(formula.disjuncts)
        else:
            flat.append(formula)
    if not flat:
        return FalseF()
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neq(left: Term, right: Term) -> Formula:
    """Disequality shorthand."""
    return Not(Eq(left, right))


def distinct_pairs(terms: Iterable[Term]) -> Formula:
    """Pairwise disequality of all given terms."""
    items = list(terms)
    clauses: List[Formula] = []
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            clauses.append(neq(a, b))
    return conj(clauses)
