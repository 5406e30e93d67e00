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

Every node computes its structural hash at most once (see
:func:`_hash_once`): the prover probes sets and dicts keyed by deep
formulas many times over, and a frozen dataclass would otherwise re-hash
the whole tree on each probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple


def _hash_once(cls):
    """Cache the dataclass-generated hash of ``cls`` on each instance.

    Values, ``==``, ``repr`` and the dataclass fields are unchanged; the
    hash is stored in the instance ``__dict__`` on first use. Pickling
    (and so ``copy``/``deepcopy``) drops it: ``str`` hashes differ from
    process to process, so a hash carried to another process would be
    wrong there.
    """
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = structural(self)
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Base class for logic terms."""


@_hash_once
@dataclass(frozen=True)
class Var(Term):
    """A variable occurrence, referenced by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@_hash_once
@dataclass(frozen=True)
class Const(Term):
    """An uninterpreted constant symbol."""

    name: str

    def __str__(self) -> str:
        return self.name


@_hash_once
@dataclass(frozen=True)
class IntLit(Term):
    """An integer literal; two distinct literals are provably unequal."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@_hash_once
@dataclass(frozen=True)
class App(Term):
    """An application ``fn(args...)``."""

    fn: str
    args: Tuple[Term, ...]

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


@dataclass(frozen=True)
class Formula:
    """Base class for logic formulas."""


@_hash_once
@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self) -> str:
        return "true"


@_hash_once
@dataclass(frozen=True)
class FalseF(Formula):
    def __str__(self) -> str:
        return "false"


@_hash_once
@dataclass(frozen=True)
class Eq(Formula):
    """Equality between two terms."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} = {self.right})"


@_hash_once
@dataclass(frozen=True)
class Pred(Formula):
    """A predicate application ``name(args...)``."""

    name: str
    args: Tuple[Term, ...]

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.name}({rendered})"


@_hash_once
@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def __str__(self) -> str:
        return f"!{self.body}"


@_hash_once
@dataclass(frozen=True)
class And(Formula):
    conjuncts: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " & ".join(str(c) for c in self.conjuncts) + ")"


@_hash_once
@dataclass(frozen=True)
class Or(Formula):
    disjuncts: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " | ".join(str(d) for d in self.disjuncts) + ")"


@_hash_once
@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    def __str__(self) -> str:
        return f"({self.antecedent} ==> {self.consequent})"


@_hash_once
@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} <=> {self.right})"


#: A multi-pattern: every pattern term must match for the trigger to fire.
MultiPattern = Tuple[Term, ...]


@_hash_once
@dataclass(frozen=True)
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

    def __str__(self) -> str:
        return f"(forall {' '.join(self.vars)} :: {self.body})"


@_hash_once
@dataclass(frozen=True)
class Exists(Formula):
    vars: Tuple[str, ...]
    body: Formula

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
