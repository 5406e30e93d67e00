"""Logical vocabulary and naming conventions for the VC encoding.

Function symbols
----------------
* ``sel(S, X, A)`` — the value of attribute ``A`` of object ``X`` in store
  ``S`` (the paper's ``S(X·A)``).
* ``upd(S, X, A, V)`` — the store ``S(X·A := V)``.
* ``new(S)`` — the next object to be allocated in ``S``.
* ``succ(S)`` — the store after allocating ``new(S)`` (the paper's ``S+``).

Predicate symbols
-----------------
* ``alive(S, X)`` — object ``X`` is allocated in ``S``.
* ``linc(G, A)`` — the paper's ``G ≽ A``: attribute ``A`` is included in
  ``G`` under the reflexive-transitive closure of local (``in``) inclusions.
* ``rinc(F, G, B)`` — the paper's ``G —F→ B``: the program declares
  ``field F ... maps B into G``; ``F`` is a pivot field iff some ``rinc``
  fact holds of it.
* ``inc(S, X, A, Y, B)`` — the main inclusion relation: location ``X·A``
  includes location ``Y·B`` in store ``S``.

Naming conventions
------------------
* Attribute constants carry the ``attr$`` prefix so a formal parameter that
  happens to share a field's name cannot collide with it.
* Program variables (formals, and locals once quantified) keep their
  source names.
* ``$`` is the current-store variable threaded through wlp; ``$0`` is the
  method-entry store constant; ``null``, ``@true``, ``@false`` are the
  value constants (the latter two are the E-graph's distinguished nodes).
"""

from __future__ import annotations

from repro.logic.terms import App, Const, Formula, Pred, Term, Var

SEL = "sel"
UPD = "upd"
NEW = "new"
SUCC = "succ"
ALIVE = "alive"
LINC = "linc"
RINC = "rinc"
INC = "inc"

STORE_VAR = "$"
ENTRY_STORE = "$0"

NULL = Const("null")
TRUE_CONST = Const("@true")
FALSE_CONST = Const("@false")


def attr_const(name: str) -> Const:
    """The logical constant denoting a declared attribute."""
    return Const(f"attr${name}")


def store_var() -> Var:
    """The current-store variable ``$``."""
    return Var(STORE_VAR)


def entry_store() -> Const:
    """The method-entry store constant ``$0``."""
    return Const(ENTRY_STORE)


def sel(store: Term, obj: Term, attr: Term) -> App:
    return App(SEL, (store, obj, attr))


def upd(store: Term, obj: Term, attr: Term, value: Term) -> App:
    return App(UPD, (store, obj, attr, value))


def new(store: Term) -> App:
    return App(NEW, (store,))


def succ(store: Term) -> App:
    return App(SUCC, (store,))


def alive(store: Term, obj: Term) -> Pred:
    return Pred(ALIVE, (store, obj))


def linc(group: Term, attr: Term) -> Pred:
    return Pred(LINC, (group, attr))


def rinc(field: Term, group: Term, mapped: Term) -> Pred:
    return Pred(RINC, (field, group, mapped))


def inc(store: Term, obj1: Term, attr1: Term, obj2: Term, attr2: Term) -> Pred:
    return Pred(INC, (store, obj1, attr1, obj2, attr2))


#: Term-level counterparts used when building trigger patterns.
def alive_t(store: Term, obj: Term) -> App:
    return App(ALIVE, (store, obj))


def linc_t(group: Term, attr: Term) -> App:
    return App(LINC, (group, attr))


def rinc_t(field: Term, group: Term, mapped: Term) -> App:
    return App(RINC, (field, group, mapped))


def inc_t(store: Term, obj1: Term, attr1: Term, obj2: Term, attr2: Term) -> App:
    return App(INC, (store, obj1, attr1, obj2, attr2))
