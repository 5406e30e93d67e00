"""First-order logic infrastructure shared by the VC generator and prover.

Terms and formulas are immutable trees (:mod:`repro.logic.terms`), with
substitution and free-variable computation (:mod:`repro.logic.subst`),
negation-normal-form and skolemization transforms (:mod:`repro.logic.nnf`),
and a printer producing a stable S-expression-like syntax used by golden
tests (:mod:`repro.logic.printer`). The printer loads on first use
(PEP 562): a check that explains nothing prints no formula.
"""

import importlib

from repro.logic.nnf import FreshNames, negate, skolemize, to_nnf
from repro.logic.subst import formula_free_vars, subst_formula, subst_term, term_free_vars
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
    conj,
    disj,
    distinct_pairs,
    neq,
)

#: Each public name of the printer and the submodule defining it.
_EXPORTS = {
    "format_formula": "printer",
    "format_term": "printer",
}

__all__ = [
    "And",
    "App",
    "Const",
    "Eq",
    "Exists",
    "FalseF",
    "Forall",
    "Formula",
    "FreshNames",
    "Iff",
    "Implies",
    "IntLit",
    "Not",
    "Or",
    "Pred",
    "Term",
    "TrueF",
    "Var",
    "conj",
    "disj",
    "distinct_pairs",
    "format_formula",
    "format_term",
    "formula_free_vars",
    "negate",
    "neq",
    "skolemize",
    "subst_formula",
    "subst_term",
    "term_free_vars",
    "to_nnf",
]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
