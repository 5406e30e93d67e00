"""Unit tests for the logic layer: substitution, NNF, skolemization."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.logic import (
    And,
    App,
    Const,
    Eq,
    Exists,
    FalseF,
    Forall,
    FreshNames,
    Iff,
    Implies,
    IntLit,
    Not,
    Or,
    Pred,
    TrueF,
    Var,
    conj,
    disj,
    distinct_pairs,
    formula_free_vars,
    negate,
    neq,
    skolemize,
    subst_formula,
    subst_term,
    term_free_vars,
    to_nnf,
)

a, b, c = Const("a"), Const("b"), Const("c")
x, y = Var("x"), Var("y")
P = Pred("P", (x,))
Q = Pred("Q", (x, y))


class TestConstructors:
    def test_conj_flattens_and_absorbs(self):
        assert conj([TrueF(), P]) == P
        assert conj([]) == TrueF()
        assert conj([P, FalseF()]) == FalseF()
        assert conj([And((P, Q)), P]) == And((P, Q, P))

    def test_disj_flattens_and_absorbs(self):
        assert disj([FalseF(), P]) == P
        assert disj([]) == FalseF()
        assert disj([P, TrueF()]) == TrueF()
        assert disj([Or((P, Q)), P]) == Or((P, Q, P))

    def test_distinct_pairs(self):
        formula = distinct_pairs([a, b, c])
        assert formula == And((neq(a, b), neq(a, c), neq(b, c)))

    def test_distinct_pairs_short(self):
        assert distinct_pairs([a]) == TrueF()
        assert distinct_pairs([a, b]) == neq(a, b)


class TestFreeVars:
    def test_term_free_vars(self):
        term = App("f", (x, App("g", (y, a))))
        assert term_free_vars(term) == {"x", "y"}

    def test_const_has_no_free_vars(self):
        assert term_free_vars(a) == frozenset()
        assert term_free_vars(IntLit(3)) == frozenset()

    def test_quantifier_binds(self):
        formula = Forall(("x",), Q)
        assert formula_free_vars(formula) == {"y"}

    def test_nested_binders(self):
        formula = Forall(("x",), Exists(("y",), Q))
        assert formula_free_vars(formula) == frozenset()

    def test_connectives_union(self):
        formula = Implies(P, Iff(Q, Not(Eq(x, y))))
        assert formula_free_vars(formula) == {"x", "y"}


class TestSubstitution:
    def test_subst_term(self):
        term = App("f", (x, y))
        assert subst_term(term, {"x": a}) == App("f", (a, y))

    def test_subst_formula_atom(self):
        assert subst_formula(Q, {"x": a, "y": b}) == Pred("Q", (a, b))

    def test_bound_variable_shadowing(self):
        formula = Forall(("x",), Q)
        result = subst_formula(formula, {"x": a, "y": b})
        assert result == Forall(("x",), Pred("Q", (x, b)))

    def test_capture_avoidance_renames_binder(self):
        # substituting y := x under a binder for x must rename the binder.
        formula = Forall(("x",), Q)
        result = subst_formula(formula, {"y": x})
        assert isinstance(result, Forall)
        (bound,) = result.vars
        assert bound != "x"
        assert result.body == Pred("Q", (Var(bound), x))

    def test_triggers_substituted(self):
        trigger = (App("f", (x, y)),)
        formula = Forall(("x",), Q, (trigger,))
        result = subst_formula(formula, {"y": b})
        assert result.triggers == ((App("f", (x, b)),),)

    def test_empty_mapping_is_identity(self):
        formula = Forall(("x",), Q)
        assert subst_formula(formula, {}) is formula


class TestNNF:
    def test_double_negation(self):
        assert to_nnf(Not(Not(P))) == P

    def test_demorgan_or(self):
        assert to_nnf(Not(Or((P, Q)))) == And((Not(P), Not(Q)))

    def test_implies_positive(self):
        assert to_nnf(Implies(P, Q)) == Or((Not(P), Q))

    def test_implies_negative(self):
        assert to_nnf(Not(Implies(P, Q))) == And((P, Not(Q)))

    def test_iff_positive(self):
        result = to_nnf(Iff(P, Q))
        assert result == Or((And((P, Q)), And((Not(P), Not(Q)))))

    def test_quantifier_flip(self):
        assert to_nnf(Not(Forall(("x",), P))) == Exists(("x",), Not(P))
        assert to_nnf(Not(Exists(("x",), P))) == Forall(("x",), Not(P))

    def test_constants(self):
        assert to_nnf(Not(TrueF())) == FalseF()
        assert to_nnf(Not(FalseF())) == TrueF()

    def test_unordered_negated_and(self):
        result = to_nnf(Not(And((P, Q))), ordered=False)
        assert result == Or((Not(P), Not(Q)))

    def test_ordered_negated_and(self):
        R = Pred("R", ())
        result = negate(And((P, Q, R)), ordered=True)
        assert result == Or(
            (
                Not(P),
                And((P, Not(Q))),
                And((P, Q, Not(R))),
            )
        )

    def test_ordered_negation_of_implication(self):
        result = negate(Implies(P, Q))
        assert result == And((P, Not(Q)))


class TestSkolemize:
    def test_top_level_exists_becomes_constant(self):
        formula = Exists(("x",), P)
        result = skolemize(formula, FreshNames())
        assert isinstance(result, Pred)
        (arg,) = result.args
        assert isinstance(arg, Const)

    def test_exists_under_forall_becomes_function(self):
        formula = Forall(("y",), Exists(("x",), Q))
        result = skolemize(formula, FreshNames())
        assert isinstance(result, Forall)
        body = result.body
        assert isinstance(body, Pred)
        skolem_term, plain = body.args
        assert isinstance(skolem_term, App)
        assert skolem_term.args == (Var("y"),)
        assert plain == Var("y")

    def test_nested_exists_share_universals(self):
        formula = Forall(("y",), Exists(("x", "z"), Pred("R", (x, Var("z"), y))))
        result = skolemize(formula, FreshNames())
        r = result.body
        assert all(
            isinstance(t, App) and t.args == (Var("y"),) for t in r.args[:2]
        )

    def test_rejects_non_nnf(self):
        with pytest.raises(ValueError):
            skolemize(Implies(P, Q), FreshNames())

    def test_fresh_names_deterministic(self):
        fresh = FreshNames()
        assert fresh.fresh("sk") == "sk!1"
        assert fresh.fresh("sk") == "sk!2"
        assert fresh.fresh("other") == "other!1"


class TestHashCache:
    """Each node hashes once; the cached hash never leaves the process."""

    BUILD = (
        "from repro.logic.terms import App, Const, Eq, Forall, IntLit, Not, Var\n"
        "def build():\n"
        "    sel = App('sel', (Var('x'), Const('f')))\n"
        "    body = Not(Eq(sel, App('g', (IntLit(3), App('h', (Var('x'),))))))\n"
        "    return Forall(('x',), body, triggers=((sel,),), name='q')\n"
    )

    def _run(self, seed, code, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", self.BUILD + code],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip()

    def test_pickled_hash_not_carried_across_processes(self, tmp_path):
        written = self._run(
            1,
            "import pickle\n"
            "t = build()\n"
            "hash(t); hash(t.body.body.left)\n"
            "pickle.dump(t, open('t.pickle', 'wb'))\n"
            "print(hash(t))\n",
            tmp_path,
        )
        loaded = self._run(
            2,
            "import pickle\n"
            "t = pickle.load(open('t.pickle', 'rb'))\n"
            "r = build()\n"
            "assert t == r and hash(t) == hash(r)\n"
            "assert t in {r} and {r: 1}[t] == 1\n"
            "inner = t.body.body.left\n"
            "assert hash(inner) == hash(r.body.body.left)\n"
            "assert inner in {r.body.body.left}\n"
            "print(hash(t))\n",
            tmp_path,
        )
        assert written != loaded  # the seeds really differ

    def test_pickle_payload_ignores_the_cache(self):
        samples = [
            x, a, IntLit(4), App("f", (a, x)), TrueF(), FalseF(), Eq(a, x), P,
            Not(P), And((P, Q)), Or((P, Q)), Implies(P, Q), Iff(P, Q),
            Forall(("x",), P, triggers=((x,),), name="q"), Exists(("y",), Q),
        ]
        for sample in samples:
            fresh = pickle.dumps(sample)
            hash(sample)
            assert pickle.dumps(sample) == fresh, sample

    def test_deepcopy_and_replace(self):
        fx = App("f", (x,))
        q = Forall(("x",), Eq(fx, a), triggers=((fx,),), name="q")
        hash(q)
        clone = copy.deepcopy(q)
        assert clone == q and hash(clone) == hash(q) and clone in {q}
        renamed = dataclasses.replace(q, name="other", triggers=())
        assert renamed == q and hash(renamed) == hash(q)
        assert repr(renamed) != repr(q)
        changed = dataclasses.replace(q, body=Eq(fx, b))
        assert changed != q and changed not in {q}
        assert repr(clone) == repr(q)
