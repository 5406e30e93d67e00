"""The shape cache of compiled matchers and width functions, and the
edge cases of code generation.

Matchers (:func:`repro.prover.matching.compile_trigger`) and width
functions (:func:`repro.prover.core.compile_width`) are generated once per
*shape* — the pattern or body with its ground constants lifted into
parameters — and shared by every quantifier of that shape. These tests
pin that sharing (and where it must not happen), the splitting of deeply
nested code into helper functions, the cache bound, and that compiled
code stays out of pickles and does not depend on hash order.
"""

import os
import pickle
import subprocess
import sys

import pytest

import repro.prover.matching as matching
from repro.logic.terms import And, App, Const, Eq, Forall, Not, Or, Pred, Var
from repro.prover.core import Limits, Solver, Verdict, _QuantRecord, compile_width
from repro.prover.egraph import EGraph
from repro.prover.matching import CACHE_BOUND, compile_trigger
from tests.test_bound_width import compiled_width, instance_of, reference_width
from tests.test_matching import _assert_lockstep, _both, match_multipattern

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

a, b, c, d = Const("a"), Const("b"), Const("c"), Const("d")
X, Y, Z = Var("X"), Var("Y"), Var("Z")


def f(*args):
    return App("f", args)


def g(*args):
    return App("g", args)


def _helpers(*patterns):
    """The kinds of helper function the matcher of ``patterns`` calls."""
    matcher, _ = compile_trigger(patterns, ())
    return sorted(
        name.rstrip("0123456789")
        for name in matcher.__globals__
        if name.startswith(("_arg", "_match"))
    )


def nest(fn, depth, inner):
    term = inner
    for _ in range(depth):
        term = App(fn, (term,))
    return term


# ----------------------------------------------------------------------
# One shape, different constants
# ----------------------------------------------------------------------


class TestSharedShapes:
    def test_one_matcher_for_two_constants_each_with_its_own(self):
        eg = EGraph()
        for term in (f(c, a), f(d, b), f(a, a)):
            eg.intern(term)
        with_a, parameters_a = compile_trigger((f(X, a),), ("X",))
        with_b, parameters_b = compile_trigger((f(X, b),), ("X",))
        assert with_a is with_b
        assert parameters_a == (a,) and parameters_b == (b,)
        assert [eg.term_of(n) for (n,) in with_a(eg, parameters_a)] == [c, a]
        assert [eg.term_of(n) for (n,) in with_b(eg, parameters_b)] == [d]

    def test_one_width_function_for_two_constants(self):
        eg = EGraph()
        eg.assert_eq(eg.intern(App("p", (c, a))), eg.TRUE)
        eg.assert_eq(eg.intern(App("p", (c, b))), eg.FALSE)
        holds = Forall(("X",), Pred("p", (X, a)))
        refuted = Forall(("X",), Pred("p", (X, b)))
        (width_a, parameters_a) = compile_width(holds)
        (width_b, parameters_b) = compile_width(refuted)
        assert width_a is width_b
        node = eg.lookup(c)
        assert width_a(eg, parameters_a, (node,)) == -1
        assert width_b(eg, parameters_b, (node,)) == 0

    def test_two_quantifiers_of_one_shape_in_one_solver(self):
        """``∀X. s(X) ⇒ p(X, a)`` and ``∀X. s(X) ⇒ p(X, b)`` share their
        code; the proof needs each instance with its own constant."""
        solver = Solver(Limits(time_budget=30.0), explain=True)
        for constant, name in ((a, "to-a"), (b, "to-b")):
            body = Or((Not(Pred("s", (X,))), Pred("p", (X, constant))))
            solver.add(Forall(("X",), body, ((App("s", (X,)),),), name))
        solver.add(Pred("s", (c,)))
        solver.add_negated_goal(And((Pred("p", (c, a)), Pred("p", (c, b)))))
        result = solver.check()
        assert result.verdict is Verdict.UNSAT
        instances = {
            step.formula
            for step in result.proof_log.steps
            if step.kind == "instance"
        }
        assert Or((Not(Pred("s", (c,))), Pred("p", (c, a)))) in instances
        assert Or((Not(Pred("s", (c,))), Pred("p", (c, b)))) in instances
        assert result.stats.per_quantifier == {"to-a": 1, "to-b": 1}

    def test_repeated_and_distinct_constants_do_not_share(self):
        same, _ = compile_trigger((App("h", (X, c, c)),), ("X",))
        apart, parameters = compile_trigger((App("h", (X, c, d)),), ("X",))
        assert same is not apart and parameters == (c, d)
        eg = EGraph()
        eg.intern(App("h", (a, c, d)))
        assert list(match_multipattern(eg, (App("h", (X, c, c)),))) == []
        assert len(list(match_multipattern(eg, (App("h", (X, c, d)),)))) == 1
        twice = compile_width(Forall(("X",), Pred("p", (X, c, c))))
        once = compile_width(Forall(("X",), Pred("p", (X, c, d))))
        assert twice[0] is not once[0]
        assert twice[1] == (c,) and once[1] == (c, d)


# ----------------------------------------------------------------------
# Deep and wide triggers
# ----------------------------------------------------------------------


class TestDeepTriggers:
    def test_trigger_nested_25_deep(self):
        def build(eg):
            eg.intern(nest("f", 27, a))
            eg.intern(nest("f", 3, b))

        graphs = _both(build)
        pattern = nest("f", 25, X)
        assert _helpers(pattern) == ["_arg"] * 2
        got = _assert_lockstep(graphs, (pattern,))
        assert [graphs[0].term_of(m["X"]) for m in got] == [
            a,
            nest("f", 1, a),
            nest("f", 2, a),
        ]

    def test_deep_trigger_with_a_later_variable_and_constant(self):
        def build(eg):
            eg.intern(g(nest("f", 22, g(a, c)), b))
            eg.intern(g(nest("f", 22, g(a, d)), b))

        graphs = _both(build)
        pattern = g(nest("f", 22, g(X, c)), Y)
        (binding,) = _assert_lockstep(graphs, (pattern,))
        assert graphs[0].term_of(binding["X"]) == a
        assert graphs[0].term_of(binding["Y"]) == b

    def test_three_pattern_trigger_with_nested_applications(self):
        def build(eg):
            for x in (a, b, c):
                eg.intern(App("k", (f(g(x, d)),)))
                eg.intern(g(f(x), App("h", (x, x))))
            eg.intern(App("r", (App("h", (a, a)), d)))
            eg.intern(App("r", (App("h", (c, c)), d)))
            eg.assert_eq(eg.intern(b), eg.intern(c))

        graphs = _both(build)
        patterns = (
            App("k", (f(g(X, Z)),)),
            g(f(X), App("h", (X, Y))),
            App("r", (App("h", (Y, Y)), Z)),
        )
        got = _assert_lockstep(graphs, patterns)
        assert len(got) >= 3

    def test_many_nested_patterns_split_the_generator(self):
        """Seven patterns with nested applications nest more loops than
        one function may hold; the rest goes on in a helper generator."""

        def build(eg):
            for x in (a, b):
                for index in range(7):
                    eg.intern(App(f"q{index}", (f(x),)))

        graphs = _both(build)
        patterns = tuple(App(f"q{index}", (f(X),)) for index in range(7))
        assert _helpers(*patterns) == ["_match"]
        got = _assert_lockstep(graphs, patterns)
        assert [graphs[0].term_of(m["X"]) for m in got] == [a, b]

    def test_deep_body_width(self):
        eg = EGraph()
        eg.assert_eq(eg.intern(App("p", (nest("f", 25, a),))), eg.TRUE)
        body = Or((Pred("p", (nest("f", 25, X),)), Eq(nest("f", 30, X), b)))
        binding = {"X": eg.lookup(a)}
        assert compiled_width(eg, body, binding) == -1
        assert reference_width(eg, instance_of(eg, body, binding)) == -1

    def test_non_application_trigger_raises(self):
        eg = EGraph()
        eg.intern(f(a))
        with pytest.raises(ValueError):
            list(match_multipattern(eg, (X,)))
        with pytest.raises(ValueError):
            list(match_multipattern(eg, (f(X), a)))
        with pytest.raises(ValueError):
            compile_trigger((Const("a"),), ())


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------


def test_cache_stays_at_its_bound():
    for index in range(CACHE_BOUND + 40):
        compile_trigger((App(f"distinct{index}", (X,)),), ("X",))
        assert len(matching._cache) <= CACHE_BOUND
    assert len(matching._cache) == CACHE_BOUND
    # The newest shapes are kept: compiling one again finds it.
    newest = matching._cache.get(
        ("match", 1, 1, (("app", f"distinct{CACHE_BOUND + 39}", (("var", 0),)),))
    )
    assert newest is not None


def test_compiled_record_pickles_without_its_code():
    quantifier = Forall(
        ("X",), Pred("p", (X,)), ((App("s", (X,)),),), "all-p"
    )
    record = _QuantRecord(quantifier, quantifier.triggers)
    record.compile()
    assert record.matchers is not None and record.width is not None
    copy = pickle.loads(pickle.dumps(record))
    assert copy.formula == quantifier and copy.triggers == quantifier.triggers
    assert copy.matchers is None and copy.width is None
    copy.compile()
    assert copy.matchers[0][0] is record.matchers[0][0]


_SOURCES = """
from repro.logic.terms import App, Const, Forall, Not, Or, Pred, Var, Eq
from repro.prover.core import _WidthWriter, compile_width
from repro.prover.matching import _cache, _matcher_source, compile_trigger
X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = Const("a"), Const("b")
compile_trigger(
    (App("k", (X, a)), App("f", (App("g", (Y, X, b)), Z)), App("h", (Z, Y))),
    ("Z", "X", "Y"),
)
compile_width(Forall(("X", "Y"), Or((
    Not(Pred("p", (App("f", (X, a)), Y))),
    Eq(App("f", (X, a)), App("g", (Y, b))),
    Pred("q", (App("g", (Y, b)),)),
))))
for key in _cache:
    text = _matcher_source(key) if key[0] == "match" else _WidthWriter(key).source()
    print(repr(key), text)
"""


def test_generated_code_does_not_depend_on_hash_order():
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        run = subprocess.run(
            [sys.executable, "-c", _SOURCES],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
