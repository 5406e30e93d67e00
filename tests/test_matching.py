"""Unit tests for E-matching and trigger inference."""

import itertools
import random

from repro.logic.terms import (
    And,
    App,
    Const,
    Eq,
    Forall,
    Implies,
    IntLit,
    Not,
    Or,
    Pred,
    Var,
)
from repro.prover.egraph import EGraph
from repro.prover.matching import match_multipattern
from repro.prover.triggers import infer_triggers

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the seeded oracle test below still runs
    given = None

a, b, c = Const("a"), Const("b"), Const("c")
X, Y = Var("X"), Var("Y")


def f(*args):
    return App("f", args)


def g(*args):
    return App("g", args)


def bindings_of(egraph, *patterns):
    return list(match_multipattern(egraph, patterns))


class TestMatching:
    def test_single_pattern_single_match(self):
        eg = EGraph()
        eg.intern(f(a))
        (binding,) = bindings_of(eg, f(X))
        assert eg.term_of(binding["X"]) == a

    def test_single_pattern_many_matches(self):
        eg = EGraph()
        eg.intern(f(a))
        eg.intern(f(b))
        results = {eg.term_of(m["X"]) for m in bindings_of(eg, f(X))}
        assert results == {a, b}

    def test_no_match_for_missing_head(self):
        eg = EGraph()
        eg.intern(f(a))
        assert bindings_of(eg, g(X)) == []

    def test_arity_mismatch_no_match(self):
        eg = EGraph()
        eg.intern(f(a, b))
        assert bindings_of(eg, f(X)) == []

    def test_constant_argument_filters(self):
        eg = EGraph()
        eg.intern(f(a, b))
        eg.intern(f(c, b))
        results = bindings_of(eg, f(X, Const("b")))
        assert len(results) == 2
        only = bindings_of(eg, App("f", (Const("a"), Var("Y"))))
        assert len(only) == 1
        assert eg.term_of(only[0]["Y"]) == b

    def test_matching_modulo_congruence(self):
        eg = EGraph()
        eg.intern(App("P", (c,)))
        eg.assert_eq(eg.intern(c), eg.intern(f(a)))
        # Pattern P(f(X)) should match P(c) because c == f(a).
        results = bindings_of(eg, App("P", (f(X),)))
        assert len(results) == 1
        assert eg.term_of(results[0]["X"]) == a

    def test_nonlinear_pattern_requires_equality(self):
        eg = EGraph()
        eg.intern(f(a, b))
        assert bindings_of(eg, f(X, X)) == []
        eg.assert_eq(eg.intern(a), eg.intern(b))
        assert len(bindings_of(eg, f(X, X))) == 1

    def test_multipattern_shares_bindings(self):
        eg = EGraph()
        eg.intern(f(a))
        eg.intern(g(a))
        eg.intern(g(b))
        results = bindings_of(eg, f(X), g(X))
        assert len(results) == 1
        assert eg.term_of(results[0]["X"]) == a

    def test_multipattern_cross_product_when_independent(self):
        eg = EGraph()
        eg.intern(f(a))
        eg.intern(f(b))
        eg.intern(g(c))
        results = bindings_of(eg, f(X), g(Y))
        assert len(results) == 2

    def test_nested_pattern(self):
        eg = EGraph()
        eg.intern(f(g(a)))
        (binding,) = bindings_of(eg, f(g(X)))
        assert eg.term_of(binding["X"]) == a

    def test_match_after_pop_sees_persistent_terms(self):
        eg = EGraph()
        mark = eg.push()
        eg.intern(f(a))
        eg.pop(mark)
        # Terms survive pops by design; matching still finds them.
        assert len(bindings_of(eg, f(X))) == 1

    def test_ghost_node_still_congruent_after_pop(self):
        # Regression test for the ghost-node bug: a node created inside a
        # popped scope must still participate in congruence afterwards.
        eg = EGraph()
        p_fa = eg.intern(App("P", (f(a),)))
        mark = eg.push()
        p_c = eg.intern(App("P", (c,)))  # created in the inner scope
        eg.pop(mark)
        assert eg.assert_eq(p_c, eg.TRUE)
        assert eg.assert_eq(eg.intern(c), eg.intern(f(a)))
        # P(c) and P(f(a)) must have merged: both true now.
        assert eg.truth(p_fa) is True


# ---------------------------------------------------------------------------
# Oracle: the matcher as it was before indexed joins — a generator chain
# that tries a top-level pattern against every application with its head.
# ---------------------------------------------------------------------------


def reference_match(egraph, patterns):
    yield from _ref_sequence(egraph, patterns, 0, {})


def _ref_sequence(egraph, patterns, index, binding):
    if index == len(patterns):
        yield dict(binding)
        return
    for extended in _ref_anywhere(egraph, patterns[index], binding):
        yield from _ref_sequence(egraph, patterns, index + 1, extended)


def _ref_anywhere(egraph, pattern, binding):
    for node in egraph.apps_with_head(pattern.fn):
        yield from _ref_app(egraph, pattern, node, binding)


def _ref_app(egraph, pattern, node, binding):
    children = egraph.children_of(node)
    if len(children) != len(pattern.args):
        return
    yield from _ref_children(egraph, pattern.args, children, 0, binding)


def _ref_children(egraph, pattern_args, child_nodes, index, binding):
    if index == len(pattern_args):
        yield binding
        return
    for extended in _ref_term(egraph, pattern_args[index], child_nodes[index], binding):
        yield from _ref_children(egraph, pattern_args, child_nodes, index + 1, extended)


def _ref_term(egraph, pattern, node, binding):
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        if bound is None:
            extended = dict(binding)
            extended[pattern.name] = node
            yield extended
        elif egraph.are_equal(bound, node):
            yield binding
        return
    if isinstance(pattern, (Const, IntLit)):
        if egraph.are_equal(egraph.intern(pattern), node):
            yield binding
        return
    for member in egraph.class_apps_with_head(node, pattern.fn):
        yield from _ref_app(egraph, pattern, member, binding)


class _SpyEGraph(EGraph):
    """Records the joins the matcher takes through parent lists."""

    def __init__(self):
        super().__init__()
        self.joins = []

    def parents_at(self, node, fn, arity, position):
        self.joins.append((fn, position))
        return super().parents_at(node, fn, arity, position)


def _both(ops_on_graph):
    """Two E-graphs built by the same operations: one for the matcher,
    one for the oracle (matching may intern constants)."""
    graphs = (_SpyEGraph(), EGraph())
    for graph in graphs:
        ops_on_graph(graph)
    return graphs


def _assert_lockstep(graphs, patterns, limit=None):
    real, oracle = graphs
    got = list(itertools.islice(match_multipattern(real, patterns), limit))
    want = list(itertools.islice(reference_match(oracle, patterns), limit))
    assert got == want
    assert real.node_count == oracle.node_count
    return got


# Ground leaves; ``z`` and 7 occur only in patterns, so matching interns them.
_LEAVES = [a, b, c, Const("d"), IntLit(0), IntLit(1)]
_PATTERN_ONLY = [Const("z"), IntLit(7)]
_HEADS = [("f", 1), ("g", 2), ("h", 3), ("+", 2)]
_VARS = [X, Y, Var("Z")]
_MATCH_OPS = ("intern", "intern", "eq", "diseq", "push", "pop", "match")


def _app(head, args):
    fn, arity = head
    return App(fn, tuple(args[:arity]))


def _random_ground(rng, depth=2):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(_LEAVES)
    head = rng.choice(_HEADS)
    return _app(head, [_random_ground(rng, depth - 1) for _ in range(3)])


def _random_pattern(rng, depth=2, top=True):
    if not top and (depth == 0 or rng.random() < 0.6):
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(_VARS)
        return rng.choice(_LEAVES + _PATTERN_ONLY)
    head = rng.choice(_HEADS[:3]) if top else rng.choice(_HEADS)
    return _app(head, [_random_pattern(rng, depth - 1, False) for _ in range(3)])


def _generalize(rng, term, top=True):
    """A pattern that matches ``term``'s node, and some others."""
    if isinstance(term, App):
        if not top and rng.random() < 0.25:
            return rng.choice(_VARS)
        return App(term.fn, tuple(_generalize(rng, arg, False) for arg in term.args))
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(_VARS)
    return rng.choice(_PATTERN_ONLY) if roll < 0.65 else term


def _random_match_ops(rng, length):
    ops = []
    apps = []
    for _ in range(length):
        kind = rng.choice(_MATCH_OPS)
        if kind == "intern":
            term = _random_ground(rng)
            if isinstance(term, App) and term.fn != "+":
                apps.append(term)
            ops.append((kind, term))
        elif kind in ("eq", "diseq"):
            ops.append((kind, rng.randrange(64), rng.randrange(64)))
        elif kind == "match":
            patterns = tuple(
                _generalize(rng, rng.choice(apps))
                if apps and rng.random() < 0.85
                else _random_pattern(rng)
                for _ in range(rng.choice((1, 1, 2, 2, 3)))
            )
            limit = rng.choice([None, None, 1, 3])
            ops.append((kind, patterns, limit))
        else:
            ops.append((kind,))
    return ops


def _run_matcher_ops(ops):
    """Apply ``ops`` to two E-graphs, comparing the matcher with the
    oracle on every ``match``."""
    graphs = (_SpyEGraph(), EGraph())
    marks = []
    nodes = [graphs[0].TRUE, graphs[0].FALSE]
    for op in ops:
        kind = op[0]
        if kind == "intern":
            results = {graph.intern(op[1]) for graph in graphs}
            assert len(results) == 1
            nodes.append(results.pop())
        elif kind in ("eq", "diseq"):
            x, y = nodes[op[1] % len(nodes)], nodes[op[2] % len(nodes)]
            method = "assert_eq" if kind == "eq" else "assert_diseq"
            assert len({getattr(graph, method)(x, y) for graph in graphs}) == 1
        elif kind == "push":
            marks.append(tuple(graph.push() for graph in graphs))
        elif kind == "pop":
            if marks:
                for graph, mark in zip(graphs, marks.pop()):
                    graph.pop(mark)
        else:
            _assert_lockstep(graphs, op[1], op[2])
    return graphs[0].joins


class TestMatcherOracle:
    def test_seeded_sequences_match_oracle(self):
        joins = 0
        for seed in range(150):
            rng = random.Random(seed)
            joins += len(_run_matcher_ops(_random_match_ops(rng, rng.randrange(10, 60))))
        assert joins > 0  # the parent-list join was exercised

    if given is not None:
        _ground = st.recursive(
            st.sampled_from(_LEAVES),
            lambda kids: st.builds(
                _app, st.sampled_from(_HEADS), st.lists(kids, min_size=3, max_size=3)
            ),
            max_leaves=6,
        )
        _pattern_arg = st.recursive(
            st.sampled_from(_VARS + _LEAVES + _PATTERN_ONLY),
            lambda kids: st.builds(
                _app, st.sampled_from(_HEADS), st.lists(kids, min_size=3, max_size=3)
            ),
            max_leaves=4,
        )
        _pattern = st.builds(
            _app,
            st.sampled_from(_HEADS[:3]),
            st.lists(_pattern_arg, min_size=3, max_size=3),
        )
        _op = st.one_of(
            st.tuples(st.just("intern"), _ground),
            st.tuples(
                st.sampled_from(["eq", "diseq"]),
                st.integers(0, 63),
                st.integers(0, 63),
            ),
            st.tuples(st.sampled_from(["push", "pop"])),
            st.tuples(
                st.just("match"),
                st.lists(_pattern, min_size=1, max_size=3).map(tuple),
                st.sampled_from([None, 1, 3]),
            ),
        )

        @settings(max_examples=150, deadline=None)
        @given(st.lists(_op, max_size=50))
        def test_hypothesis_sequences_match_oracle(self, ops):
            _run_matcher_ops(ops)

    def test_join_filters_parents_at_other_positions(self):
        def build(eg):
            eg.intern(App("k", (a,)))
            for left, right in [(a, b), (b, a), (a, a), (c, a), (b, c), (c, c), (b, b)]:
                eg.intern(f(left, right))
            eg.intern(g(a))

        graphs = _both(build)
        got = _assert_lockstep(graphs, (App("k", (X,)), f(X, Y)))
        # a's class has parents f(a, b), f(b, a), f(a, a), f(c, a), g(a)
        # and k(a); only those with a first are matches of f(X, Y).
        assert [graphs[0].term_of(m["Y"]) for m in got] == [b, a]
        assert ("f", 0) in graphs[0].joins
        # A repeated variable: both positions must be in X's class.
        got = _assert_lockstep(graphs, (App("k", (X,)), f(X, X)))
        assert len(got) == 1
        # A ground argument joins too, once it is interned.
        _assert_lockstep(graphs, (f(Y, a),))
        assert ("f", 1) in graphs[0].joins

    def test_join_follows_merge_pop_merge(self):
        def build(eg):
            eg.intern(App("k", (b,)))
            eg.intern(f(a, c))
            for other in (c, Const("d"), Const("e")):
                eg.intern(f(other, other))

        graphs = _both(build)
        pattern = (App("k", (X,)), f(X, Y))
        ids = [[graph.intern(term) for term in (a, b)] for graph in graphs]
        assert _assert_lockstep(graphs, pattern) == []
        marks = [graph.push() for graph in graphs]
        for graph, (na, nb) in zip(graphs, ids):
            assert graph.assert_eq(na, nb)
        (binding,) = _assert_lockstep(graphs, pattern)
        assert graphs[0].term_of(binding["Y"]) == c
        for graph, mark in zip(graphs, marks):
            graph.pop(mark)
        assert _assert_lockstep(graphs, pattern) == []
        for graph, (na, nb) in zip(graphs, ids):
            assert graph.assert_eq(nb, na)
        (binding,) = _assert_lockstep(graphs, pattern)
        assert graphs[0].term_of(binding["X"]) == b
        assert graphs[0].joins


class TestTriggerInference:
    def test_single_covering_pattern(self):
        q = Forall(("X",), Implies(Pred("P", (X,)), Pred("Q", (X,))))
        triggers = infer_triggers(q)
        assert triggers
        assert all(len(multi) == 1 for multi in triggers)

    def test_prefers_small_patterns(self):
        q = Forall(
            ("X",),
            Implies(Pred("P", (X,)), Pred("Q", (App("f", (App("g", (X,)),)),))),
        )
        (first, *_) = infer_triggers(q)
        assert first == (App("P", (X,)),)

    def test_multipattern_cover(self):
        q = Forall(
            ("X", "Y"),
            Implies(And((Pred("P", (X,)), Pred("Q", (Y,)))), Eq(X, Y)),
        )
        (multi,) = infer_triggers(q)
        heads = sorted(p.fn for p in multi)
        assert heads == ["P", "Q"]

    def test_interpreted_heads_excluded(self):
        q = Forall(("X",), Pred("<", (App("+", (X, IntLit(1))), IntLit(10))))
        assert infer_triggers(q) == ()

    def test_patterns_found_inside_equalities(self):
        q = Forall(("X",), Eq(App("f", (X,)), Const("a")))
        triggers = infer_triggers(q)
        assert ((App("f", (X,)),),) == triggers[:1]

    def test_unmatchable_quantifier(self):
        q = Forall(("X",), Eq(X, Const("a")))
        assert infer_triggers(q) == ()

    def test_alternative_triggers_limited(self):
        body = Or(
            (
                Pred("P", (X,)),
                Pred("Q", (X,)),
                Pred("R", (X,)),
                Pred("S", (X,)),
                Pred("T", (X,)),
            )
        )
        triggers = infer_triggers(Forall(("X",), body))
        assert 1 <= len(triggers) <= 3
