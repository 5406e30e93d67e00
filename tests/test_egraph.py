"""Unit tests for the E-graph (congruence closure, trail, folding)."""

import random

import pytest

from repro.logic.terms import App, Const, IntLit
from repro.prover.egraph import EGraph

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the seeded oracle test below still runs
    given = None

a, b, c, d = Const("a"), Const("b"), Const("c"), Const("d")


def f(*args):
    return App("f", args)


def g(*args):
    return App("g", args)


class TestInterning:
    def test_same_term_same_node(self):
        eg = EGraph()
        assert eg.intern(a) == eg.intern(a)
        assert eg.intern(f(a, b)) == eg.intern(f(a, b))

    def test_distinct_terms_distinct_nodes(self):
        eg = EGraph()
        assert eg.intern(a) != eg.intern(b)
        assert eg.intern(f(a)) != eg.intern(g(a))

    def test_int_literals(self):
        eg = EGraph()
        three = eg.intern(IntLit(3))
        assert eg.int_value_of(three) == 3
        assert eg.intern(IntLit(3)) == three


class TestCongruence:
    def test_basic_congruence(self):
        eg = EGraph()
        fa, fb = eg.intern(f(a)), eg.intern(f(b))
        assert not eg.are_equal(fa, fb)
        assert eg.assert_eq(eg.intern(a), eg.intern(b))
        assert eg.are_equal(fa, fb)

    def test_congruence_is_transitive_through_nesting(self):
        eg = EGraph()
        ffa, ffb = eg.intern(f(f(a))), eg.intern(f(f(b)))
        eg.assert_eq(eg.intern(a), eg.intern(b))
        assert eg.are_equal(ffa, ffb)

    def test_congruence_on_intern_after_merge(self):
        eg = EGraph()
        eg.assert_eq(eg.intern(a), eg.intern(b))
        fa = eg.intern(f(a))
        fb = eg.intern(f(b))  # interned after the merge
        assert eg.are_equal(fa, fb)

    def test_multi_arg_congruence(self):
        eg = EGraph()
        n1 = eg.intern(f(a, c))
        n2 = eg.intern(f(b, d))
        eg.assert_eq(eg.intern(a), eg.intern(b))
        assert not eg.are_equal(n1, n2)
        eg.assert_eq(eg.intern(c), eg.intern(d))
        assert eg.are_equal(n1, n2)


class TestDisequality:
    def test_diseq_then_eq_conflicts(self):
        eg = EGraph()
        assert eg.assert_diseq(eg.intern(a), eg.intern(b))
        assert not eg.assert_eq(eg.intern(a), eg.intern(b))
        assert eg.in_conflict

    def test_eq_then_diseq_conflicts(self):
        eg = EGraph()
        assert eg.assert_eq(eg.intern(a), eg.intern(b))
        assert not eg.assert_diseq(eg.intern(a), eg.intern(b))

    def test_congruence_triggers_diseq_conflict(self):
        eg = EGraph()
        eg.assert_diseq(eg.intern(f(a)), eg.intern(f(b)))
        assert not eg.assert_eq(eg.intern(a), eg.intern(b))

    def test_are_diseq_via_int_values(self):
        eg = EGraph()
        assert eg.are_diseq(eg.intern(IntLit(1)), eg.intern(IntLit(2)))

    def test_int_merge_conflict(self):
        eg = EGraph()
        assert not eg.assert_eq(eg.intern(IntLit(1)), eg.intern(IntLit(2)))


class TestTruth:
    def test_true_false_distinct(self):
        eg = EGraph()
        assert eg.truth(eg.TRUE) is True
        assert eg.truth(eg.FALSE) is False

    def test_atom_unknown_then_true(self):
        eg = EGraph()
        atom = eg.intern(App("P", (a,)))
        assert eg.truth(atom) is None
        eg.assert_eq(atom, eg.TRUE)
        assert eg.truth(atom) is True


class TestFolding:
    def test_addition_folds(self):
        eg = EGraph()
        total = eg.intern(App("+", (IntLit(1), IntLit(2))))
        assert eg.int_value_of(total) == 3

    def test_fold_after_merge(self):
        eg = EGraph()
        total = eg.intern(App("+", (a, IntLit(2))))
        assert eg.int_value_of(total) is None
        eg.assert_eq(eg.intern(a), eg.intern(IntLit(1)))
        assert eg.int_value_of(total) == 3

    def test_comparison_folds_to_truth(self):
        eg = EGraph()
        lt = eg.intern(App("<", (IntLit(1), IntLit(2))))
        assert eg.truth(lt) is True
        ge = eg.intern(App(">=", (IntLit(1), IntLit(2))))
        assert eg.truth(ge) is False

    def test_fold_conflict_detected(self):
        eg = EGraph()
        total = eg.intern(App("+", (IntLit(1), IntLit(2))))
        assert not eg.assert_eq(total, eg.intern(IntLit(5)))


class TestBacktracking:
    def test_pop_undoes_merge(self):
        eg = EGraph()
        na, nb = eg.intern(a), eg.intern(b)
        mark = eg.push()
        eg.assert_eq(na, nb)
        assert eg.are_equal(na, nb)
        eg.pop(mark)
        assert not eg.are_equal(na, nb)

    def test_pop_undoes_congruence(self):
        eg = EGraph()
        fa, fb = eg.intern(f(a)), eg.intern(f(b))
        mark = eg.push()
        eg.assert_eq(eg.intern(a), eg.intern(b))
        assert eg.are_equal(fa, fb)
        eg.pop(mark)
        assert not eg.are_equal(fa, fb)

    def test_pop_undoes_conflict(self):
        eg = EGraph()
        eg.assert_diseq(eg.intern(a), eg.intern(b))
        mark = eg.push()
        eg.assert_eq(eg.intern(a), eg.intern(b))
        assert eg.in_conflict
        eg.pop(mark)
        assert not eg.in_conflict

    def test_nodes_survive_pop(self):
        eg = EGraph()
        mark = eg.push()
        node = eg.intern(f(a))
        eg.pop(mark)
        assert eg.intern(f(a)) == node
        assert not eg.in_conflict

    def test_nested_push_pop(self):
        eg = EGraph()
        na, nb, nc = eg.intern(a), eg.intern(b), eg.intern(c)
        m1 = eg.push()
        eg.assert_eq(na, nb)
        m2 = eg.push()
        eg.assert_eq(nb, nc)
        assert eg.are_equal(na, nc)
        eg.pop(m2)
        assert eg.are_equal(na, nb)
        assert not eg.are_equal(na, nc)
        eg.pop(m1)
        assert not eg.are_equal(na, nb)

    def test_merge_after_pop_works(self):
        eg = EGraph()
        na, nb = eg.intern(a), eg.intern(b)
        mark = eg.push()
        eg.assert_eq(na, nb)
        eg.pop(mark)
        assert eg.assert_eq(na, nb)
        assert eg.are_equal(na, nb)


class TestIntrospection:
    def test_apps_with_head(self):
        eg = EGraph()
        n1, n2 = eg.intern(f(a)), eg.intern(f(b))
        eg.intern(g(a))
        assert set(eg.apps_with_head("f")) == {n1, n2}

    def test_class_members_after_merge(self):
        eg = EGraph()
        na, nb = eg.intern(a), eg.intern(b)
        eg.assert_eq(na, nb)
        assert set(eg.class_members(na)) == {na, nb}

    def test_class_apps_with_head(self):
        eg = EGraph()
        fa = eg.intern(f(a))
        nc = eg.intern(c)
        eg.assert_eq(fa, nc)
        assert set(eg.class_apps_with_head(nc, "f")) == {fa}

    def test_term_of_round_trip(self):
        eg = EGraph()
        node = eg.intern(f(a, g(b)))
        assert eg.term_of(node) == f(a, g(b))


class TestDisequalityIndex:
    """The per-root disequality lists, their undo, and the merge check."""

    def test_pop_diseq_asserted_after_unions(self):
        eg = EGraph()
        na, nb, nc, nd = (eg.intern(t) for t in (a, b, c, d))
        eg.assert_eq(na, nb)
        base = eg.diseq_pairs()
        mark = eg.push()
        assert eg.assert_diseq(nb, nc)
        assert eg.assert_eq(nc, nd)  # absorbs one side of the diseq
        assert eg.are_diseq(na, nd) and eg.are_diseq(nd, na)
        eg.pop(mark)
        assert eg.diseq_pairs() == base
        assert not eg.are_diseq(na, nc) and not eg.are_diseq(na, nd)
        assert eg.assert_eq(na, nc) and not eg.in_conflict

    def test_pop_union_restores_survivor_list(self):
        eg = EGraph()
        na, nb, nc = eg.intern(a), eg.intern(b), eg.intern(c)
        eg.assert_diseq(na, nc)
        mark = eg.push()
        eg.assert_eq(na, nb)
        assert eg.are_diseq(nb, nc)
        eg.pop(mark)
        assert not eg.are_diseq(nb, nc)
        assert eg.are_diseq(na, nc)
        assert eg.assert_eq(nb, nc) and not eg.in_conflict

    def test_conflict_only_through_congruence_chain(self):
        eg = EGraph()
        left, right = eg.intern(g(f(a), c)), eg.intern(g(f(b), d))
        assert eg.assert_diseq(left, right)
        assert eg.assert_eq(eg.intern(c), eg.intern(d))
        assert eg.assert_eq(eg.intern(a), eg.intern(c))
        assert not eg.in_conflict
        # b = d closes the chain a = c = d = b, so f(a) = f(b) and then
        # g(f(a), c) = g(f(b), d) by congruence: the asserted classes join.
        assert not eg.assert_eq(eg.intern(b), eg.intern(d))
        assert eg.in_conflict

    def test_folding_merges_disequal_integer_classes(self):
        eg = EGraph()
        x, y = eg.intern(Const("x")), eg.intern(Const("y"))
        total = eg.intern(App("+", (a, b)))
        assert eg.assert_diseq(x, y)
        assert eg.assert_eq(x, eg.intern(IntLit(2)))
        assert eg.assert_eq(y, total)
        assert eg.assert_eq(eg.intern(a), eg.intern(IntLit(1)))
        # Folding a + b to 2 joins y's class with x's.
        assert not eg.assert_eq(eg.intern(b), eg.intern(IntLit(1)))
        assert eg.in_conflict

    @pytest.mark.xfail(
        strict=True,
        reason="known incompleteness: a node interned while the graph is "
        "in conflict is never merged with its congruent peer, and the "
        "missed merge outlives the pop (see ROADMAP)",
    )
    def test_intern_during_conflict_keeps_congruence_after_pop(self):
        eg = EGraph()
        eg.assert_eq(eg.intern(a), eg.intern(b))
        fb = eg.intern(f(b))
        mark = eg.push()
        eg.assert_diseq(eg.intern(c), eg.intern(d))
        eg.assert_eq(eg.intern(c), eg.intern(d))
        assert eg.in_conflict
        fa = eg.intern(f(a))
        eg.pop(mark)
        assert eg.are_equal(fa, fb)


class _ScanEGraph(EGraph):
    """Oracle: the same E-graph, but disequality reasoning scans every
    asserted pair (as the E-graph did before its per-root index)."""

    def are_diseq(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        va, vb = self.int_value_of(ra), self.int_value_of(rb)
        if va is not None and vb is not None and va != vb:
            return True
        return any(
            {self.find(x), self.find(y)} == {ra, rb}
            for x, y in self.diseq_pairs()
        )

    def _check_diseqs(self):
        if any(self.find(x) == self.find(y) for x, y in self.diseq_pairs()):
            self._set_conflict()


_LEAVES = [a, b, c, d, IntLit(0), IntLit(1), IntLit(2), Const("@true"), Const("@false")]
_HEADS = [("f", 1), ("g", 2), ("+", 2), ("<", 2)]
_OPS = ("intern", "eq", "diseq", "push", "pop")


def _random_term(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_LEAVES)
    fn, arity = rng.choice(_HEADS)
    return App(fn, tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def _random_ops(rng, length):
    ops = []
    for _ in range(length):
        kind = rng.choice(_OPS)
        ops.append((kind, _random_term(rng), rng.randrange(64), rng.randrange(64)))
    return ops


def _run_against_oracle(ops):
    """Apply ``ops`` to an EGraph and the scanning oracle in lockstep."""
    graphs = (EGraph(), _ScanEGraph())
    marks = []
    nodes = [graphs[0].TRUE, graphs[0].FALSE]
    for kind, term, i, j in ops:
        if kind == "intern":
            results = {eg.intern(term) for eg in graphs}
            assert len(results) == 1
            nodes.append(results.pop())
        elif kind in ("eq", "diseq"):
            x, y = nodes[i % len(nodes)], nodes[j % len(nodes)]
            method = "assert_eq" if kind == "eq" else "assert_diseq"
            assert len({getattr(eg, method)(x, y) for eg in graphs}) == 1
        elif kind == "push":
            marks.append(tuple(eg.push() for eg in graphs))
        elif marks:
            for eg, mark in zip(graphs, marks.pop()):
                eg.pop(mark)
        real, oracle = graphs
        assert real.in_conflict == oracle.in_conflict
        assert real.diseq_pairs() == oracle.diseq_pairs()
        universe = range(real.node_count)
        for n in universe:
            assert real.truth(n) == oracle.truth(n)
            for m in universe:
                assert real.are_equal(n, m) == oracle.are_equal(n, m)
                assert real.are_diseq(n, m) == oracle.are_diseq(n, m)


class TestScanOracle:
    def test_seeded_sequences_match_oracle(self):
        for seed in range(150):
            rng = random.Random(seed)
            _run_against_oracle(_random_ops(rng, rng.randrange(5, 40)))

    if given is not None:
        _terms = st.recursive(
            st.sampled_from(_LEAVES),
            lambda kids: st.builds(
                lambda head, args: App(head[0], tuple(args[: head[1]])),
                st.sampled_from(_HEADS),
                st.lists(kids, min_size=2, max_size=2),
            ),
            max_leaves=6,
        )
        _op = st.tuples(
            st.sampled_from(_OPS), _terms, st.integers(0, 63), st.integers(0, 63)
        )

        @settings(max_examples=150, deadline=None)
        @given(st.lists(_op, max_size=40))
        def test_hypothesis_sequences_match_oracle(self, ops):
            _run_against_oracle(ops)


class _Driver:
    """An E-graph driven by ``tests.test_bound_width`` ops (its ``check``
    ops are skipped), with the node list and push marks the ops refer
    to."""

    def __init__(self, egraph=None, nodes=None, marks=None):
        self.egraph = egraph or EGraph()
        self.nodes = nodes or [self.egraph.TRUE, self.egraph.FALSE]
        self.marks = marks or []

    def copy(self):
        return _Driver(self.egraph.copy(), list(self.nodes), list(self.marks))

    def step(self, op):
        egraph, nodes, kind = self.egraph, self.nodes, op[0]
        if kind == "intern":
            nodes.append(egraph.intern(op[1]))
        elif kind in ("eq", "diseq"):
            x, y = nodes[op[1] % len(nodes)], nodes[op[2] % len(nodes)]
            if kind == "eq":
                egraph.assert_eq(x, y)
            else:
                egraph.assert_diseq(x, y)
        elif kind == "push":
            self.marks.append(egraph.push())
        elif kind == "pop" and self.marks:
            egraph.pop(self.marks.pop())

    def observe(self):
        eg = self.egraph
        universe = range(eg.node_count)
        return (
            eg.node_count,
            eg.merges,
            eg.in_conflict,
            [eg.find(n) for n in universe],
            [eg.truth(n) for n in universe],
            [eg.are_diseq(n, m) for n in universe for m in universe],
        )


class TestCopy:
    def test_copy_sets_every_attribute(self):
        eg = EGraph()
        eg.assert_eq(eg.intern(f(a, IntLit(1))), eg.intern(g(b)))
        eg.assert_diseq(eg.intern(c), eg.intern(d))
        eg.push()
        clone = eg.copy()
        # Every field __init__ sets, so a new one cannot be missed …
        assert vars(clone).keys() == vars(eg).keys()
        for name, value in vars(eg).items():
            copied = getattr(clone, name)
            assert copied == value, name
            # … and no mutable container, nor a list inside one, shared.
            if isinstance(value, (list, dict)):
                assert copied is not value, name
                inner = value.values() if isinstance(value, dict) else value
                inner_copied = (
                    copied.values() if isinstance(copied, dict) else copied
                )
                for item, item_copied in zip(inner, inner_copied):
                    if isinstance(item, (list, dict)):
                        assert item_copied is not item, name

    def test_copies_evolve_independently(self):
        from tests.test_bound_width import _random_ops as _bound_width_ops

        for seed in range(80):
            rng = random.Random(seed)
            prefix = _bound_width_ops(rng, rng.randrange(5, 40))
            ours = _bound_width_ops(rng, rng.randrange(5, 30))
            theirs = _bound_width_ops(rng, rng.randrange(5, 30))
            original = _Driver()
            for op in prefix:
                original.step(op)
            clone = original.copy()
            assert clone.observe() == original.observe()
            # Interleaved, so a shared structure would leak both ways.
            for index in range(max(len(ours), len(theirs))):
                if index < len(ours):
                    original.step(ours[index])
                if index < len(theirs):
                    clone.step(theirs[index])
            for driver, ops in ((original, ours), (clone, theirs)):
                alone = _Driver()
                for op in prefix + ops:
                    alone.step(op)
                assert driver.observe() == alone.observe(), seed
