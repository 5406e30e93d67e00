"""Candidate evaluation on bindings agrees with evaluating built instances.

The solver's relevancy filter measures a candidate instance's *width* on
the quantifier body and the match's nodes, without substituting the body,
through a function compiled for the body's shape
(:func:`repro.prover.core.compile_width`). ``reference_width`` is the
evaluator it replaced: it builds the instance with ``subst_formula`` and
looks every term of it up in the E-graph. The two must agree in every
E-graph state —
random interns, merges, disequalities and push/pop, including nodes
created in a popped branch that lost their merges — and on every candidate
the solver meets on the examples, the paper's programs and generated
farms, towers and call chains. Neither may create a node.

The second half pins the early end of a round: a refuted candidate is
asserted as soon as the gather finds it, with the same outcome, instance
and proof steps as gathering the whole round first.
"""

import glob
import os
import random

import pytest

import repro.prover.core as core
from repro.api import check_program
from repro.corpus.generators import (
    generate_call_chain,
    generate_impl_farm,
    generate_pivot_tower,
)
from repro.corpus.programs import PAPER_PROGRAMS
from repro.logic.subst import subst_formula
from repro.logic.terms import (
    And,
    App,
    Const,
    Eq,
    FalseF,
    Forall,
    IntLit,
    Not,
    Or,
    Pred,
    TrueF,
    Var,
)
from repro.prover.core import Limits, Solver, compile_width
from repro.prover.egraph import EGraph

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the seeded oracle test below still runs
    given = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMITS = Limits(time_budget=300.0)


# ----------------------------------------------------------------------
# The reference evaluator: on the built instance, through EGraph.lookup
# ----------------------------------------------------------------------


def reference_value(egraph, formula):
    """Three-valued truth of a ground formula; terms that are not in the
    E-graph are unknown."""
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Eq):
        left = egraph.lookup(formula.left)
        right = egraph.lookup(formula.right)
        if left is None or right is None:
            return None
        if egraph.are_equal(left, right):
            return True
        if egraph.are_diseq(left, right):
            return False
        return None
    if isinstance(formula, Pred):
        node = egraph.lookup_app(formula.name, formula.args)
        return None if node is None else egraph.truth(node)
    if isinstance(formula, Not):
        inner = reference_value(egraph, formula.body)
        return None if inner is None else not inner
    if isinstance(formula, And):
        value = True
        for conjunct in formula.conjuncts:
            inner = reference_value(egraph, conjunct)
            if inner is False:
                return False
            if inner is None:
                value = None
        return value
    if isinstance(formula, Or):
        value = False
        for disjunct in formula.disjuncts:
            inner = reference_value(egraph, disjunct)
            if inner is True:
                return True
            if inner is None:
                value = None
        return value
    return None


def reference_width(egraph, formula):
    """Number of top-level disjuncts of a built instance not currently
    refuted: −1 if it holds, 0 if it is refuted."""
    value = reference_value(egraph, formula)
    if value is True:
        return -1
    if value is False:
        return 0
    if isinstance(formula, Or):
        return sum(max(reference_width(egraph, d), 0) for d in formula.disjuncts)
    return 1


def instance_of(egraph, body, binding):
    """``body`` with each variable replaced by its bound node's term."""
    return subst_formula(body, {v: egraph.term_of(n) for v, n in binding.items()})


def compiled_width(egraph, body, binding):
    """The compiled width of ``body`` with its variables bound to the
    nodes of ``binding``."""
    variables = tuple(binding)
    width, parameters = compile_width(Forall(variables, body))
    return width(egraph, parameters, tuple(binding[v] for v in variables))


def assert_agrees(egraph, body, binding):
    nodes = egraph.node_count
    want = reference_width(egraph, instance_of(egraph, body, binding))
    got = compiled_width(egraph, body, binding)
    assert got == want, (body, binding)
    assert egraph.node_count == nodes
    return got


# ----------------------------------------------------------------------
# Random E-graphs and bodies
# ----------------------------------------------------------------------

a, b, c = Const("a"), Const("b"), Const("c")
X, Y = Var("X"), Var("Y")

# Ground leaves; ``z`` and 7 only ever occur in bodies, never interned.
_LEAVES = [a, b, c, Const("d"), IntLit(0), IntLit(1)]
_NEVER_INTERNED = [Const("z"), IntLit(7)]
_HEADS = [("f", 1), ("g", 2), ("h", 3), ("+", 2)]
_PREDS = [("p", 1), ("q", 2), ("<", 2)]
_VARS = [X, Y, Var("Z")]
_OPS = ("intern", "intern", "eq", "diseq", "push", "pop", "check", "check")


def _app(head, args):
    fn, arity = head
    return App(fn, tuple(args[:arity]))


def _random_ground(rng, depth=2):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(_LEAVES)
    return _app(rng.choice(_HEADS), [_random_ground(rng, depth - 1) for _ in range(3)])


def _random_term(rng, depth=2):
    """A body term: variables (often repeated), leaves, nested apps."""
    if depth == 0 or rng.random() < 0.45:
        if rng.random() < 0.55:
            return rng.choice(_VARS)
        return rng.choice(_LEAVES + _NEVER_INTERNED)
    return _app(rng.choice(_HEADS), [_random_term(rng, depth - 1) for _ in range(3)])


def _random_atom(rng):
    roll = rng.random()
    if roll < 0.45:
        return Eq(_random_term(rng), _random_term(rng))
    if roll < 0.9:
        name, arity = rng.choice(_PREDS)
        return Pred(name, tuple(_random_term(rng) for _ in range(arity)))
    return rng.choice([TrueF(), FalseF()])


def _random_body(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        atom = _random_atom(rng)
        return Not(atom) if rng.random() < 0.3 else atom
    kind = rng.choice((Or, Or, And, Not))
    if kind is Not:
        return Not(_random_body(rng, depth - 1))
    return kind(tuple(_random_body(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def _random_ops(rng, length):
    ops = []
    for _ in range(length):
        kind = rng.choice(_OPS)
        if kind == "intern":
            term = _random_ground(rng)
            if rng.random() < 0.3:
                name, arity = rng.choice(_PREDS[:2])
                term = App(name, tuple(_random_ground(rng, 1) for _ in range(arity)))
            ops.append((kind, term))
        elif kind in ("eq", "diseq"):
            ops.append((kind, rng.randrange(64), rng.randrange(64)))
        elif kind == "check":
            choices = tuple(rng.randrange(64) for _ in _VARS)
            ops.append((kind, _random_body(rng), choices))
        else:
            ops.append((kind,))
    return ops


def _run_ops(ops):
    """Apply ``ops`` to one E-graph, comparing both evaluators on every
    ``check``. Returns the widths seen."""
    egraph = EGraph()
    marks = []
    nodes = [egraph.TRUE, egraph.FALSE]
    widths = []
    for op in ops:
        kind = op[0]
        if kind == "intern":
            nodes.append(egraph.intern(op[1]))
        elif kind in ("eq", "diseq"):
            x, y = nodes[op[1] % len(nodes)], nodes[op[2] % len(nodes)]
            if kind == "eq":
                egraph.assert_eq(x, y)
            else:
                egraph.assert_diseq(x, y)
        elif kind == "push":
            marks.append(egraph.push())
        elif kind == "pop":
            if marks:
                egraph.pop(marks.pop())
        else:
            binding = {
                var.name: nodes[choice % len(nodes)]
                for var, choice in zip(_VARS, op[2])
            }
            widths.append(assert_agrees(egraph, op[1], binding))
    return widths


class TestOracle:
    def test_seeded_sequences_agree(self):
        widths = set()
        for seed in range(150):
            rng = random.Random(seed)
            widths.update(_run_ops(_random_ops(rng, rng.randrange(10, 60))))
        # Redundant, refuted, unit and wider candidates were all exercised.
        assert {-1, 0, 1, 2} <= widths

    if given is not None:

        @settings(max_examples=150, deadline=None)
        @given(st.integers(0, 2**32 - 1), st.integers(5, 60))
        def test_hypothesis_sequences_agree(self, seed, length):
            rng = random.Random(seed)
            _run_ops(_random_ops(rng, length))

    def test_orphan_node_from_a_popped_branch(self):
        """``f(b)`` is created in a branch where ``a = b`` and merged with
        ``f(a)`` there; after the pop it is an orphan, so an instance that
        names it resolves to the orphan, not by congruence."""
        egraph = EGraph()
        na, nb = egraph.intern(a), egraph.intern(b)
        fa = egraph.intern(App("f", (a,)))
        egraph.assert_eq(egraph.intern(App("p", (App("f", (a,)),))), egraph.TRUE)
        assert egraph.assert_eq(na, nb)
        body = Pred("p", (App("f", (X,)),))
        assert assert_agrees(egraph, body, {"X": nb}) == -1  # by congruence
        mark = egraph.push()
        fb = egraph.intern(App("f", (b,)))
        assert egraph.are_equal(fa, fb)
        egraph.pop(mark)
        assert egraph.lookup(App("f", (b,))) == fb  # the node survives
        assert egraph.are_equal(na, nb)
        assert not egraph.are_equal(fa, fb)  # orphaned
        assert assert_agrees(egraph, body, {"X": nb}) == 1

    def test_repeated_variables_and_never_interned_constants(self):
        egraph = EGraph()
        nodes = [egraph.intern(t) for t in (a, b, App("g", (a, a)))]
        egraph.assert_diseq(nodes[2], egraph.intern(c))
        body = Or(
            (
                Not(Eq(App("g", (X, X)), c)),
                Eq(App("g", (X, Y)), Const("z")),
                Pred("p", (IntLit(7),)),
            )
        )
        assert assert_agrees(egraph, body, {"X": nodes[0], "Y": nodes[0]}) == -1
        assert assert_agrees(egraph, body, {"X": nodes[1], "Y": nodes[0]}) == 3


class CrossCheckedSolver(Solver):
    """A solver that evaluates every candidate both ways: its compiled
    width functions also run the reference on the built instance."""

    #: Candidates compared by every ``CrossCheckedSolver`` since the last reset.
    compared = 0

    def _width_of(self, record):
        width, parameters = super()._width_of(record)
        quantifier = record.formula

        def checked(egraph, parameters, nodes):
            count = egraph.node_count
            got = width(egraph, parameters, nodes)
            binding = dict(zip(quantifier.vars, nodes))
            want = reference_width(
                egraph, instance_of(egraph, quantifier.body, binding)
            )
            assert got == want, (quantifier.body, binding)
            assert egraph.node_count == count
            CrossCheckedSolver.compared += 1
            return got

        return checked, parameters


def _corpus():
    pattern = os.path.join(ROOT, "examples", "**", "*.oolong")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            yield os.path.relpath(path, ROOT), handle.read()
    yield from PAPER_PROGRAMS.items()
    yield "farm-1x12", generate_impl_farm(1, 12)
    yield "tower-4", generate_pivot_tower(4)
    yield "chain-6", generate_call_chain(6)


CORPUS = dict(_corpus())


def _search(source):
    rows = []
    for verdict in check_program(source, LIMITS).verdicts:
        stats = verdict.stats.to_dict()
        del stats["elapsed"]
        rows.append((verdict.impl.name, verdict.index, verdict.status, stats))
    return rows


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_solver_candidates_agree_with_reference(name, monkeypatch):
    expected = _search(CORPUS[name])
    monkeypatch.setattr(core, "Solver", CrossCheckedSolver)
    monkeypatch.setattr(CrossCheckedSolver, "compared", 0)
    assert _search(CORPUS[name]) == expected
    if any(row[3]["matches"] for row in expected):
        assert CrossCheckedSolver.compared > 0


# ----------------------------------------------------------------------
# The early end of a round
# ----------------------------------------------------------------------


class WholeRoundSolver(Solver):
    """The round without its early end: gather every candidate, sort
    them by (width, gather index), then assert."""

    def _instantiate_round(self, state, width_limit=None):
        if width_limit is None:
            width_limit = self.limits.max_instance_width
        candidates = []
        for record in list(state.quants):
            if record.matchers is None:
                record.compile()
            quantifier = record.formula
            effective_limit = width_limit
            if quantifier.width_cap is not None:
                effective_limit = min(width_limit, quantifier.width_cap)
            width_of, width_parameters = self._width_of(record)
            for matcher, parameters in record.matchers:
                matches = 0
                for nodes in matcher(self.egraph, parameters):
                    matches += 1
                    if self._out_of_time():
                        self._count_matches(quantifier, matches)
                        return "resource"
                    if matches > self.limits.max_matches_per_round:
                        break
                    if nodes is None:
                        continue
                    key = (record.ident, nodes)
                    if key in self._seen or key in self._redundant:
                        continue
                    width = width_of(self.egraph, width_parameters, nodes)
                    if width < 0:
                        self._remember(self._redundant, key)
                        continue
                    if width > effective_limit:
                        continue
                    candidates.append(
                        (width, len(candidates), key, record, effective_limit)
                    )
                if matches:
                    self._count_matches(quantifier, matches)
        candidates.sort(key=lambda c: (c[0], c[1]))
        return self._admit(candidates, state)


def _one_round(solver_class):
    """One round over ``s(a1) … s(a3), s(b), s(c1), s(c2)`` for
    ``∀X. p(X)`` with ``¬p(b)``: three unit candidates, then a refuted
    one, then two more units. Returns the solver and the round's outcome."""
    solver = solver_class(Limits(time_budget=30.0), explain=True)
    for name in ("a1", "a2", "a3", "b", "c1", "c2"):
        solver.add(Pred("s", (Const(name),)))
    solver.add(Not(Pred("p", (b,))))
    solver.add(Forall(("X",), Pred("p", (X,)), ((App("s", (X,)),),), "all-p"))
    state = core._State()
    for fact in solver._facts:
        assert solver._assert(fact, state)
    return solver, solver._instantiate_round(state)


def test_round_ends_at_its_first_refuted_candidate():
    early, outcome = _one_round(Solver)
    whole, whole_outcome = _one_round(WholeRoundSolver)
    assert outcome == whole_outcome == "conflict"
    assert early.stats.per_quantifier == whole.stats.per_quantifier == {"all-p": 1}
    assert early._journal == whole._journal
    assert [step.kind for step in early._journal] == ["instance", "close"]
    assert early._journal[0].formula == Pred("p", (b,))
    assert early.stats.matches == 4 < whole.stats.matches == 6


@pytest.mark.parametrize(
    "name", ["examples/stack.oolong", "EX-3.1-w", "farm-1x12", "chain-6"]
)
def test_early_end_changes_only_the_match_counters(name, monkeypatch):
    expected = _search(CORPUS[name])
    monkeypatch.setattr(core, "Solver", WholeRoundSolver)
    whole = _search(CORPUS[name])
    assert len(expected) == len(whole)
    for row, whole_row in zip(expected, whole):
        stats, whole_stats = dict(row[3]), dict(whole_row[3])
        assert stats["matches"] <= whole_stats["matches"]
        for counter in ("matches", "matches_by_quantifier"):
            del stats[counter], whole_stats[counter]
        assert row[:3] + (stats,) == whole_row[:3] + (whole_stats,)
