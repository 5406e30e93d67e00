"""The solver's branch-scoped memo of redundant instances is sound.

Within a branch a candidate instance that already evaluates to true
(width −1) is remembered and not evaluated again, on the grounds that the
E-graph only grows there. ``CheckedSolver`` builds the instance of every
memoized candidate and re-evaluates it with the reference evaluator of
``tests/test_bound_width.py`` instead of trusting the memo, and fails if
one is no longer redundant; it runs over the examples, the paper's
programs and generated farms, towers and call chains. It skips what it
has confirmed, so its search is the real one: every verdict and counter
must match a plain run.
"""

import glob
import os

import pytest

import repro.prover.core as core
from repro.api import check_program
from repro.corpus.generators import (
    generate_call_chain,
    generate_impl_farm,
    generate_pivot_tower,
)
from repro.corpus.programs import PAPER_PROGRAMS
from repro.logic.terms import App, Const, Eq, Forall, Not, Or, Pred, Var
from repro.prover.core import Limits, Solver, Verdict
from tests.test_bound_width import instance_of, reference_width

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMITS = Limits(time_budget=300.0)


class _CheckedKeys(set):
    """A key set whose membership test builds the key's instance and
    re-checks, with the reference evaluator, that it still has width −1
    before confirming it. A key is the quantifier's integer and the
    witness nodes; the solver's ``_quantifiers`` maps the integer back."""

    def __init__(self, solver):
        super().__init__()
        self.solver = solver

    def __contains__(self, key):
        if not set.__contains__(self, key):
            return False
        ident, nodes = key
        quantifier = self.solver._quantifiers[ident]
        egraph = self.solver.egraph
        binding = dict(zip(quantifier.vars, nodes))
        instance = instance_of(egraph, quantifier.body, binding)
        width = reference_width(egraph, instance)
        assert width == -1, (key, width)
        CheckedSolver.confirmed += 1
        return True


class CheckedSolver(Solver):
    """A solver that re-evaluates memoized redundant candidates."""

    #: Memo hits confirmed by every ``CheckedSolver`` since the last reset.
    confirmed = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._redundant = _CheckedKeys(self)


def _corpus():
    pattern = os.path.join(ROOT, "examples", "**", "*.oolong")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            yield os.path.relpath(path, ROOT), handle.read()
    yield from PAPER_PROGRAMS.items()
    yield "farm-1x12", generate_impl_farm(1, 12)
    yield "farm-1x24", generate_impl_farm(1, 24)
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
def test_memoized_instances_stay_redundant(name, monkeypatch):
    expected = _search(CORPUS[name])
    monkeypatch.setattr(core, "Solver", CheckedSolver)
    assert _search(CORPUS[name]) == expected


def test_checked_solver_confirms_memo_hits(monkeypatch):
    # A farm no longer runs an E-matching round: the inclusion lookup
    # decides its frame. The tower's pivot chains still need rounds.
    monkeypatch.setattr(core, "Solver", CheckedSolver)
    monkeypatch.setattr(CheckedSolver, "confirmed", 0)
    check_program(CORPUS["tower-4"], LIMITS)
    assert CheckedSolver.confirmed > 0


class UnmemoizedSolver(Solver):
    """The search without the memo: every candidate is evaluated."""

    def _remember(self, keys, key):
        if keys is not self._redundant:
            super()._remember(keys, key)


class _KeptKeys(set):
    def clear(self):
        pass


class UnclearedSolver(Solver):
    """A solver that keeps its memo across pops that orphaned nodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._redundant = _KeptKeys()


class LeakySolver(Solver):
    """A solver whose redundant memo outlives the branch that made it."""

    def _remember(self, keys, key):
        if keys is self._redundant:
            keys.add(key)
        else:
            super()._remember(keys, key)


def _split_then_instantiate(solver_class):
    """Facts whose refutation needs an instance that is redundant in the
    first branch of a split and unit-propagating in the second.

    The split is on ``p(a) ∨ q``. Quantifier ``one`` gives ``p(a) ∨ r(a)``,
    already true in branch ``p(a)``; quantifier ``two`` gives ``¬p(a)``,
    which closes that branch. In branch ``q``, ``r(a)`` is false, so
    ``p(a) ∨ r(a)`` propagates ``p(a)`` and ``¬p(a)`` closes the branch —
    if the instance is considered at all.
    """
    a, X = Const("a"), Var("X")
    trigger = ((App("s", (X,)),),)
    solver = solver_class(Limits(time_budget=30.0))
    solver.add(Pred("s", (a,)))
    solver.add(Not(Pred("r", (a,))))
    solver.add(Or((Pred("p", (a,)), Pred("q", ()))))
    solver.add(
        Forall(("X",), Or((Pred("p", (X,)), Pred("r", (X,)))), trigger, "one")
    )
    solver.add(Forall(("X",), Not(Pred("p", (X,))), trigger, "two"))
    return solver.check()


def test_redundant_only_inside_a_branch_is_reconsidered_after_pop():
    result = _split_then_instantiate(Solver)
    assert result.verdict is Verdict.UNSAT
    assert result.stats.branches == 2
    assert result.stats.per_quantifier == {"one": 1, "two": 2}
    # The case is sharp: a memo that survives the pop loses the proof.
    assert _split_then_instantiate(LeakySolver).verdict is Verdict.SAT


def _orphaned_lookup(solver_class):
    """Facts where a popped branch orphans the node a memoized lookup
    resolves to.

    With ``a = b`` and ``P(f(a))``, the instance ``P(f(b))`` of ``held``
    is true by congruence although ``f(b)`` is not interned. Branch
    ``e = m(b)`` of the split interns ``f(b)`` (through ``grow``) and
    closes; its pop undoes the merge of ``f(b)`` with ``f(a)`` but keeps
    the node. In branch ``q(b)``, ``P(f(b))`` then looks up the orphan,
    evaluates to unknown, and is instantiated.
    """
    a, b, d, e = Const("a"), Const("b"), Const("d"), Const("e")
    X, Y = Var("X"), Var("Y")

    def f(t):
        return App("f", (t,))

    def g(t):
        return App("g", (t,))

    def m(t):
        return App("m", (t,))

    on_s = ((App("s", (X,)),),)
    solver = solver_class(Limits(time_budget=30.0))
    solver.add(Pred("s", (b,)))
    solver.add(Pred("k", (e,)))
    solver.add(Eq(a, b))
    solver.add(Pred("P", (f(a),)))
    solver.add(Forall(("X",), Pred("P", (f(X),)), on_s, "held"))
    solver.add(Forall(("X",), Or((Eq(e, m(X)), Pred("q", (X,)))), on_s, "split"))
    solver.add(Forall(("X",), Eq(g(f(X)), d), ((App("k", (m(X),)),),), "grow"))
    solver.add(Forall(("Y",), Not(Eq(g(Y), d)), ((App("g", (Y,)),),), "close"))
    stats = solver.check().stats.to_dict()
    del stats["elapsed"]
    return stats


def test_memo_is_dropped_when_a_popped_branch_created_nodes():
    expected = _orphaned_lookup(UnmemoizedSolver)
    assert expected["per_quantifier"]["held"] == 1
    assert _orphaned_lookup(Solver) == expected
    # Without the drop, the memo skips the instance the search makes.
    assert "held" not in _orphaned_lookup(UnclearedSolver)["per_quantifier"]
