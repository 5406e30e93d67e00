"""Ground local inclusion is decided by lookup in the E-graph.

BP_D states the local inclusion ``≼`` of a scope as ground ``linc(a, b)``
facts, and UBP's ``inc-local`` axiom lifts it into the main inclusion
``inc``. Once both are facts outside any branch, the E-graph decides
``inc(s, x, a, y, b)`` itself whenever ``x`` and ``y`` share a class and
``(a, b)`` is a registered pair, and the solver asserts it true without
an E-matching round. In explain mode each decision is journaled as the
``inc-local`` instance it stands for, so the replay kernel, which has no
lookup, still checks every proof.

Each test below fails on a mutation of the rule: firing for objects in
different classes or for an unregistered pair, registering a ``linc``
asserted inside a branch, not undoing a registration on pop, journaling
nothing, or deciding differently in a forked ``-j`` worker.
"""

import glob
import os

import pytest

from repro.api import check_program
from repro.corpus.generators import (
    generate_impl_farm,
    generate_pivot_tower,
)
from repro.corpus.programs import PAPER_PROGRAMS
from repro.logic.terms import Const, Forall, Not, Or, Pred, TrueF
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover import core
from repro.prover.core import Background, Limits, Solver, Verdict, prove_valid
from repro.prover.egraph import EGraph
from repro.prover.prooflog import STEP_FACT, ProofStep, replay_proof_log
from repro.vcgen.background import universal_background
from repro.vcgen.checker import ImplStatus, check_scope
from repro.vcgen.vocab import INC, inc, inc_t, linc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMITS = Limits(time_budget=300.0)

S = Const("$0")
X, Y = Const("x"), Const("y")
F, G, STRAY = Const("attr$f"), Const("attr$g"), Const("attr$stray")


def _inc_local():
    (axiom,) = [
        f
        for f in universal_background()
        if isinstance(f, Forall) and f.name == "inc-local"
    ]
    return axiom


def _graph_with_pair():
    """An E-graph with ``linc(g, f)`` registered."""
    egraph = EGraph()
    egraph.register_inclusion(INC, egraph.intern(G), egraph.intern(F))
    return egraph


# ----------------------------------------------------------------------
# The E-graph rule
# ----------------------------------------------------------------------


def test_same_object_and_registered_pair_is_decided():
    egraph = _graph_with_pair()
    node = egraph.intern(inc_t(S, X, G, X, F))
    assert egraph.take_inclusions() == [
        (node, egraph.intern(G), egraph.intern(F))
    ]
    assert egraph.take_inclusions() == []


def test_objects_in_different_classes_are_not_decided_until_merged():
    egraph = _graph_with_pair()
    node = egraph.intern(inc_t(S, X, G, Y, F))
    assert egraph.take_inclusions() == []
    # The merge that unites the objects walks the node as a parent.
    assert egraph.assert_eq(egraph.intern(X), egraph.intern(Y))
    assert [decided for decided, _, _ in egraph.take_inclusions()] == [node]


def test_unregistered_pair_is_not_decided():
    egraph = _graph_with_pair()
    egraph.intern(inc_t(S, X, G, X, STRAY))
    egraph.intern(inc_t(S, X, F, X, G))  # the pair, reversed
    assert egraph.take_inclusions() == []


def test_attributes_congruent_to_a_pair_are_decided():
    egraph = _graph_with_pair()
    other = Const("attr$h")
    node = egraph.intern(inc_t(S, X, G, X, other))
    assert egraph.take_inclusions() == []
    assert egraph.assert_eq(egraph.intern(other), egraph.intern(F))
    assert [decided for decided, _, _ in egraph.take_inclusions()] == [node]


def test_pop_restores_the_state():
    egraph = EGraph()
    mark = egraph.push()
    egraph.register_inclusion(INC, egraph.intern(G), egraph.intern(F))
    node = egraph.intern(inc_t(S, X, G, X, F))
    ((decided, _, _),) = egraph.take_inclusions()
    assert egraph.assert_eq(decided, egraph.TRUE)
    egraph.pop(mark)
    assert egraph.truth(node) is None
    # The registration is undone too: a merge that walks the node again
    # decides nothing.
    assert egraph.assert_eq(egraph.intern(X), egraph.intern(Y))
    assert egraph.take_inclusions() == []


def test_a_copy_carries_the_pairs():
    egraph = _graph_with_pair()
    clone = egraph.copy()
    clone.intern(inc_t(S, X, G, X, F))
    assert len(clone.take_inclusions()) == 1
    assert egraph.take_inclusions() == []


# ----------------------------------------------------------------------
# The solver: where pairs come from, and what a decision costs
# ----------------------------------------------------------------------


def _solver(facts, goal, explain=True):
    solver = Solver(LIMITS, explain=explain)
    for fact in facts:
        solver.add(fact)
    solver.add_negated_goal(goal)
    return solver


def test_ground_fact_decides_without_instances():
    solver = _solver([_inc_local(), linc(G, F)], inc(S, X, G, X, F))
    result = solver.check()
    assert result.verdict is Verdict.UNSAT
    assert result.stats.inclusion_lookups == 1
    assert result.stats.instantiations == 0
    assert replay_proof_log(result.proof_log).ok


def test_linc_inside_a_branch_registers_nothing():
    # The pair only holds on a branch: E-matching must prove the goal on
    # it, and the other branch refutes the goal from its own fact.
    branch = Or((linc(G, F), inc(S, X, G, X, F)))
    solver = _solver([_inc_local(), branch], inc(S, X, G, X, F))
    result = solver.check()
    assert result.verdict is Verdict.UNSAT
    assert result.stats.inclusion_lookups == 0
    assert result.stats.per_quantifier == {"inc-local": 1}
    assert not solver.egraph._included
    assert replay_proof_log(result.proof_log).ok


def test_no_lookup_without_the_axiom():
    solver = _solver([linc(G, F)], inc(S, X, G, X, F))
    result = solver.check()
    assert result.verdict is Verdict.SAT
    assert result.stats.inclusion_lookups == 0


def test_a_background_the_lookup_decides_in_is_asserted_in_full():
    # The resumed journal is rebuilt from a background's facts alone, so
    # a background whose own facts the lookup decided is not stored.
    marker = Pred("p", ())
    clause = Or((Not(inc(S, X, G, X, F)), marker))
    background = Background([_inc_local(), linc(G, F), clause])
    assert not background.prepare(LIMITS)
    for _ in range(2):
        result = prove_valid([], marker, LIMITS, explain=True, background=background)
        assert result.verdict is Verdict.UNSAT
        assert result.stats.inclusion_lookups == 1
        assert replay_proof_log(result.proof_log).ok


STRAY_SOURCE = """
group data
field f in data
field stray
proc p(t) modifies t.data
impl p(t) { assume t != null ; t.stray := 1 }
proc q(t) modifies t.data
impl q(t) { assume t != null ; t.f := 1 }
"""


def test_a_field_in_no_group_is_not_licensed():
    report = check_program(STRAY_SOURCE, LIMITS)
    status = {v.impl.name: v.status for v in report.verdicts}
    assert status == {"p": ImplStatus.NOT_PROVED, "q": ImplStatus.VERIFIED}
    lookups = {v.impl.name: v.stats.inclusion_lookups for v in report.verdicts}
    assert lookups == {"p": 0, "q": 1}


def test_a_farm_needs_no_round():
    report = check_program(generate_impl_farm(1, 24), LIMITS)
    (verdict,) = report.verdicts
    assert verdict.status is ImplStatus.VERIFIED
    assert verdict.stats.inclusion_lookups == 24
    assert verdict.stats.instantiations == 0
    assert verdict.stats.rounds == 0


# ----------------------------------------------------------------------
# Explain mode: every decision is journaled and replays
# ----------------------------------------------------------------------


def _replay_corpus():
    pattern = os.path.join(ROOT, "examples", "**", "*.oolong")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            yield os.path.relpath(path, ROOT), handle.read()
    for name, source in PAPER_PROGRAMS.items():
        if name != "EX-3.0-client":
            yield name, source
    yield "farm-2x8", generate_impl_farm(2, 8)
    yield "tower-3", generate_pivot_tower(3)


REPLAY_CORPUS = dict(_replay_corpus())


def _lookup_steps(log):
    return sum(
        1
        for step in log.steps
        if step.kind == "instance" and step.quantifier.name == "inc-local"
    )


@pytest.mark.parametrize("name", sorted(REPLAY_CORPUS))
def test_every_proof_replays(name):
    report = check_program(REPLAY_CORPUS[name], LIMITS, explain=True)
    for verdict in report.verdicts:
        if verdict.status is not ImplStatus.VERIFIED:
            continue
        log = verdict.explanation.proof_log
        replay = replay_proof_log(log)
        assert replay.ok, f"{verdict.impl.name}: {replay.error}"
        # Lookups on abandoned branches leave no step in the log.
        assert _lookup_steps(log) <= (
            verdict.stats.inclusion_lookups
            + verdict.stats.per_quantifier.get("inc-local", 0)
        )


def test_the_corpus_exercises_the_lookup():
    lookups = 0
    for source in REPLAY_CORPUS.values():
        for verdict in check_program(source, LIMITS).verdicts:
            lookups += verdict.stats.inclusion_lookups
    assert lookups > 0


def test_a_lookup_that_skips_journaling_fails_replay(monkeypatch):
    # Journal a no-op fact where the lookup's instance belongs.
    monkeypatch.setattr(
        core._InclusionLookup,
        "instance",
        lambda self, witnesses: ProofStep(STEP_FACT, formula=TrueF()),
    )
    report = check_program(generate_impl_farm(1, 4), LIMITS, explain=True)
    (verdict,) = report.verdicts
    assert verdict.status is ImplStatus.VERIFIED
    replay = replay_proof_log(verdict.explanation.proof_log)
    assert not replay.ok
    assert "(close)" in replay.error


# ----------------------------------------------------------------------
# Forked -j workers inherit the pairs
# ----------------------------------------------------------------------


def _rows(report):
    rows = []
    for verdict in report.verdicts:
        stats = verdict.stats.to_dict()
        del stats["elapsed"]
        rows.append((verdict.impl.name, verdict.index, verdict.status, stats))
    return rows


def test_parallel_equals_serial():
    scope = Scope.from_source(generate_impl_farm(6, 8))
    check_well_formed(scope)
    serial = check_scope(scope, LIMITS)
    parallel = check_scope(scope, LIMITS, parallel=2)
    assert _rows(parallel) == _rows(serial)
    assert all(v.stats.inclusion_lookups == 8 for v in parallel.verdicts)
