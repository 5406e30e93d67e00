"""The background predicate is asserted once and resumed from.

UBP is the same for every program and ``BP_D`` depends only on the
scope, so the prover asserts UBP once per process and ``BP_D`` once per
scope (:class:`repro.prover.core.Background`): a scope's background
extends the process's UBP background, and every later solver starts from
a copy of the state they built. Resuming must be indistinguishable from
asserting every hypothesis from scratch: the same verdict, every
``ProverStats`` counter but ``elapsed``, the same proof log (which still
replays) and the same countermodel.

A background can also be prepared up front (``Background.prepare``), as
the ``-j`` supervisor does before it forks its workers. A solver that
resumes from a background prepared that way must be indistinguishable
from one that prepared it itself, and a prepare that runs out of time or
raises must store nothing.

Serial, ``-j`` and fleet checks are held to identical reports by
``tests/test_pipeline.py``; the search-identity golden pins the counters
of the same corpus against the code before this change.
"""

import os
import pickle
import time

import pytest

from repro.api import parse_program
from repro.corpus.generators import generate_impl_farm
from repro.logic.terms import Const, Eq, Exists, Forall, Not, Pred, Var
from repro.oolong.contracts import desugar_contracts
from repro.parallel import ParallelOptions, run_parallel_checks
from repro.prover import core
from repro.prover.core import Background, Limits, Verdict, prove_valid
from repro.prover.prooflog import replay_proof_log
from repro.testing.faults import Fault, FaultPlan, inject
from repro.vcgen import vc
from repro.vcgen.background import universal_background
from repro.vcgen.checker import ImplStatus, check_scope
from repro.vcgen.vc import scope_background_of, vc_for_impl
from tests.test_pipeline import _canonical
from tests.test_search_identity import LIMITS, corpus


def _scope(source):
    return desugar_contracts(parse_program(source))


def _impls(scope):
    return [impl for impls in scope.impls.values() for impl in impls]


def _fingerprint(result):
    stats = result.stats.to_dict()
    del stats["elapsed"]
    return result.verdict, stats, result.proof_log, result.countermodel


def _assert_resumes_like_scratch(bundle, explain):
    resumed = bundle.prove(LIMITS, explain=explain)
    scratch = prove_valid(bundle.hypotheses, bundle.goal, LIMITS, explain=explain)
    assert _fingerprint(resumed) == _fingerprint(scratch), bundle.impl.name
    if explain and resumed.proof_log is not None:
        assert replay_proof_log(resumed.proof_log).ok, bundle.impl.name


CORPUS = list(corpus())


class _CountingBackground(Background):
    """A background that counts the states stored on it."""

    def __init__(self, formulas):
        self.stores = 0
        super().__init__(formulas)

    @property
    def _prepared(self):
        return self.__dict__["_state"]

    @_prepared.setter
    def _prepared(self, state):
        self.stores += state is not None
        self.__dict__["_state"] = state


def _fresh_ubp(monkeypatch):
    """A new, unprepared process UBP background, counting its stores."""
    ubp = _CountingBackground(universal_background())
    monkeypatch.setattr(vc, "_UNIVERSAL", ubp)
    return ubp


def _each_ubp(monkeypatch):
    """A new process UBP background, unprepared and then prepared: the
    first scope checked prepares it, or resumes from it."""
    yield _fresh_ubp(monkeypatch)
    ubp = _fresh_ubp(monkeypatch)
    assert ubp.prepare(LIMITS)
    yield ubp


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
@pytest.mark.parametrize("name,source", CORPUS, ids=[name for name, _ in CORPUS])
def test_resuming_equals_asserting_from_scratch(name, source, explain, monkeypatch):
    for ubp in _each_ubp(monkeypatch):
        scope = _scope(source)
        assert scope_background_of(scope).base is ubp
        impls = _impls(scope)
        # The first check prepares the background (and must itself match
        # asserting from scratch); the second resumes every implementation.
        for _ in range(2):
            for impl in impls:
                bundle = vc_for_impl(scope, impl)
                shared = bundle.hypotheses[: len(bundle.background.formulas)]
                assert shared == list(bundle.background.formulas)
                _assert_resumes_like_scratch(bundle, explain)
                assert scope.vc_background._prepared is not None
        assert ubp.stores == 1


def test_ubp_is_prepared_once_per_process(monkeypatch):
    ubp = _fresh_ubp(monkeypatch)
    sources = [generate_impl_farm(2, 3), generate_impl_farm(1, 5)]
    sources.append(dict(CORPUS)["examples/failing/bad_call.oolong"])
    for source in sources + sources:
        scope = _scope(source)
        check_scope(scope, LIMITS)
        assert scope.vc_background._prepared is not None
    assert ubp.stores == 1
    # Preparing a scope's background resumes from it too.
    assert scope_background_of(_scope(generate_impl_farm(3, 2))).prepare(LIMITS)
    assert ubp.stores == 1


def _solver_background():
    """A background that skolemizes (``hyp.x!1``) and has a quantifier
    without triggers, and a VC whose own hypothesis draws the next name
    of the same prefix."""
    x = Var("x")
    background = [
        Exists(("x",), Pred("p", (x,))),
        Pred("q", (Const("a"),)),
        Forall(("x",), Eq(x, Const("a"))),
    ]
    own = [Exists(("x",), Not(Pred("p", (x,))))]
    goal = Pred("r", (Const("a"),))
    return background, own, goal


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_resumed_names_continue_the_backgrounds(explain):
    shared, own, goal = _solver_background()
    background = Background(shared)
    scratch = prove_valid(shared + own, goal, LIMITS, explain=explain)
    for _ in range(3):
        result = prove_valid(own, goal, LIMITS, explain=explain, background=background)
        assert background._prepared is not None
        assert _fingerprint(result) == _fingerprint(scratch)
    assert scratch.verdict is Verdict.SAT
    assert scratch.stats.unmatchable_quantifiers == 1


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_a_background_that_closes_stays_closed(explain):
    a = Const("a")
    shared = [Pred("p", (a,)), Not(Pred("p", (a,))), Pred("q", (a,))]
    own = [Pred("s", (a,))]
    goal = Pred("r", (a,))
    background = Background(shared)
    scratch = prove_valid(shared + own, goal, LIMITS, explain=explain)
    assert scratch.verdict is Verdict.UNSAT
    for _ in range(2):
        result = prove_valid(own, goal, LIMITS, explain=explain, background=background)
        assert background._prepared.closed
        assert _fingerprint(result) == _fingerprint(scratch)
        if explain:
            assert replay_proof_log(result.proof_log).ok


def test_prepared_state_never_crosses_a_pickle():
    scope = _scope(generate_impl_farm(2, 3))
    check_scope(scope, LIMITS)
    assert scope.vc_background._prepared is not None
    copied = pickle.loads(pickle.dumps(scope))
    assert copied.vc_background is None
    assert check_scope(copied, LIMITS).ok


class TestDeadlineDuringBackground:
    def test_spent_budget_is_resource_out_and_prepares_nothing(self, monkeypatch):
        for ubp in _each_ubp(monkeypatch):
            prepared = ubp._prepared
            scope = _scope(generate_impl_farm(2, 3))
            spent = Limits(time_budget=-1.0)
            bundle = vc_for_impl(scope, _impls(scope)[0])
            result = bundle.prove(spent)
            assert result.verdict is Verdict.RESOURCE_OUT
            # What asserting every hypothesis from scratch gives, as before
            # the background was shared.
            scratch = prove_valid(bundle.hypotheses, bundle.goal, spent)
            assert _fingerprint(result) == _fingerprint(scratch)
            report = check_scope(scope, spent)
            for verdict in report.verdicts:
                assert verdict.status is ImplStatus.RESOURCE_OUT
                assert verdict.error is None
            assert scope.vc_background._prepared is None
            assert ubp._prepared is prepared
            report = check_scope(scope, LIMITS)
            assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)
            assert scope.vc_background._prepared is not None
            assert ubp.stores == 1

    def test_scope_budget_expiring_in_the_background_is_ol901(self):
        scope = _scope(generate_impl_farm(2, 3))
        limits = Limits(time_budget=60.0, scope_time_budget=0.05)
        # Vcgen of the first impl outlasts the scope budget, so its
        # prover starts past the deadline, before the first fact.
        plan = FaultPlan((Fault("vcgen", "delay", hit=0, delay=0.1),))
        with inject(plan):
            report = check_scope(scope, limits)
        first, second = report.verdicts
        assert first.status is ImplStatus.TIMED_OUT
        assert first.error.code == "OL901"
        assert "while this implementation was being checked" in first.error.message
        assert second.status is ImplStatus.TIMED_OUT
        assert "before this implementation was checked" in second.error.message
        assert scope.vc_background._prepared is None
        report = check_scope(scope, LIMITS)
        assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)
        assert scope.vc_background._prepared is not None


# ----------------------------------------------------------------------
# Preparing up front
# ----------------------------------------------------------------------


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
@pytest.mark.parametrize("name,source", CORPUS, ids=[name for name, _ in CORPUS])
def test_preparing_up_front_equals_preparing_in_the_first_solver(
    name, source, explain
):
    warm, cold = _scope(source), _scope(source)
    background = scope_background_of(warm)
    assert background.prepare(LIMITS)
    assert all(record.matchers is not None for record in background._prepared.quants)
    for warm_impl, cold_impl in zip(_impls(warm), _impls(cold)):
        resumed = vc_for_impl(warm, warm_impl).prove(LIMITS, explain=explain)
        prepared_itself = vc_for_impl(cold, cold_impl).prove(LIMITS, explain=explain)
        assert _fingerprint(resumed) == _fingerprint(prepared_itself), warm_impl.name
    assert cold.vc_background._prepared is not None


def test_a_second_prepare_does_nothing(monkeypatch):
    background = scope_background_of(_scope(generate_impl_farm(2, 3)))
    assert background.prepare(LIMITS)
    prepared = background._prepared
    matchers = [record.matchers for record in prepared.quants]

    def no_solver(*args, **kwargs):
        raise AssertionError("a prepared background built a solver")

    monkeypatch.setattr(core, "Solver", no_solver)
    assert background.prepare(LIMITS)
    assert background._prepared is prepared
    assert [record.matchers for record in prepared.quants] == matchers


def test_a_background_that_closes_prepares_closed():
    a = Const("a")
    background = Background([Pred("p", (a,)), Not(Pred("p", (a,)))])
    assert background.prepare(LIMITS)
    assert background._prepared.closed
    result = prove_valid([], Pred("r", (a,)), LIMITS, background=background)
    assert result.verdict is Verdict.UNSAT


class TestPrepareStoresNothing:
    """Neither on the scope's background nor on a UBP it prepares."""

    @pytest.mark.parametrize(
        "limits",
        [
            Limits(time_budget=-1.0),
            Limits(time_budget=60.0, scope_deadline=time.monotonic() - 1.0),
        ],
        ids=["time-budget", "scope-deadline"],
    )
    def test_past_its_deadline(self, limits, monkeypatch):
        for ubp in _each_ubp(monkeypatch):
            prepared = ubp._prepared
            background = scope_background_of(_scope(generate_impl_farm(2, 3)))
            assert not background.prepare(limits)
            assert background._prepared is None
            assert ubp._prepared is prepared
            assert background.prepare(LIMITS)
            assert ubp.stores == 1

    def test_when_asserting_raises(self, monkeypatch):
        def broken(self, formula, state):
            raise RuntimeError("assert failed")

        for ubp in _each_ubp(monkeypatch):
            prepared = ubp._prepared
            background = scope_background_of(_scope(generate_impl_farm(2, 3)))
            with monkeypatch.context() as patch:
                patch.setattr(core.Solver, "_assert", broken)
                with pytest.raises(RuntimeError):
                    background.prepare(LIMITS)
            assert background._prepared is None
            assert ubp._prepared is prepared

    def test_when_compiling_raises(self, monkeypatch):
        def broken(self):
            raise RuntimeError("compile failed")

        for ubp in _each_ubp(monkeypatch):
            prepared = ubp._prepared
            background = scope_background_of(_scope(generate_impl_farm(2, 3)))
            with monkeypatch.context() as patch:
                patch.setattr(core._QuantRecord, "compile", broken)
                with pytest.raises(RuntimeError):
                    background.prepare(LIMITS)
            # A prepare that passed UBP's boundary took its state back.
            assert background._prepared is None
            assert ubp._prepared is prepared
            assert background.prepare(LIMITS)
            assert ubp._prepared is not None


class TestParallelPreparesBeforeForking:
    def test_workers_resume_from_the_parents_background(self, monkeypatch):
        """No worker asserts the background itself, UBP included: a
        solver that would prepare either in a worker fails that job."""
        parent = os.getpid()
        original = core.Solver._prepare

        def parent_only(self, *args, **kwargs):
            assert os.getpid() == parent, "a worker prepared the background"
            return original(self, *args, **kwargs)

        monkeypatch.setattr(core.Solver, "_prepare", parent_only)
        for ubp in _each_ubp(monkeypatch):
            scope = _scope(generate_impl_farm(4, 3))
            report = check_scope(scope, LIMITS, parallel=2)
            assert [v.status for v in report.verdicts] == [ImplStatus.VERIFIED] * 4
            background = scope.vc_background
            assert background._prepared is not None
            assert all(r.matchers is not None for r in background._prepared.quants)
            assert ubp.stores == 1

    def test_a_prepare_that_raises_leaves_the_report_unchanged(self, monkeypatch):
        source = dict(CORPUS)["examples/failing/bad_call.oolong"]
        serial = _canonical(check_scope(_scope(source), LIMITS))
        assert "not proved" in serial

        def broken(self, limits=None):
            raise RuntimeError("prepare failed")

        for ubp in _each_ubp(monkeypatch):
            prepared = ubp._prepared
            scope = _scope(source)
            with monkeypatch.context() as patch:
                patch.setattr(Background, "prepare", broken)
                assert _canonical(check_scope(scope, LIMITS, parallel=2)) == serial
            assert scope.vc_background._prepared is None
            assert ubp._prepared is prepared

    def test_a_spent_time_budget_leaves_the_report_unchanged(self):
        spent = Limits(time_budget=-1.0)
        source = generate_impl_farm(3, 3)
        serial = _canonical(check_scope(_scope(source), spent))
        scope = _scope(source)
        assert _canonical(check_scope(scope, spent, parallel=2)) == serial
        assert scope.vc_background._prepared is None

    def test_a_passed_scope_deadline_prepares_nothing(self):
        scope = _scope(generate_impl_farm(3, 3))
        outcome = run_parallel_checks(
            scope,
            LIMITS,
            options=ParallelOptions(jobs=2),
            scope_deadline=time.monotonic() - 1.0,
        )
        for job in outcome.jobs:
            assert job.verdict.status is ImplStatus.TIMED_OUT
            assert "before this implementation was checked" in (
                job.verdict.error.message
            )
        assert scope.vc_background._prepared is None


# ----------------------------------------------------------------------
# Per-process caches never cross a pickle
# ----------------------------------------------------------------------


def test_pickles_carry_no_per_process_cache():
    """Hashes, interned atoms and quantifier integers stay in their
    process: a pickled formula or verdict carries none of them."""
    source = dict(CORPUS)["examples/failing/bad_call.oolong"]
    scope = _scope(source)
    report = check_scope(scope, LIMITS, explain=True)
    bundle = vc_for_impl(scope, _impls(scope)[0])
    bundle.prove(LIMITS, explain=True)
    atoms = [f for f in bundle.hypotheses if isinstance(f, Pred)]
    assert atoms and all("_atom" in f.__dict__ for f in atoms)
    hash(bundle.goal)
    assert "_hash" in bundle.goal.__dict__
    assert all(v.explanation is not None for v in report.verdicts)
    for payload in (bundle.hypotheses, bundle.goal, report.verdicts):
        copied = pickle.loads(pickle.dumps(payload))
        for value in _reachable(copied):
            assert not isinstance(value, (core.EGraph, core._QuantRecord))
            state = getattr(value, "__dict__", {})
            assert "_atom" not in state and "_hash" not in state, value
    assert pickle.loads(pickle.dumps(bundle.hypotheses)) == bundle.hypotheses


def _reachable(root):
    """Every object reachable from ``root`` through containers and
    instance attributes."""
    seen, stack = set(), [root]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (str, int, float, type(None))):
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        elif hasattr(value, "__dict__"):
            stack.extend(vars(value).values())
