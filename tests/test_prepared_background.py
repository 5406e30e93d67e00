"""The scope's background predicate is asserted once and resumed from.

``UBP & BP_D`` depends only on the scope, so the prover asserts it once
per scope (:class:`repro.prover.core.Background`) and starts every later
implementation's solver from a copy of that state. Resuming must be
indistinguishable from asserting every hypothesis from scratch: the same
verdict, every ``ProverStats`` counter but ``elapsed``, the same proof
log (which still replays) and the same countermodel.

Serial, ``-j`` and fleet checks are held to identical reports by
``tests/test_pipeline.py``; the search-identity golden pins the counters
of the same corpus against the code before this change.
"""

import pickle

import pytest

from repro.api import parse_program
from repro.corpus.generators import generate_impl_farm
from repro.logic.terms import Const, Eq, Exists, Forall, Not, Pred, Var
from repro.oolong.contracts import desugar_contracts
from repro.prover.core import Background, Limits, Verdict, prove_valid
from repro.prover.prooflog import replay_proof_log
from repro.testing.faults import Fault, FaultPlan, inject
from repro.vcgen.checker import ImplStatus, check_scope
from repro.vcgen.vc import vc_for_impl
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


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
@pytest.mark.parametrize("name,source", CORPUS, ids=[name for name, _ in CORPUS])
def test_resuming_equals_asserting_from_scratch(name, source, explain):
    scope = _scope(source)
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
    def test_spent_budget_is_resource_out_and_prepares_nothing(self):
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
        report = check_scope(scope, LIMITS)
        assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)
        assert scope.vc_background._prepared is not None

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
