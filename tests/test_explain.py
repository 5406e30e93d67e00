"""Tests for explainable verdicts (``repro.obs.explain`` and friends).

Covers the acceptance criteria of the explainability PR:

* every failing corpus verdict yields a blame report naming the source
  position, the written field, and the unsatisfied inclusion chain;
* every ``VERIFIED`` verdict yields a proof log that the independent
  replay checker validates;
* resource-out and timed-out verdicts still name the obligation the
  prover was stuck on (the ``failed_obligation`` regression);
* a crashing explainer degrades to an ``OL900`` warning without losing
  the verdict;
* the CLI ``--explain`` family, including JSON output conforming to the
  in-tree ``explanations.schema.json``;
* corrupted proof logs are rejected by replay.
"""

import glob
import json
import os

import pytest

from repro import obs
from repro.api import check_program
from repro.cli import main
from repro.corpus.programs import PAPER_PROGRAMS
from repro.obs.explain import inclusion_chain
from repro.obs.schema import validate, validate_explanation_report
from repro.oolong.program import Scope
from repro.prover.core import Limits, Verdict, prove_valid
from repro.prover.prooflog import ProofLog, replay_proof_log
from repro.vcgen.checker import ImplStatus

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
FAILING_DIR = os.path.join(EXAMPLES_DIR, "failing")

BAD_WRITE = """
group w
field cnt in w
field outside
proc trim(t) modifies t.w
impl trim(t) {
  assume t != null ;
  t.cnt := 0 ;
  t.outside := 1
}
"""

GOOD = """
group w
field cnt in w
proc bump(t) modifies t.w
impl bump(t) {
  assume t != null ;
  t.cnt := t.cnt + 1
}
"""

STACK_DECLS = """
group contents
group elems
field cnt in elems
field tag
field vec in contents maps elems into contents
"""


def _failing_sources():
    paths = sorted(glob.glob(os.path.join(FAILING_DIR, "*.oolong")))
    assert paths, "examples/failing corpus is empty"
    return [(os.path.basename(p), open(p).read()) for p in paths]


# ----------------------------------------------------------------------
# Countermodels at the prover level
# ----------------------------------------------------------------------


class TestCountermodel:
    def test_sat_result_carries_countermodel(self):
        from repro.logic.terms import Const, Implies, Pred

        p = Pred("p", (Const("a"),))
        q = Pred("q", (Const("a"),))
        result = prove_valid([p], Implies(q, p), explain=True)
        # goal is valid, so no countermodel; flip it:
        assert result.verdict is Verdict.UNSAT
        result = prove_valid([p], q, explain=True)
        assert result.verdict is Verdict.SAT
        model = result.countermodel
        assert model is not None
        assert model.truth("p", (Const("a"),)) is True
        assert model.truth("q", (Const("a"),)) is False

    def test_default_mode_captures_nothing(self):
        from repro.logic.terms import Const, Pred

        result = prove_valid([], Pred("q", (Const("a"),)))
        assert result.verdict is Verdict.SAT
        assert result.countermodel is None
        assert result.proof_log is None


# ----------------------------------------------------------------------
# Static inclusion chains
# ----------------------------------------------------------------------


class TestInclusionChain:
    @pytest.fixture
    def scope(self):
        return Scope.from_source(STACK_DECLS)

    def test_local_chain(self, scope):
        assert inclusion_chain(scope, "elems", "cnt") == "elems ≽ cnt"

    def test_rep_chain_through_pivot(self, scope):
        assert (
            inclusion_chain(scope, "contents", "cnt")
            == "contents —vec→ elems ≽ cnt"
        )

    def test_identity(self, scope):
        assert inclusion_chain(scope, "contents", "contents") == "contents"

    def test_no_chain(self, scope):
        assert inclusion_chain(scope, "contents", "tag") is None
        assert inclusion_chain(scope, "elems", "contents") is None


# ----------------------------------------------------------------------
# Blame reports
# ----------------------------------------------------------------------


class TestBlame:
    def test_bad_write_blame_is_source_anchored(self):
        report = check_program(BAD_WRITE, explain=True)
        verdict = report.verdicts[0]
        assert verdict.status is ImplStatus.NOT_PROVED
        explanation = verdict.explanation
        assert explanation is not None and explanation.kind == "blame"
        obligation = explanation.obligation
        assert obligation["kind"] == "write-licence"
        assert obligation["position"] is not None  # the assignment command
        assert obligation["attr"] == "outside"  # the written field
        assert obligation["modifies"] == ["t.w"]
        (check,) = explanation.checks
        assert check.entry == "t.w"
        assert check.chain is None  # the unsatisfied inclusion
        assert any("attr$outside" in w for w in check.witnesses)
        assert explanation.countermodel is not None

    def test_bad_write_golden_text(self):
        report = check_program(BAD_WRITE, explain=True)
        text = report.verdicts[0].explanation.render_text()
        assert "blame: impl trim#0 — not proved" in text
        assert "write-licence: write to t.outside" in text
        assert "wrote: t.outside (attribute 'outside')" in text
        assert "checked against modifies list [t.w]" in text
        assert "no declared inclusion chain from 'w' to 'outside'" in text
        assert "(inc $0 t attr$w t attr$outside) = false" in text

    @pytest.mark.parametrize("name,source", _failing_sources())
    def test_failing_corpus_all_blamed(self, name, source):
        """Acceptance: every failing-corpus verdict carries a blame
        report with a source position, the written field, and the
        unsatisfied inclusion chain."""
        report = check_program(
            source, Limits(time_budget=20.0, max_instances=4000), explain=True
        )
        assert not report.ok
        blamed = [
            v for v in report.verdicts if v.status is not ImplStatus.VERIFIED
        ]
        assert blamed
        for verdict in blamed:
            explanation = verdict.explanation
            assert explanation is not None, verdict.impl.name
            assert explanation.kind == "blame"
            assert explanation.obligation["position"] is not None
            assert explanation.obligation["attr"] is not None
            assert explanation.checks, "no modifies entries checked"
            assert all(c.chain is None for c in explanation.checks), (
                "failing examples must fail for want of an inclusion chain"
            )

    def test_call_licence_blame_names_callee(self):
        (source,) = [
            src for name, src in _failing_sources() if name == "bad_call.oolong"
        ]
        report = check_program(source, explain=True)
        verdict = report.verdict_for("use")
        assert verdict.status is ImplStatus.NOT_PROVED
        obligation = verdict.explanation.obligation
        assert obligation["kind"] == "call-licence"
        assert obligation["callee"] == "reset"

    def test_verified_chain_is_reported_when_declared(self):
        """The static chain renderer is what the blame report would show
        had the entry licensed the write — sanity-check it against the
        stack declarations (rep hop then local hop)."""
        scope = Scope.from_source(STACK_DECLS)
        assert (
            inclusion_chain(scope, "contents", "cnt")
            == "contents —vec→ elems ≽ cnt"
        )


# ----------------------------------------------------------------------
# Proof logs and replay
# ----------------------------------------------------------------------


class TestProofLogs:
    def test_good_program_proof_replays(self):
        report = check_program(GOOD, explain=True)
        verdict = report.verdicts[0]
        assert verdict.status is ImplStatus.VERIFIED
        explanation = verdict.explanation
        assert explanation.kind == "proof"
        assert explanation.replay is not None and explanation.replay.ok
        assert explanation.replay.steps_checked == len(explanation.proof_log)

    @pytest.mark.parametrize("name", sorted(PAPER_PROGRAMS))
    def test_every_verified_corpus_verdict_replays(self, name):
        """Acceptance: every VERIFIED verdict yields a proof log the
        independent checker validates."""
        report = check_program(
            PAPER_PROGRAMS[name],
            Limits(time_budget=20.0, max_instances=4000),
            explain=True,
        )
        verified = [
            v for v in report.verdicts if v.status is ImplStatus.VERIFIED
        ]
        for verdict in verified:
            explanation = verdict.explanation
            assert explanation is not None and explanation.kind == "proof"
            replay = replay_proof_log(explanation.proof_log)
            assert replay.ok, f"{name}/{verdict.impl.name}: {replay.error}"

    def test_truncated_log_rejected(self):
        report = check_program(GOOD, explain=True)
        log = report.verdicts[0].explanation.proof_log
        truncated = ProofLog(log.steps[:-1])
        result = replay_proof_log(truncated)
        assert not result.ok
        assert "before the refutation closed" in result.error

    def test_unjustified_close_rejected(self):
        report = check_program(GOOD, explain=True)
        log = report.verdicts[0].explanation.proof_log
        close = log.steps[-1]
        assert close.kind == "close"
        # a close with no conflict in the kernel must not be accepted
        corrupted = ProofLog([close] + list(log.steps))
        result = replay_proof_log(corrupted)
        assert not result.ok

    def test_reordered_log_rejected(self):
        report = check_program(GOOD, explain=True)
        log = report.verdicts[0].explanation.proof_log
        result = replay_proof_log(ProofLog(list(reversed(log.steps))))
        assert not result.ok


# ----------------------------------------------------------------------
# Resource exhaustion still names the obligation
# ----------------------------------------------------------------------


class TestResourceOut:
    DIVERGENT = STACK_DECLS + """
proc poke(s) modifies s.contents
impl poke(s) {
  assume s != null ;
  assume s.vec != null ;
  s.vec.cnt := 1 ;
  s.vec.tag := 2
}
"""

    def test_resource_out_carries_failed_obligation(self):
        """The refutation of the unlicensed `tag` write diverges on the
        cyclic rep inclusion; with a small instance budget the verdict is
        RESOURCE_OUT — and must still name the obligation being refuted
        when the budget ran out.

        The instance budget must sit well below the search's saturation
        point (~263 instances): at 300 the verdict used to depend on
        whether the 30s wall clock fired first, i.e. on machine speed."""
        report = check_program(
            self.DIVERGENT, Limits(max_instances=100), explain=True
        )
        verdict = report.verdicts[0]
        assert verdict.status is ImplStatus.RESOURCE_OUT
        assert verdict.failed_obligation is not None
        explanation = verdict.explanation
        assert explanation is not None and explanation.kind == "blame"
        assert explanation.obligation["position"] is not None
        # no countermodel (the branch never saturated), but the static
        # chain analysis still reports what was being checked
        assert explanation.checks


# ----------------------------------------------------------------------
# Fault tolerance: a crashing explainer is advisory
# ----------------------------------------------------------------------


class TestExplainerCrash:
    def test_crash_degrades_to_ol900_warning(self, monkeypatch):
        from repro.analysis.diagnostics import Severity

        def boom(*args, **kwargs):
            raise RuntimeError("explainer exploded")

        monkeypatch.setattr("repro.obs.explain.explain_result", boom)
        report = check_program(BAD_WRITE, explain=True)
        verdict = report.verdicts[0]
        # the verdict survives, unexplained
        assert verdict.status is ImplStatus.NOT_PROVED
        assert verdict.explanation is None
        crashes = [
            d
            for d in report.diagnostics
            if d.code == "OL900" and "explanation" in d.message
        ]
        assert crashes and crashes[0].severity is Severity.WARNING
        # advisory: ok-ness is unchanged by the explainer crash
        good = check_program(GOOD, explain=True)
        assert good.ok


# ----------------------------------------------------------------------
# Report and CLI surface
# ----------------------------------------------------------------------


class TestSurface:
    def test_report_to_dict_carries_explanations(self):
        report = check_program(BAD_WRITE, explain=True)
        payload = report.to_dict()
        entry = payload["verdicts"][0]["explanation"]
        assert entry["kind"] == "blame"
        json.dumps(payload)  # fully serializable

    def test_explanations_attach_to_vc_spans(self):
        journal = obs.EventJournal()
        report = check_program(BAD_WRITE, events=journal, explain=True)
        assert not report.ok
        spans = [
            s["args"]
            for s in obs.spans_of(journal.records)
            if (s["cat"], s["name"]) == (obs.CAT_VC, "vc trim")
            and "explanation" in s["args"]
        ]
        assert spans and spans[0]["explanation"] == "blame"
        assert "blame" in spans[0]
        # and the chrome export carries the args through
        trace = obs.chrome_trace(journal.records)
        events = [
            e
            for e in trace["traceEvents"]
            if e.get("cat") == obs.CAT_VC and "blame" in e.get("args", {})
        ]
        assert events

    def test_cli_explain_prints_blame(self, tmp_path, capsys):
        path = tmp_path / "bad.oolong"
        path.write_text(BAD_WRITE)
        assert main([str(path), "--explain"]) == 1
        out = capsys.readouterr().out
        assert "blame: impl trim#0" in out
        assert "no declared inclusion chain" in out

    def test_cli_explain_json_validates(self, tmp_path, capsys):
        path = tmp_path / "good.oolong"
        path.write_text(GOOD)
        out = tmp_path / "explanations.json"
        code = main(
            [
                str(path),
                "--explain",
                "--explain-format",
                "json",
                "--explain-out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_explanation_report(payload) == []
        (entry,) = payload["explanations"]
        assert entry["kind"] == "proof"
        assert entry["proof"]["replay_ok"] is True

    def test_cli_explain_written_on_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.oolong"
        path.write_text("group group group")
        out = tmp_path / "explanations.json"
        code = main(
            [
                str(path),
                "--explain-out",
                str(out),
                "--explain-format",
                "json",
            ]
        )
        assert code == 2
        payload = json.loads(out.read_text())
        assert validate_explanation_report(payload) == []
        assert payload["explanations"] == []


# ----------------------------------------------------------------------
# The schema interpreter itself
# ----------------------------------------------------------------------


class TestSchemaValidator:
    SCHEMA = {
        "type": "object",
        "required": ["kind"],
        "properties": {
            "kind": {"enum": ["blame", "proof"]},
            "steps": {"type": "array", "items": {"type": "integer"}},
            "note": {"type": ["string", "null"]},
        },
    }

    def test_accepts_conforming(self):
        instance = {"kind": "proof", "steps": [1, 2], "note": None}
        assert validate(instance, self.SCHEMA) == []

    def test_rejects_missing_required(self):
        errors = validate({}, self.SCHEMA)
        assert errors and "kind" in errors[0]

    def test_rejects_bad_enum_and_types(self):
        errors = validate(
            {"kind": "guess", "steps": ["x"], "note": 3}, self.SCHEMA
        )
        assert len(errors) == 3

    def test_booleans_are_not_integers(self):
        assert validate(True, {"type": "integer"})
        assert validate(3, {"type": "integer"}) == []
