"""Well-formedness is decided once per check, by ``check_scope``.

The ``wellformed`` fault point sits at the top of ``check_well_formed``,
so an empty fault plan counts how many times each entry point decides a
scope's well-formedness. The check path (``check_program``,
``check_program_resilient``, ``oolong-check``, ``check_module``) leaves
the decision to ``check_scope``; the standalone linter (``lint_scope``,
``oolong-lint``) makes it itself.
"""

import json

import pytest

from repro import obs
from repro.analysis.engine import lint_scope
from repro.api import check_program, check_program_resilient
from repro.cli import lint_main, main
from repro.corpus.programs import RATIONAL
from repro.errors import WellFormednessError
from repro.modular.modules import ModuleSystem
from repro.oolong.program import Scope
from repro.prover.core import Limits
from repro.testing.faults import Fault, FaultPlan, inject
from repro.vcgen.checker import ImplStatus, check_scope

LIMITS = Limits(time_budget=60.0)
ILL_FORMED = "field f in missing\n"
ILL_FORMED_MESSAGE = (
    "'f' declared in 'missing', which is not a declared group"
)


def wellformed_runs(call):
    """Run ``call()`` under an empty fault plan; (result, wellformed hits)."""
    with inject(FaultPlan()) as injector:
        result = call()
    return result, injector.counts.get("wellformed", 0)


@pytest.fixture
def write_source(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestOncePerCheck:
    def test_check_program(self):
        report, runs = wellformed_runs(lambda: check_program(RATIONAL, LIMITS))
        assert report.ok
        assert runs == 1

    def test_check_program_resilient(self):
        report, runs = wellformed_runs(
            lambda: check_program_resilient(RATIONAL, LIMITS)
        )
        assert report.ok
        assert runs == 1

    def test_cli_check(self, write_source, capsys):
        path = write_source("rational.oolong", RATIONAL)
        code, runs = wellformed_runs(lambda: main([path]))
        assert code == 0
        assert runs == 1

    def test_check_module(self):
        system = ModuleSystem()
        system.define("rational", interface="", implementation=RATIONAL)
        report, runs = wellformed_runs(
            lambda: system.check_module("rational", LIMITS)
        )
        assert report.ok
        assert runs == 1

    def test_lint_scope_still_decides(self):
        result, runs = wellformed_runs(
            lambda: lint_scope(Scope.from_source(RATIONAL))
        )
        assert result.ok
        assert runs == 1

    def test_cli_lint_still_decides(self, write_source, capsys):
        path = write_source("rational.oolong", RATIONAL)
        code, runs = wellformed_runs(lambda: lint_main([path]))
        assert code == 0
        assert runs == 1


class TestIllFormed:
    def test_check_program_raises(self):
        with pytest.raises(WellFormednessError, match=ILL_FORMED_MESSAGE):
            check_program(ILL_FORMED)

    def test_check_program_resilient_is_fatal_ol100(self):
        report = check_program_resilient(ILL_FORMED)
        assert [d.code for d in report.fatal] == ["OL100"]
        assert ILL_FORMED_MESSAGE in report.fatal[0].message

    def test_cli_exits_two_with_the_message(self, write_source, capsys):
        path = write_source("ill.oolong", ILL_FORMED)
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:1:1: {ILL_FORMED_MESSAGE}\n"

    def test_check_module_raises(self):
        system = ModuleSystem()
        system.define("broken", interface="", implementation=ILL_FORMED)
        with pytest.raises(WellFormednessError, match=ILL_FORMED_MESSAGE):
            system.check_module("broken")

    def test_lint_scope_gives_ol100(self):
        result, runs = wellformed_runs(
            lambda: lint_scope(Scope.from_source(ILL_FORMED))
        )
        assert [d.code for d in result.diagnostics] == ["OL100"]
        assert runs == 1

    def test_cli_lint_gives_ol100(self, write_source, capsys):
        path = write_source("ill.oolong", ILL_FORMED)
        code, runs = wellformed_runs(
            lambda: lint_main([path, "--format", "json"])
        )
        assert code == 1
        assert runs == 1
        payload = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in payload["diagnostics"]] == ["OL100"]


class TestNoCheckStartForIllFormedScope:
    def test_check_scope_journals_nothing(self):
        journal = obs.EventJournal()
        with obs.journaling(journal):
            with pytest.raises(WellFormednessError):
                check_scope(Scope.from_source(ILL_FORMED))
        # Spans only (parsing, and the two the error unwound through):
        # no lifecycle record.
        spans = obs.spans_of(journal.records)
        assert len(spans) == len(journal.records)
        errors = {s["name"]: s["error"] for s in spans if "error" in s}
        assert sorted(errors) == ["check_scope", "wellformed"]
        assert errors["check_scope"].startswith("WellFormednessError")

    def test_cli_events_journal_has_no_check_start(
        self, write_source, tmp_path, capsys
    ):
        path = write_source("ill.oolong", ILL_FORMED)
        events = tmp_path / "events.jsonl"
        assert main([path, "--events", str(events)]) == 2
        kinds = [r["event"] for r in obs.read_journal(str(events))]
        assert "check-start" not in kinds


class TestWellformedCrash:
    def test_check_program_degrades_to_warning(self):
        plan = FaultPlan((Fault("wellformed", "raise", hit=0),))
        with inject(plan) as injector:
            report = check_program(RATIONAL, LIMITS)
        assert injector.fired == [("wellformed", 0, "raise")]
        warnings = [d for d in report.diagnostics if d.code == "OL900"]
        assert len(warnings) == 1
        assert warnings[0].severity.value == "warning"
        assert "well-formedness checking" in warnings[0].message
        assert [v.status for v in report.verdicts] == [ImplStatus.VERIFIED]


class TestSpan:
    def test_one_wellformed_span_inside_check_scope(self):
        journal = obs.EventJournal()
        check_program(RATIONAL, LIMITS, events=journal)
        spans = {s["span"]: s for s in obs.spans_of(journal.records)}
        wellformed = [s for s in spans.values() if s["name"] == "wellformed"]
        assert len(wellformed) == 1
        assert spans[wellformed[0]["parent"]]["name"] == "check_scope"


def test_api_lint_program_is_the_engine_one():
    from repro import api
    from repro.analysis import engine

    assert api.lint_program is engine.lint_program
