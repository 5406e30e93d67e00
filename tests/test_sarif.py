"""Tests for SARIF rendering and the CLI surface of static discharge.

Covers the static-discharge PR's reporting layer:

* the SARIF v2.1.0 document structure (schema, rules, levels, physical
  locations, relatedLocations for blame notes);
* ``oolong-check --format sarif`` and ``oolong-lint --format sarif``;
* ``--static-discharge`` / ``--check-discharge`` on the CLI;
* ``--fail-on`` accepting OLxxx codes and rule aliases, and rejecting
  unknown codes with a clear parse-time error.
"""

import json

import pytest

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    Note,
    Severity,
)
from repro.analysis.sarif import (
    SARIF_VERSION,
    render_report_sarif,
    render_sarif,
    sarif_log,
)
from repro.api import check_program
from repro.cli import build_lint_parser, build_parser, lint_main, main
from repro.corpus.programs import RATIONAL
from repro.errors import SourcePosition
from repro.prover.core import Limits

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

LIMITS = ["--time-budget", "60"]


# ----------------------------------------------------------------------
# Document structure
# ----------------------------------------------------------------------


class TestSarifDocument:
    def test_skeleton(self):
        log = sarif_log([])
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "oolong-check"
        assert run["results"] == []

    def test_every_code_is_a_rule(self):
        (run,) = sarif_log([])["runs"]
        rules = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rules == set(CODES)

    def test_levels_map_severities(self):
        (run,) = sarif_log([])["runs"]
        levels = {
            rule["id"]: rule["defaultConfiguration"]["level"]
            for rule in run["tool"]["driver"]["rules"]
        }
        assert levels["OL401"] == "error"
        assert levels["OL201"] == "warning"
        assert levels["OL204"] == "note"

    def test_result_carries_location_and_notes(self):
        diag = Diagnostic(
            code="OL401",
            message="frame obligation refuted statically",
            position=SourcePosition(line=9, column=3, file="bad.oolong"),
            impl="trim",
            notes=(
                Note(
                    "declared t.w: no declared inclusion chain",
                    SourcePosition(line=5, column=1, file="bad.oolong"),
                ),
            ),
        )
        (run,) = sarif_log([diag])["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "OL401"
        assert result["level"] == "error"
        assert "impl trim:" in result["message"]["text"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 9, "startColumn": 3}
        assert (
            result["locations"][0]["physicalLocation"]["artifactLocation"][
                "uri"
            ]
            == "bad.oolong"
        )
        (related,) = result["relatedLocations"]
        assert "inclusion chain" in related["message"]["text"]

    def test_render_is_valid_json(self):
        parsed = json.loads(render_sarif([]))
        assert parsed["version"] == "2.1.0"


ASSERT_FAIL = """
field f
proc check_it(o)
impl check_it(o) {
  assume o != null ;
  assert o.f = 1
}
"""


class TestReportSarif:
    def test_failed_verdict_becomes_ol310(self):
        """A NOT_PROVED verdict with no diagnostic naming its impl gets
        a synthesized OL310 result."""
        report = check_program(ASSERT_FAIL, Limits(time_budget=60.0))
        assert not report.diagnostics
        document = json.loads(render_report_sarif(report))
        (run,) = document["runs"]
        assert any(
            result["ruleId"] == "OL310" for result in run["results"]
        )

    def test_discharge_diagnostics_ride_along(self):
        report = check_program(
            BAD_WRITE, Limits(time_budget=60.0), static_discharge="on"
        )
        document = json.loads(render_report_sarif(report))
        (run,) = document["runs"]
        rules = [result["ruleId"] for result in run["results"]]
        assert "OL401" in rules
        # The OL401 already names the impl, so no duplicate OL310.
        assert "OL310" not in rules


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCliSarif:
    def test_check_format_sarif(self, tmp_path, capsys):
        path = tmp_path / "good.oolong"
        path.write_text(RATIONAL)
        assert main([str(path), "--format", "sarif"] + LIMITS) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"

    def test_check_format_sarif_failing(self, tmp_path, capsys):
        path = tmp_path / "bad.oolong"
        path.write_text(BAD_WRITE)
        assert main([str(path), "--format", "sarif"] + LIMITS) == 1
        document = json.loads(capsys.readouterr().out)
        (run,) = document["runs"]
        assert run["results"]

    def test_lint_format_sarif(self, tmp_path, capsys):
        path = tmp_path / "good.oolong"
        path.write_text(RATIONAL)
        lint_main([str(path), "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"


class TestCliStaticDischarge:
    def test_flag_defaults_off(self):
        args = build_parser().parse_args(["x.oolong"])
        assert args.static_discharge == "off"
        assert not args.check_discharge

    def test_discharge_run_matches_plain_run(self, tmp_path, capsys):
        path = tmp_path / "bad.oolong"
        path.write_text(BAD_WRITE)
        plain = main([str(path)] + LIMITS)
        capsys.readouterr()
        discharged = main(
            [str(path), "--static-discharge", "on"] + LIMITS
        )
        out = capsys.readouterr().out
        assert discharged == plain == 1
        assert "OL401" in out

    def test_check_discharge_flag(self, tmp_path, capsys):
        path = tmp_path / "bad.oolong"
        path.write_text(BAD_WRITE)
        assert main([str(path), "--check-discharge"] + LIMITS) == 1
        assert "OL402" not in capsys.readouterr().out


class TestFailOnCodes:
    def test_severities_still_accepted(self):
        args = build_parser().parse_args(["x.oolong", "--fail-on", "warning"])
        assert args.fail_on == "warning"

    def test_codes_accepted(self):
        args = build_parser().parse_args(
            ["x.oolong", "--fail-on", "OL401,OL402"]
        )
        assert args.fail_on == "OL401,OL402"

    def test_aliases_accepted(self):
        args = build_parser().parse_args(
            ["x.oolong", "--fail-on", "static-refuted"]
        )
        assert args.fail_on == "static-refuted"

    def test_unknown_code_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["x.oolong", "--fail-on", "OL999"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "OL999" in err and "known codes" in err

    def test_lint_parser_validates_too(self, capsys):
        with pytest.raises(SystemExit):
            build_lint_parser().parse_args(["x.oolong", "--fail-on", "bogus"])

    def test_fail_on_code_gates_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.oolong"
        path.write_text(BAD_WRITE)
        # OL401 fires only with discharge on; gating on it alone ignores
        # the OL310-worthy failure in text mode (exit reflects verdicts
        # separately), but the diagnostic gate must trip exactly when
        # the code is present.
        with_code = main(
            [
                str(path),
                "--static-discharge",
                "on",
                "--fail-on",
                "OL401",
            ]
            + LIMITS
        )
        assert with_code == 1
        capsys.readouterr()

    def test_fail_on_unrelated_code_passes_clean_program(
        self, tmp_path, capsys
    ):
        path = tmp_path / "good.oolong"
        path.write_text(RATIONAL)
        assert (
            main([str(path), "--fail-on", "OL401"] + LIMITS) == 0
        )
