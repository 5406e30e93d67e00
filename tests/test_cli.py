"""Tests for the oolong-check command line interface."""

import json

import pytest

from repro.cli import build_lint_parser, build_parser, lint_main, main
from repro.corpus.programs import (
    RATIONAL,
    RATIONAL_OVERBROAD,
    SECTION3_CLIENT,
    SECTION3_LAUNDERED_M,
    SECTION3_LEAKING_M,
)


@pytest.fixture
def write_source(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestArguments:
    def test_requires_files(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["x.oolong"])
        assert args.time_budget == 30.0
        assert not args.no_restrictions
        assert not args.stats

    def test_flags(self):
        args = build_parser().parse_args(
            ["--time-budget", "5", "--stats", "--no-restrictions", "a", "b"]
        )
        assert args.time_budget == 5.0
        assert args.stats and args.no_restrictions
        assert args.files == ["a", "b"]

    def test_static_discharge_takes_on_or_off(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["x.oolong", "--static-discharge", "strict"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "invalid choice: 'strict'" in err

    @pytest.mark.parametrize("code", ["OL403", "discharge-deferred"])
    def test_deferral_code_is_unknown(self, code, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["x.oolong", "--fail-on", code])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown diagnostic code {code!r}" in err
        assert "known codes: OL001" in err


class TestExitCodes:
    def test_ok_program_exits_zero(self, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "OK" in out

    def test_failing_program_exits_one(self, write_source, capsys):
        source = """
        field f
        proc p(t)
        impl p(t) { assume t != null ; t.f := 1 }
        """
        path = write_source("bad.oolong", source)
        assert main([path]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_restriction_violation_reported(self, write_source, capsys):
        client = write_source("client.oolong", SECTION3_CLIENT)
        private = write_source("private.oolong", SECTION3_LEAKING_M)
        code = main([client, private, "--time-budget", "60"])
        out = capsys.readouterr().out
        assert code == 1
        assert "restriction violation" in out

    def test_no_restrictions_flag_skips_pivot_pass(self, write_source, capsys):
        client = write_source("client.oolong", SECTION3_CLIENT)
        private = write_source("private.oolong", SECTION3_LEAKING_M)
        main([client, private, "--no-restrictions", "--time-budget", "60"])
        out = capsys.readouterr().out
        assert "restriction violation" not in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["/nonexistent/path.oolong"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "orphan, error",
        [
            (["--cache-max-bytes", "10"], "--cache-max-bytes requires --cache-dir PATH"),
            (["--cache-max-bytes", "0"], "--cache-max-bytes requires --cache-dir PATH"),
            (["--job-timeout", "5"], "--job-timeout requires -j N"),
            (["--job-timeout", "0"], "--job-timeout requires -j N"),
            (["--max-retries", "2"], "--max-retries requires -j N"),
            (["--max-retries", "0"], "--max-retries requires -j N"),
        ],
        ids=[
            "cache-max-bytes",
            "cache-max-bytes-0",
            "job-timeout",
            "job-timeout-0",
            "max-retries",
            "max-retries-0",
        ],
    )
    def test_orphan_flag_is_usage_error(self, orphan, error, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        assert main([path, *orphan]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_cache_max_bytes_bounds_the_cache_dir(
        self, write_source, tmp_path, capsys
    ):
        path = write_source("good.oolong", RATIONAL)
        cache = tmp_path / "cache"
        argv = [path, "--cache-dir", str(cache), "--cache-max-bytes", "0"]
        assert main(argv) == 0
        assert "verified" in capsys.readouterr().out
        # A zero budget evicts every entry it stores.
        assert sorted(p.name for p in cache.iterdir()) == ["summary.json"]

    def test_parse_error_exits_two(self, write_source, capsys):
        path = write_source("broken.oolong", "group group group")
        assert main([path]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_decimal_digit_is_a_syntax_error(self, write_source, capsys):
        path = write_source("digit.oolong", "proc p(t)\nimpl p(t) { t.f := ² }\n")
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert "error[OL001] unexpected character '²'" in err
        assert "internal error" not in err

    def test_ill_formed_exits_two(self, write_source, capsys):
        path = write_source("illformed.oolong", "field f in missing")
        assert main([path]) == 2

    def test_stats_flag_prints_counters(self, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        main([path, "--stats"])
        out = capsys.readouterr().out
        assert "instances=" in out and "branches=" in out

    def test_stats_flag_prints_discharge_tallies_to_stderr(
        self, write_source, capsys
    ):
        path = write_source("good.oolong", RATIONAL)
        args = [path, "--check-discharge", "--format", "json", "--time-budget", "60"]
        assert main(args) == 0
        plain = capsys.readouterr()
        assert main(args + ["--stats"]) == 0
        stats = capsys.readouterr()
        assert plain.err == ""
        assert stats.err == (
            "discharge (on): obligations 2 discharged, 0 refuted, 0 deferred; "
            "impls 1 discharged, 0 refuted, 0 deferred; "
            "1 agreements, 0 disagreements\n"
        )
        # The tallies stay out of the report itself.
        assert sorted(json.loads(stats.out)) == sorted(json.loads(plain.out))

    def test_multiple_files_concatenate(self, write_source, capsys):
        a = write_source("a.oolong", "group value\nproc normalize(r) modifies r.value")
        b = write_source(
            "b.oolong",
            "field num in value\nimpl normalize(r) { assume r != null ; r.num := 1 }",
        )
        assert main([a, b, "--time-budget", "60"]) == 0

    def test_fail_on_warning_rejects_overbroad_modifies(self, write_source, capsys):
        path = write_source("overbroad.oolong", RATIONAL_OVERBROAD)
        # OL302 is a warning: clean exit by default...
        assert main([path, "--time-budget", "60"]) == 0
        # ...but --fail-on warning turns it into a failure
        assert main([path, "--time-budget", "60", "--fail-on", "warning"]) == 1
        assert "OL302" in capsys.readouterr().out

    def test_no_lint_flag_suppresses_diagnostics(self, write_source, capsys):
        path = write_source("overbroad.oolong", RATIONAL_OVERBROAD)
        assert main([path, "--time-budget", "60", "--no-lint"]) == 0
        assert "OL302" not in capsys.readouterr().out


class TestMultiFilePositions:
    def test_diagnostic_names_the_offending_file(self, write_source, capsys):
        client = write_source("client.oolong", SECTION3_CLIENT)
        private = write_source("private.oolong", SECTION3_LEAKING_M)
        lint_main([client, private])
        out = capsys.readouterr().out
        # the leak is in the private file, at its own (small) line number
        assert "private.oolong:" in out
        leak_lines = [
            l
            for l in out.splitlines()
            if "private.oolong:" in l and not l.startswith(" ")
        ]
        assert leak_lines
        for line in leak_lines:
            path, line_no, _rest = line.split(":", 2)
            assert path.endswith("private.oolong")
            assert int(line_no) <= SECTION3_LEAKING_M.count("\n") + 1

    def test_parse_error_names_the_broken_file(self, write_source, capsys):
        good = write_source("good.oolong", RATIONAL)
        broken = write_source("broken.oolong", "group group group")
        assert main([good, broken]) == 2
        assert "broken.oolong" in capsys.readouterr().err


class TestCheckJson:
    def test_json_report_structure(self, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        assert main([path, "--format", "json", "--time-budget", "60"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["diagnostics"] == []
        assert data["restriction_violations"] == []
        (verdict,) = data["verdicts"]
        assert verdict["impl"] == "normalize"
        assert verdict["status"] == "verified"

    def test_json_reports_failure(self, write_source, capsys):
        client = write_source("client.oolong", SECTION3_CLIENT)
        private = write_source("private.oolong", SECTION3_LEAKING_M)
        code = main([client, private, "--format", "json", "--time-budget", "60"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["ok"] is False
        assert data["restriction_violations"]
        codes = {d["code"] for d in data["diagnostics"]}
        assert "OL110" in codes


class TestLintSubcommand:
    def test_lint_parser_defaults(self):
        args = build_lint_parser().parse_args(["x.oolong"])
        assert args.format == "text" and args.fail_on == "error"

    def test_clean_program_exits_zero(self, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        assert lint_main([path]) == 0
        assert "0 diagnostic(s)" in capsys.readouterr().out

    def test_subcommand_dispatch_through_main(self, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        assert main(["lint", path]) == 0

    def test_leak_exits_one_with_caret_snippet(self, write_source, capsys):
        client = write_source("client.oolong", SECTION3_CLIENT)
        private = write_source("private.oolong", SECTION3_LAUNDERED_M)
        assert lint_main([client, private]) == 1
        out = capsys.readouterr().out
        assert "error[OL110]" in out
        assert "  | " in out  # caret snippet from the right file
        assert "note:" in out  # the flow path

    def test_warning_needs_fail_on_warning(self, write_source, capsys):
        path = write_source("overbroad.oolong", RATIONAL_OVERBROAD)
        assert lint_main([path]) == 0
        assert lint_main([path, "--fail-on", "warning"]) == 1

    def test_no_restrictions_skips_ol1xx(self, write_source, capsys):
        client = write_source("client.oolong", SECTION3_CLIENT)
        private = write_source("private.oolong", SECTION3_LEAKING_M)
        assert lint_main([client, private, "--no-restrictions"]) == 0
        out = capsys.readouterr().out
        assert "OL102" not in out and "OL110" not in out

    def test_missing_file_exits_two(self, capsys):
        assert lint_main(["/nonexistent/path.oolong"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_exits_two(self, write_source, capsys):
        path = write_source("broken.oolong", "group group group")
        assert lint_main([path]) == 2

    def test_json_golden(self, write_source, capsys):
        client = write_source("client.oolong", SECTION3_CLIENT)
        private = write_source("private.oolong", SECTION3_LAUNDERED_M)
        assert lint_main([client, private, "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        codes = [d["code"] for d in data["diagnostics"]]
        assert "OL102" in codes and "OL110" in codes
        (leak,) = [d for d in data["diagnostics"] if d["code"] == "OL110"]
        assert leak["severity"] == "error"
        assert leak["impl"] == "m"
        assert leak["file"].endswith("private.oolong")
        assert len(leak["notes"]) >= 2  # the copy and the store
        assert "inferred_modifies" in data

    def test_json_inferred_modifies(self, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        lint_main([path, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert set(data["inferred_modifies"]["normalize"]) == {"r.num", "r.den"}


class TestResilience:
    """Parser recovery and failure semantics at the CLI surface."""

    def test_all_syntax_errors_reported_in_one_run(self, write_source, capsys):
        source = "group value\nfield 1 in value\ngroup 2\nproc p(t)\n"
        path = write_source("multi.oolong", source)
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert err.count("error[OL002]") == 2
        assert "multi.oolong:2" in err and "multi.oolong:3" in err

    def test_errors_collected_across_files(self, write_source, capsys):
        a = write_source("a.oolong", "group 1\n")
        b = write_source("b.oolong", "field 2\n")
        assert main([a, b]) == 2
        err = capsys.readouterr().err
        assert "a.oolong:1" in err and "b.oolong:1" in err

    def test_json_frontend_errors_are_machine_readable(
        self, write_source, capsys
    ):
        path = write_source("multi.oolong", "group 1\ngroup 2\n")
        assert main([path, "--format", "json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert [d["code"] for d in data["diagnostics"]] == ["OL002", "OL002"]

    def test_lint_subcommand_also_recovers(self, write_source, capsys):
        path = write_source("multi.oolong", "group 1\nfield 2\n")
        assert lint_main([path]) == 2
        assert capsys.readouterr().err.count("error[OL002]") == 2

    def test_scope_time_budget_flag(self):
        args = build_parser().parse_args(
            ["--scope-time-budget", "0.5", "x.oolong"]
        )
        assert args.scope_time_budget == 0.5
        assert build_parser().parse_args(["x.oolong"]).scope_time_budget is None

    def test_exhausted_scope_budget_times_out_not_hangs(
        self, write_source, capsys
    ):
        from repro.corpus.programs import STACK_VECTOR

        path = write_source("stack.oolong", STACK_VECTOR)
        code = main([path, "--scope-time-budget", "0.000001"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("timed out") == 3
        assert "scope time budget exhausted" in out
        assert "FAILED" in out

    def test_timed_out_json_carries_ol901(self, write_source, capsys):
        from repro.corpus.programs import RATIONAL as R

        path = write_source("good.oolong", R)
        code = main(
            [path, "--scope-time-budget", "0.000001", "--format", "json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        (verdict,) = data["verdicts"]
        assert verdict["status"] == "timed out"
        assert verdict["error"]["code"] == "OL901"

    def test_generous_scope_budget_is_invisible(self, write_source, capsys):
        path = write_source("good.oolong", RATIONAL)
        assert main([path, "--scope-time-budget", "300", "--time-budget", "60"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_internal_crash_exits_two_cleanly(self, write_source, capsys):
        from repro.testing.faults import Fault, FaultPlan, inject

        path = write_source("good.oolong", RATIONAL)
        with inject(FaultPlan((Fault("lex", "raise", hit=0),))):
            code = main([path])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" in err and "FaultError" in err

    def test_internal_error_verdict_exits_one(self, write_source, capsys):
        from repro.testing.faults import Fault, FaultPlan, inject

        path = write_source("good.oolong", RATIONAL)
        with inject(FaultPlan((Fault("prove", "raise", hit=0),))):
            code = main([path, "--time-budget", "60"])
        out = capsys.readouterr().out
        assert code == 1
        assert "internal error" in out
        assert "verification failed internally" in out
