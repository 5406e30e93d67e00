"""Crash-safety chaos tests.

The contract under test: with ``--run-dir`` every decided verdict is
durable (fsync'd) before the run can observe it, so a coordinator killed
at *any* point — SIGKILL mid-commit, mid-merge, with a torn ledger tail,
or with duplicated records — resumes to a **byte-identical** report
without proving any committed implementation twice.
"""

import json
import os

import pytest

from repro.analysis.diagnostics import Diagnostic, diagnostic_from_dict
from repro.corpus.generators import generate_impl_farm
from repro.obs.events import read_journal
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel.cache import (
    _stats_from_dict,
    encode_verdict,
    payload_to_verdict,
)
from repro.parallel.ledger import (
    CHAOS_EXIT_CODE,
    LEDGER_NAME,
    PREVIOUS_NAME,
    RunLedger,
)
from repro.prover.core import Limits
from repro.testing.chaos import (
    CHAOS_ENV,
    parse_chaos_spec,
    plan_from_env,
    run_cli,
)
from repro.testing.faults import COORDINATOR_STAGES
from repro.vcgen.checker import ImplStatus, ImplVerdict, check_scope

LIMITS = Limits(time_budget=60.0)

FARM = generate_impl_farm(3, 2)


def _scope(source=FARM):
    scope = Scope.from_source(source)
    check_well_formed(scope)
    return scope


def _ledger_path(run_dir):
    return os.path.join(str(run_dir), LEDGER_NAME)


# ---------------------------------------------------------------------------
# The chaos spec and its env-var transport
# ---------------------------------------------------------------------------


class TestChaosSpec:
    def test_parses_stages_and_hits(self):
        plan = parse_chaos_spec("kill-coordinator@2, truncate-ledger-tail")
        assert [(f.stage, f.hit) for f in plan.faults] == [
            ("kill-coordinator", 2),
            ("truncate-ledger-tail", 0),
        ]

    def test_all_coordinator_stages_are_known(self):
        spec = ",".join(COORDINATOR_STAGES)
        plan = parse_chaos_spec(spec)
        assert len(plan.faults) == len(COORDINATOR_STAGES)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            parse_chaos_spec("explode-the-moon@1")

    def test_bad_hit_rejected(self):
        with pytest.raises(ValueError):
            parse_chaos_spec("kill-coordinator@soon")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_chaos_spec(" , ")

    def test_plan_from_env(self):
        assert plan_from_env({}) is None
        assert plan_from_env({CHAOS_ENV: ""}) is None
        plan = plan_from_env({CHAOS_ENV: "kill-during-merge@1"})
        assert plan.faults[0].stage == "kill-during-merge"


# ---------------------------------------------------------------------------
# Verdict round-trip through the shared verdict codec (ledger + cache)
# ---------------------------------------------------------------------------


class TestVerdictRoundTrip:
    def test_decided_verdicts_round_trip(self):
        scope = _scope()
        report = check_scope(scope, LIMITS)
        for verdict in report.verdicts:
            payload = json.loads(json.dumps(encode_verdict(verdict)))
            back = payload_to_verdict(payload, verdict.impl, verdict.index)
            assert back.status is verdict.status
            assert back.stats.to_dict() == verdict.stats.to_dict()
            assert (back.failed_obligation is None) == (
                verdict.failed_obligation is None
            )

    def test_transient_verdict_with_error_round_trips(self):
        # The cache refuses transient statuses; the ledger must not —
        # a resumed run reports the interrupted run verbatim.
        scope = _scope()
        impl = scope.impls_of("job0")[0]
        verdict = ImplVerdict(
            impl=impl,
            index=0,
            status=ImplStatus.INTERNAL_ERROR,
            stats=_stats_from_dict({}),
            error=Diagnostic(
                code="OL902",
                message="worker died 3 times; job quarantined",
                impl="job0",
            ),
        )
        payload = json.loads(json.dumps(encode_verdict(verdict)))
        back = payload_to_verdict(payload, impl, 0)
        assert back.status is ImplStatus.INTERNAL_ERROR
        assert back.error is not None
        assert back.error.code == "OL902"
        assert back.error.message == verdict.error.message
        assert back.error.impl == "job0"

    def test_diagnostic_from_dict_is_exact_inverse(self):
        diag = Diagnostic(code="OL905", message="ledger damaged", impl="p")
        assert diagnostic_from_dict(diag.to_dict()) == diag

    def test_diagnostic_from_dict_rejects_unknown_code(self):
        with pytest.raises(KeyError):
            diagnostic_from_dict({"code": "OL999", "message": "?"})


# ---------------------------------------------------------------------------
# The run ledger itself (in-process)
# ---------------------------------------------------------------------------


class TestRunLedger:
    def _committed(self, tmp_path, scope=None):
        scope = scope or _scope()
        report = check_scope(scope, LIMITS)
        ledger = RunLedger(str(tmp_path), scope, LIMITS)
        for verdict in report.verdicts:
            ledger.commit(verdict)
        ledger.close()
        return scope, report

    def test_commit_and_resume_preloads(self, tmp_path):
        scope, report = self._committed(tmp_path)
        resumed = RunLedger(str(tmp_path), scope, LIMITS, resume=True)
        assert len(resumed.preloaded) == len(report.verdicts)
        assert resumed.stale == 0 and resumed.skipped == 0
        for verdict in report.verdicts:
            back = resumed.preloaded[(verdict.impl.name, verdict.index)]
            assert back.status is verdict.status
        resumed.close()

    def test_commit_is_idempotent_per_key(self, tmp_path):
        scope = _scope()
        report = check_scope(scope, LIMITS)
        ledger = RunLedger(str(tmp_path), scope, LIMITS)
        ledger.commit(report.verdicts[0])
        ledger.commit(report.verdicts[0])
        assert ledger.commits == 1
        assert ledger.deduped == 1
        ledger.close()
        with open(_ledger_path(tmp_path)) as handle:
            kinds = [json.loads(line)["record"] for line in handle]
        assert kinds.count("verdict-committed") == 1

    def test_fresh_run_rotates_stale_ledger(self, tmp_path):
        scope, _ = self._committed(tmp_path)
        again = RunLedger(str(tmp_path), scope, LIMITS)  # no resume
        assert again.rotated
        assert not again.preloaded
        assert os.path.exists(os.path.join(str(tmp_path), PREVIOUS_NAME))
        again.close()

    def test_torn_tail_is_skipped_and_trimmed(self, tmp_path):
        scope, report = self._committed(tmp_path)
        with open(_ledger_path(tmp_path), "a") as handle:
            handle.write('{"record": "verdict-committed", "key": "tor')
        resumed = RunLedger(str(tmp_path), scope, LIMITS, resume=True)
        assert len(resumed.preloaded) == len(report.verdicts)
        assert any("torn final record" in reason for _, reason in resumed.warnings)
        resumed.close()
        with open(_ledger_path(tmp_path)) as handle:
            data = handle.read()
        assert '"tor' not in data  # debris trimmed before appending
        assert data.endswith("\n")

    def test_checksum_mismatch_skips_record(self, tmp_path):
        scope, report = self._committed(tmp_path)
        path = _ledger_path(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        record = json.loads(lines[1])
        assert record["record"] == "verdict-committed"
        record["verdict"]["status"] = "not proved"  # tamper, keep checksum
        lines[1] = json.dumps(record, sort_keys=True) + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        resumed = RunLedger(str(tmp_path), scope, LIMITS, resume=True)
        assert resumed.skipped == 1
        assert len(resumed.preloaded) == len(report.verdicts) - 1
        assert any("checksum mismatch" in r for _, r in resumed.warnings)
        resumed.close()

    def test_changed_limits_make_records_stale(self, tmp_path):
        scope, report = self._committed(tmp_path)
        other = Limits(time_budget=59.0)
        resumed = RunLedger(str(tmp_path), scope, other, resume=True)
        assert resumed.stale == len(report.verdicts)
        assert not resumed.preloaded
        resumed.close()

    def test_version_skew_discards_whole_ledger(self, tmp_path):
        scope, _ = self._committed(tmp_path)
        path = _ledger_path(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["code_version"] = "0.0.0+elsewhere"
        lines[0] = json.dumps(header, sort_keys=True) + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        resumed = RunLedger(str(tmp_path), scope, LIMITS, resume=True)
        assert resumed.discarded is not None
        assert not resumed.preloaded
        assert resumed.rotated
        assert os.path.exists(os.path.join(str(tmp_path), PREVIOUS_NAME))
        resumed.close()

    def test_checker_reports_ledger_summary(self, tmp_path):
        scope = _scope()
        report = check_scope(scope, LIMITS, run_dir=str(tmp_path))
        assert report.ledger_summary is not None
        assert report.ledger_summary["commits"] == len(report.verdicts)
        assert report.ledger_summary["warnings"] == []

    def test_in_process_resume_is_identical(self, tmp_path):
        scope = _scope()
        baseline = check_scope(scope, LIMITS)
        first = check_scope(scope, LIMITS, run_dir=str(tmp_path))
        resumed = check_scope(
            _scope(), LIMITS, run_dir=str(tmp_path), resume=True
        )
        assert resumed.ledger_summary["resumed"] == len(baseline.verdicts)
        assert resumed.ledger_summary["commits"] == 0
        # The resumed report replays the *ledgered* run verbatim, down
        # to the recorded prover stats; it also matches any fresh run
        # on everything deterministic (the whole stats=False report).
        # Only the report-level wall clock is this run's own.
        resumed_dict, first_dict = resumed.to_dict(), first.to_dict()
        resumed_dict.pop("elapsed", None)
        first_dict.pop("elapsed", None)
        assert resumed_dict == first_dict
        assert resumed.describe(stats=True) == first.describe(stats=True)
        assert resumed.describe() == baseline.describe()


# ---------------------------------------------------------------------------
# Torn journal tails everywhere JSONL is read back
# ---------------------------------------------------------------------------


class TestTornJournalTail:
    def test_torn_final_line_always_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "check-start"}\n{"event": "tor')
        skipped = []
        records = read_journal(
            str(path), on_skip=lambda lineno, reason: skipped.append(lineno)
        )
        assert len(records) == 1
        assert skipped == [2]

    def test_mid_file_damage_raises_under_strict(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('not json\n{"event": "check-start"}\n')
        with pytest.raises(ValueError):
            read_journal(str(path))
        records = read_journal(str(path), strict=False)
        assert len(records) == 1

    def test_events_report_survives_torn_tail(self, tmp_path, write_farm):
        source = write_farm()
        events = tmp_path / "events.jsonl"
        code, _, _ = run_cli([source, "--events", str(events)])
        assert code == 0
        with open(events, "a") as handle:
            handle.write('{"event": "tor')
        code, out, err = run_cli(["events", "report", str(events)])
        assert code == 0
        assert "OL905" in err and "torn final record" in err
        assert "impls=3" in out


# ---------------------------------------------------------------------------
# The SIGKILL matrix: kill the coordinator, resume, diff byte-for-byte
# ---------------------------------------------------------------------------


@pytest.fixture
def write_farm(tmp_path):
    def write():
        path = tmp_path / "farm.oolong"
        path.write_text(FARM)
        return str(path)

    return write


BACKENDS = [
    pytest.param([], id="serial"),
    pytest.param(["-j", "2"], id="parallel"),
]

KILL_STAGES = [
    pytest.param("kill-coordinator@1", id="kill-mid-commit"),
    pytest.param("kill-during-merge@1", id="kill-mid-merge"),
]


class TestCoordinatorKillMatrix:
    @pytest.mark.parametrize("extra", BACKENDS)
    @pytest.mark.parametrize("chaos", KILL_STAGES)
    def test_kill_then_resume_byte_identical(
        self, tmp_path, write_farm, extra, chaos
    ):
        source = write_farm()
        run_dir = str(tmp_path / "run")
        events = str(tmp_path / "resume-events.jsonl")

        base_code, base_out, _ = run_cli([source] + extra)
        assert base_code == 0

        code, _, _ = run_cli(
            [source, "--run-dir", run_dir] + extra, chaos=chaos
        )
        assert code == CHAOS_EXIT_CODE  # SIGKILL model: nothing survives
        ledger = _ledger_path(run_dir)
        assert os.path.exists(ledger)
        committed = sum(
            1
            for record in read_journal(ledger, strict=False)
            if record.get("record") == "verdict-committed"
        )
        assert committed >= 1  # the fsync'd prefix survived the kill

        code, out, err = run_cli(
            [source, "--run-dir", run_dir, "--resume", "--events", events]
            + extra
        )
        assert code == base_code
        assert out == base_out  # byte-identical resumed report

        # No implementation is proved twice: every committed verdict is
        # replayed as preresolved, only the remainder is checked fresh.
        summary = json.loads(
            open(os.path.join(run_dir, "summary.json")).read()
        )
        records = read_journal(events, strict=False)
        fresh = {
            (r["impl"], r["index"])
            for r in records
            if r.get("event") == "impl-checked" and not r.get("preresolved")
        }
        replayed = {
            (r["impl"], r["index"])
            for r in records
            if r.get("event") == "impl-checked" and r.get("preresolved")
        }
        assert len(replayed) == summary["resumed"] >= committed
        assert len(fresh) == summary["impls"] - summary["resumed"]
        assert not (fresh & replayed)

    def test_truncated_tail_resumes_identically(self, tmp_path, write_farm):
        source = write_farm()
        run_dir = str(tmp_path / "run")
        base_code, base_out, _ = run_cli([source])
        code, _, _ = run_cli(
            [source, "--run-dir", run_dir],
            chaos="truncate-ledger-tail@2,kill-coordinator@2",
        )
        assert code == CHAOS_EXIT_CODE
        code, out, err = run_cli([source, "--run-dir", run_dir, "--resume"])
        assert code == base_code
        assert out == base_out
        assert "OL905" in err and "torn final record" in err

    def test_duplicate_commit_resumes_identically(self, tmp_path, write_farm):
        source = write_farm()
        run_dir = str(tmp_path / "run")
        base_code, base_out, _ = run_cli([source])
        code, _, _ = run_cli(
            [source, "--run-dir", run_dir], chaos="duplicate-commit@0"
        )
        assert code == base_code  # duplication alone does not kill the run
        code, out, err = run_cli([source, "--run-dir", run_dir, "--resume"])
        assert code == base_code
        assert out == base_out
        assert "OL905" in err and "duplicate record" in err

    def test_resume_without_run_dir_is_usage_error(self, write_farm):
        code, _, err = run_cli([write_farm(), "--resume"])
        assert code == 2
        assert "--run-dir" in err
