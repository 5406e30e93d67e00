"""The journal-analytics layer: ``events report``/``export``.

* **Golden report** — a ``-j 2`` run with planted OL901 (hard timeout)
  and OL902 (quarantine) faults: the report names a non-empty critical
  path and per-worker utilization, its OL901–OL903 counts exactly match
  the run's ``CheckReport`` tallies, the timeout and quarantine rows
  appear in the text rendering, and the journal's Chrome trace export
  validates. The worker spans the same traced run absorbs assemble into
  a valid trace with no negative or pre-run-start timestamps.
* **Fuzzed fault matrix** — ``report`` never crashes on any
  schema-valid journal a faulted run can produce, and its JSON always
  validates against ``report.schema.json``.
* **CLI** — ``events report``/``events export`` round-trip through
  files; error paths exit 2.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from repro import obs
from repro.cli import main
from repro.corpus.generators import generate_impl_farm
from repro.obs.analyze import AnalysisError, analyze_journal
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits
from repro.testing.faults import SUPERVISOR_STAGES, Fault, FaultPlan, inject
from repro.vcgen.checker import check_scope

LIMITS = Limits(time_budget=120.0)

SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))


def _farm_scope(impls=4, fields=4):
    scope = Scope.from_source(generate_impl_farm(impls, fields))
    check_well_formed(scope)
    return scope


def _synthetic_journal():
    """A hand-driven journal shaped like a ``-j 2`` run."""
    journal = obs.EventJournal()
    journal.emit("check-start", impls=3, backend="parallel")
    journal.emit("worker-spawn", worker="0", pid=101)
    journal.emit("worker-spawn", worker="1", pid=102)
    for job, (impl, worker) in enumerate([("a", "0"), ("b", "1"), ("c", "0")]):
        journal.emit(
            "job-assigned",
            job=job,
            impl=impl,
            index=0,
            worker=worker,
            attempt=0,
        )
        journal.emit(
            "impl-checked",
            impl=impl,
            index=0,
            status="verified",
            worker=worker,
            attempt=0,
        )
    journal.emit("check-end", ok=True, impls=3)
    return journal


class TestAnalyzeUnit:
    def test_empty_journal_raises(self):
        with pytest.raises(AnalysisError):
            analyze_journal([])

    def test_unknown_run_raises(self):
        journal = _synthetic_journal()
        with pytest.raises(AnalysisError):
            analyze_journal(journal.records, "no-such-run")

    def test_synthetic_run_reconstructs(self):
        journal = _synthetic_journal()
        report = analyze_journal(journal.records)
        assert obs.validate_events_report(report) == []
        assert report["run_id"] == journal.run_id
        assert report["ok"] is True
        assert report["backend"] == "parallel"
        assert report["impls"] == 3
        workers = {row["worker"]: row for row in report["workers"]}
        assert workers["0"]["jobs"] == 2
        assert workers["1"]["jobs"] == 1
        assert report["statuses"] == {"verified": 3}
        # Three sequential grants chain back-to-back.
        assert len(report["critical_path"]["chain"]) >= 1

    def test_multi_run_files_analyze_per_run(self):
        first = _synthetic_journal()
        second = _synthetic_journal()
        merged = first.records + second.records
        assert obs.validate_event_journal(merged) == []
        assert obs.run_ids(merged) == [first.run_id, second.run_id]
        for run in (first.run_id, second.run_id):
            report = analyze_journal(merged, run)
            assert report["run_id"] == run
            assert report["events"] == len(first.records)

    def test_preresolved_reannouncements_dedupe(self):
        journal = obs.EventJournal()
        journal.emit("check-start", impls=1, backend="parallel")
        journal.emit(
            "impl-checked", impl="a", index=0, status="timeout", code="OL901"
        )
        # A journal that announces the same decided impl twice.
        journal.emit(
            "impl-checked",
            impl="a",
            index=0,
            status="timeout",
            code="OL901",
            preresolved=True,
        )
        report = analyze_journal(journal.records)
        assert report["statuses"] == {"timeout": 2} or report["statuses"] == {
            "timeout": 1
        }
        assert report["faults"]["by_code"]["OL901"] == 1

    def test_journal_trace_of_synthetic_run_validates(self):
        journal = _synthetic_journal()
        payload = obs.journal_chrome_trace(journal.records)
        assert obs.validate_chrome_trace(payload) is None
        spans = [
            e
            for e in payload["traceEvents"]
            if e.get("ph") == "X" and e.get("cat") == "implementation"
        ]
        assert len(spans) == 3
        assert {e["args"]["worker"] for e in spans} == {"0", "1"}


class TestGoldenReport:
    """The acceptance-criteria run: ``-j 2`` with planted OL901 and
    OL902 faults."""

    @pytest.fixture(scope="class")
    def golden(self):
        scope = _farm_scope(impls=8, fields=4)
        plan = FaultPlan(
            (
                Fault("worker-hang", "raise", hit=0),  # job 0 -> OL901
                Fault("worker-kill", "raise", hit=1),  # job 1 -> OL902
            )
        )
        journal = obs.EventJournal()
        tracer = obs.Tracer()
        with obs.journaling(journal), obs.tracing(tracer), inject(plan):
            report = check_scope(
                scope, LIMITS, parallel=2, job_timeout=0.5, max_retries=0
            )
        return scope, journal, tracer, report

    def test_journal_validates(self, golden):
        _, journal, _, _ = golden
        assert obs.validate_event_journal(journal.records) == []

    def test_report_counts_match_checkreport(self, golden):
        _, journal, _, report = golden
        analyzed = analyze_journal(journal.records)
        assert obs.validate_events_report(analyzed) == []
        ol901 = sum(
            1
            for v in report.verdicts
            if v.error is not None and v.error.code == "OL901"
        )
        ol902 = sum(
            1
            for v in report.verdicts
            if v.error is not None and v.error.code == "OL902"
        )
        ol903 = sum(1 for d in report.diagnostics if d.code == "OL903")
        assert ol901 >= 1 and ol902 >= 1
        assert analyzed["faults"]["by_code"] == {
            "OL901": ol901,
            "OL902": ol902,
            "OL903": ol903,
        }
        assert analyzed["backend"] == "parallel"
        assert analyzed["impls"] == len(report.verdicts)

    def test_report_names_critical_path_and_utilization(self, golden):
        _, journal, _, _ = golden
        analyzed = analyze_journal(journal.records)
        chain = analyzed["critical_path"]["chain"]
        assert chain, "critical path must be non-empty for a -j run"
        assert all(link["impl"] for link in chain)
        assert analyzed["critical_path"]["seconds"] > 0
        workers = analyzed["workers"]
        assert workers, "per-worker utilization must be reported"
        assert sum(row["jobs"] for row in workers) >= len(chain)
        assert any(row["busy_seconds"] > 0 for row in workers)

    def test_text_rendering_shows_fault_rows(self, golden):
        _, journal, _, _ = golden
        text = obs.render_report_text(analyze_journal(journal.records))
        assert "[OL901] job-hard-timeout" in text
        assert "[OL902] job-quarantined" in text
        assert "critical path" in text
        assert "workers" in text

    def test_journal_trace_export_validates(self, golden):
        _, journal, _, _ = golden
        payload = obs.journal_chrome_trace(journal.records)
        assert obs.validate_chrome_trace(payload) is None
        lanes = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert {"worker 0", "worker 1"} <= lanes

    def test_assembled_tracer_trace_validates(self, golden):
        """The worker spans shipped home with each result assemble into
        one coherent, valid trace."""
        _, _, tracer, _ = golden
        payload = obs.chrome_trace(tracer)
        assert obs.validate_chrome_trace(payload) is None
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert all(e["ts"] >= 0 for e in spans)
        assert all(e["dur"] >= 0 for e in spans)
        # The shipped worker spans really came home: job spans have
        # children absorbed from the workers' tracers.
        impl_spans = [s for s in tracer.spans if s.category == "implementation"]
        assert impl_spans
        assert all(s.start >= tracer.origin for s in tracer.spans)


class TestFuzzedReports:
    @pytest.mark.parametrize("seed", range(SEED_OFFSET, SEED_OFFSET + 3))
    def test_report_never_crashes_on_faulted_journals(self, seed):
        scope = _farm_scope()
        plan = FaultPlan.fuzz(seed, stages=SUPERVISOR_STAGES, max_hit=3)
        journal = obs.EventJournal()
        with obs.journaling(journal), inject(plan):
            check_scope(scope, LIMITS, parallel=2, max_retries=4)
        detail = f"seed {seed}: {plan.describe()}"
        assert obs.validate_event_journal(journal.records) == [], detail
        report = analyze_journal(journal.records)
        assert obs.validate_events_report(report) == [], detail
        text = obs.render_report_text(report)
        assert report["run_id"] in text, detail
        payload = obs.journal_chrome_trace(journal.records)
        assert obs.validate_chrome_trace(payload) is None, detail


class TestCliEvents:
    def _journal_file(self, tmp_path):
        journal = _synthetic_journal()
        path = tmp_path / "events.jsonl"
        journal.write(str(path))
        return str(path), journal.run_id

    def test_report_text_to_stdout(self, tmp_path, capsys):
        path, run_id = self._journal_file(tmp_path)
        assert main(["events", "report", path]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "critical path" in out

    def test_report_json_validates(self, tmp_path, capsys):
        path, _ = self._journal_file(tmp_path)
        assert main(["events", "report", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert obs.validate_events_report(payload) == []

    def test_report_out_file_and_run_selection(self, tmp_path, capsys):
        path, run_id = self._journal_file(tmp_path)
        out_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "events",
                    "report",
                    path,
                    "--format",
                    "json",
                    "--run",
                    run_id,
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["run_id"] == run_id

    def test_export_trace(self, tmp_path, capsys):
        path, _ = self._journal_file(tmp_path)
        trace_path = tmp_path / "trace.json"
        assert (
            main(["events", "export", path, "--trace", str(trace_path)]) == 0
        )
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        assert obs.validate_chrome_trace(payload) is None

    def test_error_paths_exit_2(self, tmp_path, capsys):
        path, _ = self._journal_file(tmp_path)
        assert main(["events", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert main(["events", "export", path]) == 2  # missing --trace
        assert main(["events", "report", path, "--run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_report_on_real_parallel_run(self, tmp_path, capsys):
        source = tmp_path / "farm.oolong"
        source.write_text(generate_impl_farm(4, 3))
        events = tmp_path / "events.jsonl"
        out = io.StringIO()
        with redirect_stdout(out):
            rc = main(
                [
                    str(source),
                    "--events",
                    str(events),
                    "-j",
                    "2",
                    "--time-budget",
                    "120",
                ]
            )
        assert rc == 0
        assert main(["events", "report", str(events)]) == 0
        text = capsys.readouterr().out
        assert "backend=parallel" in text
        assert "critical path" in text
