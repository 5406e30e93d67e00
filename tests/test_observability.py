"""Tests for the telemetry subsystem (``repro.obs``).

Spans are ``span`` records of the event journal; everything else is
computed from the records:

* golden Chrome-trace skeleton for a small example;
* schema/shape validation of exported trace JSON;
* span nesting invariants (closure, parent containment, depth);
* a fault-injection run asserting spans still close on injected crashes;
* the shared ``STAGES`` constant between the journal's spans and the
  fault harness;
* metrics computed from the journal and the report;
* ``ProverStats`` surfaced in ``CheckReport.to_dict`` / ``--format json``;
* the CLI flags ``--trace`` / ``--metrics`` / ``--profile`` / ``--stats``,
  and ``--trace`` being the ``events export`` of the run's journal.
"""

import json

import pytest

from repro import obs
from repro.api import check_program, check_program_resilient
from repro.cli import main
from repro.testing.faults import Fault, FaultPlan, STAGES as FAULT_STAGES, inject
from repro.vcgen.checker import ImplStatus

#: The final assert needs quantifier instances (the store axioms): the
#: frame conditions alone are decided by the inclusion lookup.
RATIONAL = """
group value
field num in value
field den in value
proc normalize(r) modifies r.value
impl normalize(r) {
  assume r != null ;
  r.num := 1 ;
  r.den := 1 ;
  assert r.num = 1
}
"""


def traced_check(source=RATIONAL, **kwargs):
    """Check ``source`` under a fresh journal; return it and the report."""
    journal = obs.EventJournal()
    report = check_program(source, events=journal, **kwargs)
    return journal, report


def _spans(journal):
    return obs.spans_of(journal.records)


def _children(journal, span):
    return [s for s in _spans(journal) if s.get("parent") == span["span"]]


# ----------------------------------------------------------------------
# Spans on the journal
# ----------------------------------------------------------------------


class TestTracer:
    def test_null_path_records_nothing(self):
        with obs.span("prove") as handle:
            handle.set(ignored=1)
        assert obs.journal() is None and not obs.active()

    def test_spans_cover_every_pipeline_stage(self):
        journal, report = traced_check()
        assert report.ok
        recorded = {s["name"] for s in _spans(journal) if s["cat"] == obs.CAT_STAGE}
        # lex/parse happen during parse_program; the rest inside check_scope
        assert set(FAULT_STAGES) <= recorded

    def test_stage_names_shared_with_fault_harness(self):
        assert FAULT_STAGES is obs.STAGES

    def test_all_spans_closed_and_nested(self):
        journal, _ = traced_check()
        assert journal.open_spans == []
        spans = {s["span"]: s for s in _spans(journal)}
        depth = {}
        for ident, span in spans.items():
            assert span["dur"] >= 0.0
            parent_id = span.get("parent")
            depth[ident] = 0 if parent_id is None else depth[parent_id] + 1
            if parent_id is not None:
                parent = spans[parent_id]
                assert parent_id < ident
                # a child's interval lies within its parent's
                assert parent["start"] <= span["start"]
                end = span["start"] + span["dur"]
                assert end <= parent["start"] + parent["dur"] + 1e-9
        assert max(depth.values()) == 3  # stage -> implementation -> VC

    def test_stage_implementation_vc_chain(self):
        journal, _ = traced_check()
        (prove,) = [
            s
            for s in _spans(journal)
            if s["name"] == "prove" and s["cat"] == obs.CAT_STAGE
        ]
        (impl,) = _children(journal, prove)
        assert impl["cat"] == obs.CAT_IMPL
        assert impl["name"] == "normalize"
        (vc_span,) = _children(journal, impl)
        assert vc_span["cat"] == obs.CAT_VC
        assert vc_span["args"]["verdict"] == "unsat"
        assert vc_span["args"]["instantiations"] >= 1

    def test_vcgen_span_carries_sizes(self):
        journal, _ = traced_check()
        vc_spans = [
            s["args"]
            for s in _spans(journal)
            if s["cat"] == obs.CAT_VC and "goal_nodes" in s.get("args", {})
        ]
        assert vc_spans and all(
            args["goal_nodes"] > 0 and args["background_axioms"] > 0
            for args in vc_spans
        )

    def test_nested_tracing_restores_outer(self):
        outer, inner = obs.EventJournal("outer"), obs.EventJournal("inner")
        with obs.journaling(outer):
            with obs.journaling(inner):
                assert obs.journal() is inner
                with obs.span("lex"):
                    pass
            assert obs.journal() is outer
        assert obs.journal() is None
        assert [r["event"] for r in inner.records] == ["span"]
        assert outer.records == []


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def traced_metrics(**kwargs):
    journal, report = traced_check(**kwargs)
    return obs.collect_metrics(journal.records, report)


class TestMetrics:
    def test_prover_stats_feed_registry(self):
        metrics = traced_metrics()
        counters = metrics["counters"]
        assert counters["prover.checks"] == 1
        assert counters["prover.instantiations"] >= 1
        assert counters["prover.inclusion_lookups"] >= 1
        assert counters["prover.facts"] > 0
        assert counters["prover.egraph_merges"] > 0
        assert counters["vcgen.vcs"] == 1
        assert counters["vcgen.background_axioms"] > 0
        assert counters["checker.status.verified"] == 1
        by_quant = metrics["labelled"]["prover.instantiations.by_quantifier"]
        assert by_quant and all(count > 0 for count in by_quant.values())

    def test_timers_and_top(self):
        metrics = traced_metrics()
        timer = metrics["timers"]["prover.check_seconds"]
        assert timer["count"] == 1 and timer["total_seconds"] >= 0.0
        assert timer["mean_seconds"] == timer["total_seconds"]
        journal, report = traced_check()
        text = obs.text_report(journal.records, report, top=3)
        hottest = text.split("hottest quantifiers")[1].splitlines()[1:]
        rows = [line.split(": ") for line in hottest if line.startswith("  ")]
        top = [(name.strip(), int(count.split()[0])) for name, count in rows]
        assert 1 <= len(top) <= 3
        assert top == sorted(top, key=lambda kv: (-kv[1], kv[0]))

    def test_registry_to_dict_shape(self):
        payload = traced_metrics()
        assert set(payload) == {"counters", "labelled", "timers"}
        json.dumps(payload)  # must be JSON-serializable as-is


# ----------------------------------------------------------------------
# ProverStats in reports (satellite: stats were computed and dropped)
# ----------------------------------------------------------------------


class TestStatsSurfaced:
    def test_report_json_carries_stats_per_verdict(self):
        _, report = traced_check()
        verdict = report.to_dict()["verdicts"][0]
        stats = verdict["stats"]
        assert stats["instantiations"] >= 1
        assert stats["facts"] > 0 and stats["merges"] > 0
        assert isinstance(stats["per_quantifier"], dict)

    def test_describe_stats_prints_per_quantifier(self):
        _, report = traced_check()
        text = report.describe(stats=True)
        assert "per-quantifier:" in text and "merges=" in text


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


class TestChromeTrace:
    def test_schema_validates(self):
        journal, _ = traced_check()
        payload = obs.chrome_trace(journal.records)
        assert obs.validate_chrome_trace(payload) is None
        json.loads(json.dumps(payload))  # round-trips as JSON

    def test_event_shape(self):
        journal, _ = traced_check()
        events = obs.chrome_trace(journal.records)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta
        assert meta[0]["args"]["name"] == f"oolong-check {journal.run_id}"
        spans = [e for e in complete if e["cat"] != "event"]
        markers = [e for e in complete if e["cat"] == "event"]
        assert len(spans) == len(_spans(journal))
        assert [e["name"] for e in markers] == ["check-start", "check-end"]
        for event in complete:
            assert event["pid"] == 1
            assert event["tid"] == (1 if event in spans else 2)
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["args"], dict)

    def test_golden_skeleton_small_example(self):
        """The (category, name) sequence for RATIONAL, in span-open order."""
        journal, _ = traced_check()
        skeleton = [(s["cat"], s["name"]) for s in _spans(journal)]
        assert skeleton == [
            ("stage", "lex"),
            ("stage", "parse"),
            ("pipeline", "check_scope"),
            ("stage", "wellformed"),
            ("stage", "lint"),
            ("stage", "pivot"),
            ("stage", "vcgen"),
            ("implementation", "normalize"),
            ("vc", "vc normalize"),
            ("stage", "prove"),
            ("implementation", "normalize"),
            ("vc", "vc normalize"),
        ]

    def test_validator_rejects_garbage(self):
        assert obs.validate_chrome_trace({}) is not None
        assert obs.validate_chrome_trace({"traceEvents": []}) is not None
        bad = {"traceEvents": [{"ph": "X", "name": "x"}]}
        assert "missing" in obs.validate_chrome_trace(bad)


# ----------------------------------------------------------------------
# Text profile
# ----------------------------------------------------------------------


class TestTextReport:
    def test_sections_present(self):
        journal, report = traced_check()
        text = obs.text_report(journal.records, report)
        assert "stage breakdown" in text
        assert "slowest VCs" in text
        assert "hottest quantifiers" in text
        assert "prover: 1 check(s)" in text

    def test_deadline_pressure_reported_with_budget(self):
        from repro.prover.core import Limits

        journal = obs.EventJournal()
        report = check_program(RATIONAL, Limits(time_budget=30.0), events=journal)
        text = obs.text_report(journal.records, report)
        assert "deadline pressure: worst" in text


# ----------------------------------------------------------------------
# Fault injection x tracing: spans close on injected crashes
# ----------------------------------------------------------------------


class TestFaultInjectionTracing:
    @pytest.mark.parametrize("stage", ["vcgen", "prove"])
    def test_spans_close_on_injected_crash(self, stage):
        journal = obs.EventJournal()
        with inject(FaultPlan((Fault(stage, "raise"),))) as injector:
            report = check_program_resilient(RATIONAL, events=journal)
        assert injector.fired  # the fault actually triggered
        verdict = report.verdicts[0]
        assert verdict.status is ImplStatus.INTERNAL_ERROR
        assert journal.open_spans == []
        opened = journal.span_ids
        assert sorted(s["span"] for s in _spans(journal)) == list(range(opened))
        errored = [s for s in _spans(journal) if "error" in s]
        assert errored, "the crashing span should record its exception"
        assert any("injected crash" in s["error"] for s in errored)

    def test_trace_of_crashed_run_still_validates(self):
        journal = obs.EventJournal()
        with inject(FaultPlan((Fault("parse", "raise"),))):
            report = check_program_resilient(RATIONAL, events=journal)
        assert report.fatal
        payload = obs.chrome_trace(journal.records)
        assert obs.validate_chrome_trace(payload) is None
        names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
        assert "lex" in names and "parse" in names

    def test_corrupt_fault_closes_spans(self):
        journal = obs.EventJournal()
        with inject(FaultPlan((Fault("prove", "corrupt"),))):
            report = check_program_resilient(RATIONAL, events=journal)
        assert report.verdicts[0].status is ImplStatus.INTERNAL_ERROR
        assert journal.open_spans == []
        assert len(_spans(journal)) == journal.span_ids


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


@pytest.fixture
def write_source(tmp_path):
    def writer(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return writer


class TestCli:
    def test_trace_flag_writes_valid_chrome_trace(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "out.json")
        assert main([source, "--trace", out]) == 0
        with open(out) as handle:
            payload = json.load(handle)
        assert obs.validate_chrome_trace(payload) is None
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert {"stage", "implementation", "vc"} <= cats

    def test_trace_written_even_on_syntax_error(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("bad.oolong", "group group group")
        out = str(tmp_path / "out.json")
        assert main([source, "--trace", out]) == 2
        with open(out) as handle:
            payload = json.load(handle)
        assert obs.validate_chrome_trace(payload) is None

    def test_metrics_flag_writes_registry(self, write_source, tmp_path, capsys):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "metrics.json")
        assert main([source, "--metrics", out]) == 0
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["counters"]["prover.checks"] == 1

    def test_profile_flag_prints_report(self, write_source, capsys):
        source = write_source("good.oolong", RATIONAL)
        assert main([source, "--profile"]) == 0
        text = capsys.readouterr().out
        assert "== profile ==" in text and "slowest VCs" in text

    def test_stats_flag_prints_per_quantifier(self, write_source, capsys):
        source = write_source("good.oolong", RATIONAL)
        assert main([source, "--stats"]) == 0
        assert "per-quantifier:" in capsys.readouterr().out

    def test_json_format_carries_stats_and_metrics(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "out.json")
        assert main([source, "--format", "json", "--trace", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"][0]["stats"]["instantiations"] >= 1
        assert payload["metrics"]["counters"]["prover.checks"] == 1

    def test_no_flags_means_no_tracer(self, write_source, capsys):
        source = write_source("good.oolong", RATIONAL)
        assert main([source]) == 0
        assert obs.journal() is None

    @pytest.mark.parametrize("jobs", [[], ["-j", "2"]])
    def test_trace_is_the_export_of_the_events_journal(
        self, write_source, tmp_path, capsys, jobs
    ):
        source = write_source("good.oolong", RATIONAL)
        trace, events = tmp_path / "t.json", tmp_path / "e.jsonl"
        assert main([source, "--trace", str(trace), "--events", str(events)] + jobs) == 0
        exported = tmp_path / "t2.json"
        assert main(["events", "export", str(events), "--trace", str(exported)]) == 0
        assert trace.read_bytes() == exported.read_bytes()
        assert obs.validate_chrome_trace(json.loads(trace.read_text())) is None
        records = obs.read_journal(str(events))
        assert obs.validate_event_journal(records) == []
        assert {"span", "check-start", "impl-checked"} <= {r["event"] for r in records}
