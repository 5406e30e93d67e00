"""Tests for the telemetry subsystem (``repro.obs``).

Covers the satellite checklist of the observability PR:

* golden Chrome-trace skeleton for a small example;
* schema/shape validation of exported trace JSON;
* span nesting invariants (closure, parent containment, depth);
* a fault-injection run asserting spans still close on injected crashes;
* the shared ``STAGES`` constant between tracer and fault harness;
* ``ProverStats`` surfaced in ``CheckReport.to_dict`` / ``--format json``;
* the CLI flags ``--trace`` / ``--metrics`` / ``--profile`` / ``--stats``.
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
    tracer = obs.Tracer()
    report = check_program(source, tracer=tracer, **kwargs)
    return tracer, report


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------


class TestTracer:
    def test_null_path_records_nothing(self):
        with obs.span("prove") as handle:
            handle.set(ignored=1)
        assert obs.current() is None and not obs.active()

    def test_spans_cover_every_pipeline_stage(self):
        tracer, report = traced_check()
        assert report.ok
        recorded = {s.name for s in tracer.spans if s.category == obs.CAT_STAGE}
        # lex/parse happen during parse_program; the rest inside check_scope
        assert set(FAULT_STAGES) <= recorded

    def test_stage_names_shared_with_fault_harness(self):
        assert FAULT_STAGES is obs.STAGES

    def test_all_spans_closed_and_nested(self):
        tracer, _ = traced_check()
        assert tracer.open_spans == []
        for index, span in enumerate(tracer.spans):
            assert span.closed, f"span {span.name} never closed"
            assert span.duration >= 0.0
            if span.parent is not None:
                parent = tracer.spans[span.parent]
                assert span.parent < index
                assert parent.depth == span.depth - 1
                # a child's interval lies within its parent's
                assert parent.start <= span.start
                assert span.end <= parent.end

    def test_stage_implementation_vc_chain(self):
        tracer, _ = traced_check()
        (prove,) = [
            i
            for i, s in enumerate(tracer.spans)
            if s.name == "prove" and s.category == obs.CAT_STAGE
        ]
        (impl,) = tracer.children_of(prove)
        assert tracer.spans[impl].category == obs.CAT_IMPL
        assert tracer.spans[impl].name == "normalize"
        (vc,) = tracer.children_of(impl)
        vc_span = tracer.spans[vc]
        assert vc_span.category == obs.CAT_VC
        assert vc_span.args["verdict"] == "unsat"
        assert vc_span.args["instantiations"] >= 1

    def test_vcgen_span_carries_sizes(self):
        tracer, _ = traced_check()
        vc_spans = [
            s
            for s in tracer.spans
            if s.category == obs.CAT_VC and "goal_nodes" in s.args
        ]
        assert vc_spans and all(
            s.args["goal_nodes"] > 0 and s.args["background_axioms"] > 0
            for s in vc_spans
        )

    def test_nested_tracing_restores_outer(self):
        outer, inner = obs.Tracer(), obs.Tracer()
        with obs.tracing(outer):
            with obs.tracing(inner):
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_prover_stats_feed_registry(self):
        tracer, _ = traced_check()
        counters = tracer.metrics.counters
        assert counters["prover.checks"] == 1
        assert counters["prover.instantiations"] >= 1
        assert counters["prover.inclusion_lookups"] >= 1
        assert counters["prover.facts"] > 0
        assert counters["prover.egraph_merges"] > 0
        assert counters["vcgen.vcs"] == 1
        assert counters["vcgen.background_axioms"] > 0
        assert counters["checker.status.verified"] == 1
        by_quant = tracer.metrics.labelled[
            "prover.instantiations.by_quantifier"
        ]
        assert by_quant and all(count > 0 for count in by_quant.values())

    def test_timers_and_top(self):
        tracer, _ = traced_check()
        timer = tracer.metrics.timers["prover.check_seconds"]
        assert timer.count == 1 and timer.total >= 0.0
        top = tracer.metrics.top("prover.instantiations.by_quantifier", 3)
        assert len(top) <= 3
        assert top == sorted(top, key=lambda kv: (-kv[1], kv[0]))

    def test_registry_to_dict_shape(self):
        tracer, _ = traced_check()
        payload = tracer.metrics.to_dict()
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
        tracer, _ = traced_check()
        payload = obs.chrome_trace(tracer)
        assert obs.validate_chrome_trace(payload) is None
        json.loads(json.dumps(payload))  # round-trips as JSON

    def test_event_shape(self):
        tracer, _ = traced_check()
        events = obs.chrome_trace(tracer)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta and meta[0]["args"]["name"] == "oolong-check"
        assert len(complete) == len(tracer.spans)
        for event in complete:
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["args"], dict)

    def test_golden_skeleton_small_example(self):
        """The (category, name) sequence for RATIONAL, in span-open order."""
        tracer, _ = traced_check()
        skeleton = [(s.category, s.name) for s in tracer.spans]
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
        tracer, _ = traced_check()
        text = obs.text_report(tracer)
        assert "stage breakdown" in text
        assert "slowest VCs" in text
        assert "hottest quantifiers" in text
        assert "prover: 1 check(s)" in text

    def test_deadline_pressure_reported_with_budget(self):
        from repro.prover.core import Limits

        tracer = obs.Tracer()
        check_program(RATIONAL, Limits(time_budget=30.0), tracer=tracer)
        text = obs.text_report(tracer)
        assert "deadline pressure: worst" in text


# ----------------------------------------------------------------------
# Fault injection x tracing: spans close on injected crashes
# ----------------------------------------------------------------------


class TestFaultInjectionTracing:
    @pytest.mark.parametrize("stage", ["vcgen", "prove"])
    def test_spans_close_on_injected_crash(self, stage):
        tracer = obs.Tracer()
        with inject(FaultPlan((Fault(stage, "raise"),))) as injector:
            report = check_program_resilient(RATIONAL, tracer=tracer)
        assert injector.fired  # the fault actually triggered
        verdict = report.verdicts[0]
        assert verdict.status is ImplStatus.INTERNAL_ERROR
        assert tracer.open_spans == []
        assert all(span.closed for span in tracer.spans)
        errored = [s for s in tracer.spans if s.error is not None]
        assert errored, "the crashing span should record its exception"
        assert any("injected crash" in s.error for s in errored)

    def test_trace_of_crashed_run_still_validates(self):
        tracer = obs.Tracer()
        with inject(FaultPlan((Fault("parse", "raise"),))):
            report = check_program_resilient(RATIONAL, tracer=tracer)
        assert report.fatal
        payload = obs.chrome_trace(tracer)
        assert obs.validate_chrome_trace(payload) is None
        names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
        assert "lex" in names and "parse" in names

    def test_corrupt_fault_closes_spans(self):
        tracer = obs.Tracer()
        with inject(FaultPlan((Fault("prove", "corrupt"),))):
            report = check_program_resilient(RATIONAL, tracer=tracer)
        assert report.verdicts[0].status is ImplStatus.INTERNAL_ERROR
        assert all(span.closed for span in tracer.spans)


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
        assert obs.current() is None
