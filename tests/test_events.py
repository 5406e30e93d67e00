"""The event journal and the progress renderer.

* **Journal core** — kinds are validated at emit time, sequence numbers
  are a total order, listeners observe records in order, JSONL round
  trips, and the disabled path stays a no-op.
* **Schema** — every journal a real run produces (serial, ``-j``,
  seeded fault matrices) validates against the in-tree
  ``events.schema.json``, including the journal-level seq/t_mono
  invariants; hand-built garbage is rejected.
* **Correlation** — OL901/OL902/OL903 outcomes each appear as the
  matching journal event carrying the code, correlated to jobs.
* **Spans** — a run's journal carries its spans as ``span`` records,
  grafted worker spans included, and still validates.
* **CLI** — ``--metrics`` writes JSON only: ``--metrics-format`` is a
  usage error.
"""

import json
import os

import pytest

from repro import obs
from repro.api import check_program
from repro.cli import main
from repro.corpus.generators import generate_impl_farm
from repro.obs import events as events_module
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits
from repro.testing.faults import SUPERVISOR_STAGES, Fault, FaultPlan, inject
from repro.vcgen.checker import check_scope

LIMITS = Limits(time_budget=60.0)

RATIONAL = """
group value
field num in value
field den in value
proc normalize(r) modifies r.value
impl normalize(r) {
  assume r != null ;
  r.num := 1 ;
  r.den := 1
}
"""

SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))


def _farm_scope(impls=4, fields=4):
    scope = Scope.from_source(generate_impl_farm(impls, fields))
    check_well_formed(scope)
    return scope


def _journaled_check(source=RATIONAL, **kwargs):
    journal = obs.EventJournal()
    report = check_program(source, LIMITS, events=journal, **kwargs)
    return journal, report


@pytest.fixture
def write_source(tmp_path):
    def writer(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return writer


# ----------------------------------------------------------------------
# Journal core
# ----------------------------------------------------------------------


class TestJournal:
    def test_emit_rejects_unknown_kinds(self):
        journal = obs.EventJournal()
        with pytest.raises(ValueError, match="unknown event kind"):
            journal.emit("lease-grunted")

    def test_none_fields_are_dropped(self):
        journal = obs.EventJournal()
        record = journal.emit("cache-hit", key="abc", worker=None)
        assert record["key"] == "abc"
        assert "worker" not in record

    def test_seq_is_a_total_order_and_t_mono_monotone(self):
        journal = obs.EventJournal()
        for _ in range(20):
            journal.emit("cache-miss")
        seqs = [record["seq"] for record in journal.records]
        assert seqs == list(range(20))
        monos = [record["t_mono"] for record in journal.records]
        assert monos == sorted(monos)

    def test_listeners_observe_in_sequence_order(self):
        journal = obs.EventJournal()
        seen = []
        journal.add_listener(lambda record: seen.append(record["seq"]))
        for _ in range(5):
            journal.emit("cache-hit")
        assert seen == [0, 1, 2, 3, 4]

    def test_broken_listener_never_fails_emit(self):
        journal = obs.EventJournal()
        journal.add_listener(lambda record: 1 / 0)
        journal.emit("cache-hit")
        assert len(journal) == 1

    def test_jsonl_round_trips(self, tmp_path):
        journal = obs.EventJournal(run_id="rt")
        journal.emit("check-start", impls=3, backend="serial")
        journal.emit("check-end", ok=True, impls=3)
        path = str(tmp_path / "deep" / "events.jsonl")
        journal.write(path)
        records = obs.read_journal(path)
        assert records == journal.records

    def test_counts_by_kind(self):
        journal = obs.EventJournal()
        journal.emit("cache-hit")
        journal.emit("cache-hit")
        journal.emit("cache-miss")
        assert journal.counts() == {"cache-hit": 2, "cache-miss": 1}

    def test_disabled_path_is_a_no_op(self):
        assert events_module.journal() is None
        events_module.emit("cache-hit", key="ignored")  # must not raise

    def test_journaling_installs_and_restores(self):
        outer, inner = obs.EventJournal(), obs.EventJournal()
        with obs.journaling(outer):
            with obs.journaling(inner):
                events_module.emit("cache-hit")
            events_module.emit("cache-miss")
        assert events_module.journal() is None
        assert inner.counts() == {"cache-hit": 1}
        assert outer.counts() == {"cache-miss": 1}

    def test_journaling_none_is_passthrough(self):
        with obs.journaling(None) as installed:
            assert installed is None
            assert events_module.journal() is None


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------


class TestSchema:
    def test_kinds_match_schema_enum(self):
        schema_path = os.path.join(
            os.path.dirname(events_module.__file__), "events.schema.json"
        )
        with open(schema_path) as handle:
            schema = json.load(handle)
        assert set(schema["properties"]["event"]["enum"]) == set(
            obs.EVENT_KINDS
        )

    def test_validator_rejects_garbage(self):
        base = {
            "event": "cache-hit",
            "run_id": "r",
            "seq": 0,
            "t_mono": 1.0,
            "t_wall": 2.0,
        }
        assert obs.validate_event(base) == []
        assert obs.validate_event({**base, "event": "nope"})
        missing = dict(base)
        del missing["seq"]
        assert obs.validate_event(missing)
        assert obs.validate_event({**base, "surprise": 1})
        assert obs.validate_event({**base, "seq": "zero"})

    def test_journal_invariants(self):
        def rec(seq, t_mono, run_id="r"):
            return {
                "event": "cache-hit",
                "run_id": run_id,
                "seq": seq,
                "t_mono": t_mono,
                "t_wall": 0.0,
            }

        assert obs.validate_event_journal([rec(0, 1.0), rec(1, 2.0)]) == []
        # seq must strictly increase per run_id
        assert (
            obs.validate_event_journal([rec(1, 1.0), rec(1, 2.0)])
        )
        # t_mono must not go backwards per run_id
        assert (
            obs.validate_event_journal([rec(0, 2.0), rec(1, 1.0)])
        )
        # independent run_ids are teased apart
        assert (
            obs.validate_event_journal(
                [rec(0, 5.0, "a"), rec(0, 1.0, "b"), rec(1, 6.0, "a")]
            )
            == []
        )


# ----------------------------------------------------------------------
# What real runs journal
# ----------------------------------------------------------------------


class TestRunJournals:
    def test_serial_run(self):
        journal, report = _journaled_check()
        assert report.ok
        assert obs.validate_event_journal(journal.records) == []
        counts = journal.counts()
        assert counts["check-start"] == 1
        assert counts["check-end"] == 1
        assert counts["impl-checked"] == 1
        (start,) = [r for r in journal.records if r["event"] == "check-start"]
        assert start["backend"] == "serial"
        assert start["impls"] == 1

    def test_parallel_run(self):
        scope = _farm_scope()
        journal = obs.EventJournal()
        with obs.journaling(journal):
            report = check_scope(scope, LIMITS, parallel=2)
        assert report.ok
        assert obs.validate_event_journal(journal.records) == []
        counts = journal.counts()
        assert counts["worker-spawn"] == 2
        assert counts["job-assigned"] >= len(report.verdicts)
        assert counts["impl-checked"] == len(report.verdicts)
        # Each job's vcgen and prove spans came home under its span.
        spans = {s["span"]: s for s in obs.spans_of(journal.records)}
        grafted = [
            s for s in spans.values()
            if s["name"] in ("vcgen", "prove")
            and spans[s["parent"]]["cat"] == obs.CAT_IMPL
        ]
        assert len(grafted) == 2 * len(report.verdicts)

    def test_quarantine_appears_as_ol902_events(self):
        scope = _farm_scope()
        plan = FaultPlan((Fault("worker-kill", "raise", hit=1),))
        journal = obs.EventJournal()
        with obs.journaling(journal), inject(plan):
            check_scope(scope, LIMITS, parallel=2, max_retries=0)
        assert obs.validate_event_journal(journal.records) == []
        quarantined = [
            r for r in journal.records if r["event"] == "job-quarantined"
        ]
        assert len(quarantined) == 1
        assert quarantined[0]["code"] == "OL902"
        deaths = [r for r in journal.records if r["event"] == "worker-died"]
        assert any(r.get("job") == quarantined[0]["job"] for r in deaths)
        checked = {
            (r["impl"], r["index"]): r
            for r in journal.records
            if r["event"] == "impl-checked"
        }
        key = (quarantined[0]["impl"], quarantined[0]["index"])
        assert checked[key]["code"] == "OL902"

    def test_hard_timeout_appears_as_ol901_event(self):
        scope = _farm_scope()
        plan = FaultPlan((Fault("worker-hang", "raise", hit=0),))
        journal = obs.EventJournal()
        with obs.journaling(journal), inject(plan):
            check_scope(scope, LIMITS, parallel=2, job_timeout=0.4)
        assert obs.validate_event_journal(journal.records) == []
        timeouts = [
            r for r in journal.records if r["event"] == "job-hard-timeout"
        ]
        assert timeouts and all(r["code"] == "OL901" for r in timeouts)

    def test_cache_traffic_appears_as_events(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal_cold = obs.EventJournal()
        check_program(
            RATIONAL, LIMITS, events=journal_cold, cache_dir=cache_dir
        )
        assert journal_cold.counts().get("cache-store", 0) == 1
        assert journal_cold.counts().get("cache-miss", 0) == 1
        journal_warm = obs.EventJournal()
        check_program(
            RATIONAL, LIMITS, events=journal_warm, cache_dir=cache_dir
        )
        warm = journal_warm.counts()
        assert warm.get("cache-hit", 0) == 1
        checked = [
            r for r in journal_warm.records if r["event"] == "impl-checked"
        ]
        assert checked[0].get("cache_hit") is True

    def test_corrupt_cache_entry_appears_as_ol903_event(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        check_program(RATIONAL, LIMITS, cache_dir=cache_dir)
        entries = [
            name
            for name in os.listdir(cache_dir)
            if name.endswith(".json") and name != "summary.json"
        ]
        assert entries
        with open(os.path.join(cache_dir, entries[0]), "r+") as handle:
            payload = json.load(handle)
            payload["checksum"] = "0" * 64
            handle.seek(0)
            handle.truncate()
            json.dump(payload, handle)
        journal = obs.EventJournal()
        check_program(RATIONAL, LIMITS, events=journal, cache_dir=cache_dir)
        rejects = [
            r for r in journal.records if r["event"] == "cache-reject"
        ]
        assert rejects and all(r["code"] == "OL903" for r in rejects)

    @pytest.mark.parametrize("seed", range(SEED_OFFSET, SEED_OFFSET + 3))
    def test_fault_matrix_journals_stay_schema_valid(self, seed):
        scope = _farm_scope()
        plan = FaultPlan.fuzz(seed, stages=SUPERVISOR_STAGES, max_hit=3)
        journal = obs.EventJournal()
        with obs.journaling(journal), inject(plan):
            report = check_scope(scope, LIMITS, parallel=2, max_retries=4)
        detail = f"seed {seed}: {plan.describe()}"
        assert obs.validate_event_journal(journal.records) == [], detail
        # every OL9xx event kind carries its code, and every verdict is
        # announced
        codes = {
            "job-quarantined": "OL902",
            "job-hard-timeout": "OL901",
            "job-deadline": "OL901",
            "cache-reject": "OL903",
        }
        for record in journal.records:
            expected = codes.get(record["event"])
            if expected is not None:
                assert record["code"] == expected, detail
        announced = {
            (r["impl"], r["index"])
            for r in journal.records
            if r["event"] == "impl-checked"
        }
        assert announced == {
            (v.impl.name, v.index) for v in report.verdicts
        }, detail


# ----------------------------------------------------------------------
# Progress renderer
# ----------------------------------------------------------------------


class _FakeStream:
    def __init__(self, atty=False):
        self.chunks = []
        self.atty = atty

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    def isatty(self):
        return self.atty

    @property
    def text(self):
        return "".join(self.chunks)


class TestProgressRenderer:
    def test_counts_and_dedupes_impl_checked(self):
        stream = _FakeStream()
        renderer = obs.ProgressRenderer(stream, line_interval=0.0)
        journal = obs.EventJournal()
        journal.add_listener(renderer)
        journal.emit("check-start", impls=2, backend="parallel")
        journal.emit("job-assigned", job=0, worker="0")
        journal.emit(
            "impl-checked", impl="a", index=0, worker="0", status="verified"
        )
        journal.emit("impl-checked", impl="a", index=0, status="verified")
        journal.emit("impl-checked", impl="b", index=0, cache_hit=True, status="verified")
        assert renderer.total == 2
        assert len(renderer.done) == 2
        assert renderer.cache_hits == 1
        line = renderer.status_line()
        assert "checked 2/2 impls" in line
        assert "1 cache hits" in line

    def test_span_records_neither_render_nor_start_the_clock(self):
        stream = _FakeStream()
        renderer = obs.ProgressRenderer(stream, line_interval=0.0)
        journal = obs.EventJournal()
        journal.add_listener(renderer)
        with obs.journaling(journal), obs.span("lex"):
            pass
        assert stream.text == "" and renderer.renders == 0
        journal.emit("check-start", impls=1, backend="serial")
        assert stream.text == "checked 0/1 impls\n"

    def test_quarantine_accounting(self):
        renderer = obs.ProgressRenderer(_FakeStream(), line_interval=0.0)
        renderer({"event": "check-start", "impls": 3, "t_mono": 0.0})
        renderer({"event": "job-quarantined", "code": "OL902", "t_mono": 0.4})
        assert renderer.quarantined == 1
        assert "1 quarantined" in renderer.status_line()

    def test_check_end_finishes_once(self):
        stream = _FakeStream()
        renderer = obs.ProgressRenderer(stream, line_interval=0.0)
        renderer({"event": "check-start", "impls": 1, "t_mono": 0.0})
        renderer({"event": "check-end", "ok": True, "t_mono": 1.0})
        painted = stream.text
        renderer.finish()
        assert stream.text == painted  # idempotent
        assert painted.endswith("\n")

    def test_eta_appears_mid_run(self):
        renderer = obs.ProgressRenderer(_FakeStream(), line_interval=0.0)
        renderer({"event": "check-start", "impls": 4, "t_mono": 0.0})
        renderer(
            {"event": "impl-checked", "impl": "a", "index": 0, "t_mono": 2.0}
        )
        assert "eta" in renderer.status_line(2.0)

    def test_tty_repaints_in_place(self):
        stream = _FakeStream(atty=True)
        renderer = obs.ProgressRenderer(stream, min_interval=0.0)
        renderer({"event": "check-start", "impls": 2, "t_mono": 0.0})
        renderer(
            {"event": "impl-checked", "impl": "a", "index": 0, "t_mono": 1.0}
        )
        assert any(chunk.startswith("\r") for chunk in stream.chunks)
        assert all("\n" not in chunk for chunk in stream.chunks)

    def test_broken_stream_never_raises(self):
        class Exploding:
            def write(self, text):
                raise OSError("closed")

            def flush(self):
                raise OSError("closed")

            def isatty(self):
                return False

        renderer = obs.ProgressRenderer(Exploding(), line_interval=0.0)
        renderer({"event": "check-start", "impls": 1, "t_mono": 0.0})
        renderer.finish()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestCli:
    def test_events_flag_writes_valid_journal(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "events.jsonl")
        assert main([source, "--events", out]) == 0
        records = obs.read_journal(out)
        assert obs.validate_event_journal(records) == []
        kinds = {record["event"] for record in records}
        assert {"check-start", "impl-checked", "check-end"} <= kinds

    def test_events_written_even_on_syntax_error(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("bad.oolong", "group group group")
        out = str(tmp_path / "events.jsonl")
        assert main([source, "--events", out]) == 2
        records = obs.read_journal(out)
        assert obs.validate_event_journal(records) == []

    def test_progress_flag_prints_final_line(self, write_source, capsys):
        source = write_source("good.oolong", RATIONAL)
        assert main([source, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "checked 1/1 impls" in err

    def test_metrics_format_is_a_usage_error(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = tmp_path / "metrics.prom"
        with pytest.raises(SystemExit) as exit_info:
            main([source, "--metrics", str(out), "--metrics-format", "prom"])
        assert exit_info.value.code == 2
        assert "--metrics-format" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_run_with_events_and_progress(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "events.jsonl")
        assert main([source, "-j", "2", "--events", out, "--progress"]) == 0
        records = obs.read_journal(out)
        assert obs.validate_event_journal(records) == []
        kinds = {record["event"] for record in records}
        assert {"worker-spawn", "job-assigned", "impl-checked"} <= kinds
        assert "checked 1/1 impls" in capsys.readouterr().err

    def test_events_default_truncates_previous_run(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "events.jsonl")
        assert main([source, "--events", out]) == 0
        first = obs.read_journal(out)
        assert main([source, "--events", out]) == 0
        second = obs.read_journal(out)
        runs = {record["run_id"] for record in second}
        assert len(runs) == 1
        assert runs != {record["run_id"] for record in first}

    def test_events_append_accumulates_runs(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "events.jsonl")
        assert main([source, "--events", out]) == 0
        assert main([source, "--events", out, "--events-append"]) == 0
        records = obs.read_journal(out)
        assert obs.validate_event_journal(records) == []
        assert len({record["run_id"] for record in records}) == 2
