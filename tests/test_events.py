"""The fleet-wide event journal, progress renderer, and status endpoints.

* **Journal core** — kinds are validated at emit time, sequence numbers
  are a total order, listeners observe records in order, JSONL round
  trips, and the disabled path stays a no-op.
* **Schema** — every journal a real run produces (serial, ``-j``,
  ``--fleet``, seeded fault matrices) validates against the in-tree
  ``events.schema.json``, including the journal-level seq/t_mono
  invariants; hand-built garbage is rejected.
* **Correlation** — OL901/OL902/OL903/OL904 outcomes each appear as the
  matching journal event carrying the code, correlated to jobs/leases.
* **Prometheus** — ``MetricsRegistry.to_prometheus`` renders counters,
  labelled counters, and timers in the text exposition format;
  ``--metrics-format prom`` writes it from the CLI.
* **Status** — a :class:`StatusServer` and the cache server's own port
  answer the same ``query_status`` round trip; ``workers status`` /
  ``cache status`` print the payloads.
"""

import contextlib
import json
import os
import socket
import threading

import pytest

from repro import obs
from repro.api import check_program, check_program_resilient
from repro.cli import EXIT_STATUS_DOWN, EXIT_STATUS_REJECTED, main
from repro.cli_ops import cache_main, workers_main
from repro.corpus.generators import generate_impl_farm
from repro.obs import events as events_module
from repro.obs.metrics import MetricsRegistry, prometheus_name
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel import FleetOptions
from repro.parallel.cache import cache_key
from repro.parallel.cacheserver import CacheServer
from repro.parallel.transport import (
    StatusServer,
    TransportError,
    query_status,
)
from repro.prover.core import Limits
from repro.testing.faults import (
    FLEET_STAGES,
    SUPERVISOR_STAGES,
    Fault,
    FaultPlan,
    inject,
)
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


def _fleet_fast(**overrides) -> FleetOptions:
    defaults = dict(
        workers=2,
        lease_duration=2.0,
        renew_interval=0.1,
        backoff_base=0.01,
        poll_interval=0.02,
        registration_wait=30.0,
        max_retries=4,
    )
    defaults.update(overrides)
    return FleetOptions(**defaults)


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
        start = journal.records[0]
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

    def test_fleet_run_correlates_leases(self):
        scope = _farm_scope()
        journal = obs.EventJournal()
        with obs.journaling(journal):
            report = check_scope(scope, LIMITS, fleet=_fleet_fast())
        assert report.ok
        assert obs.validate_event_journal(journal.records) == []
        counts = journal.counts()
        assert counts["server-start"] == 1
        assert counts["server-stop"] == 1
        assert counts["worker-registered"] >= 1
        grants = [
            r for r in journal.records if r["event"] == "lease-granted"
        ]
        assert len(grants) >= len(report.verdicts)
        checked = [
            r for r in journal.records if r["event"] == "impl-checked"
        ]
        # every verdict is announced, carrying the lease that decided it
        assert {(r["impl"], r["index"]) for r in checked} == {
            (v.impl.name, v.index) for v in report.verdicts
        }
        lease_ids = {r["lease"] for r in grants}
        for record in checked:
            assert record["lease"] in lease_ids

    def test_quarantine_appears_as_ol902_events(self):
        scope = _farm_scope()
        plan = FaultPlan((Fault("worker-kill", "raise", hit=1),))
        journal = obs.EventJournal()
        with obs.journaling(journal), inject(plan):
            check_scope(scope, LIMITS, fleet=_fleet_fast(), max_retries=0)
        assert obs.validate_event_journal(journal.records) == []
        quarantined = [
            r for r in journal.records if r["event"] == "job-quarantined"
        ]
        assert len(quarantined) == 1
        assert quarantined[0]["code"] == "OL902"
        reclaims = [
            r for r in journal.records if r["event"] == "lease-reclaimed"
        ]
        assert any(r["job"] == quarantined[0]["job"] for r in reclaims)
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
            check_scope(
                scope,
                LIMITS,
                fleet=_fleet_fast(lease_duration=30.0),
                job_timeout=0.4,
            )
        assert obs.validate_event_journal(journal.records) == []
        timeouts = [
            r for r in journal.records if r["event"] == "job-hard-timeout"
        ]
        assert timeouts and all(r["code"] == "OL901" for r in timeouts)

    def test_degradation_appears_as_ol904_event(self):
        journal = obs.EventJournal()
        report = check_program_resilient(
            RATIONAL,
            LIMITS,
            events=journal,
            fleet=FleetOptions(workers=0, registration_wait=0.2),
        )
        assert report.ok
        assert obs.validate_event_journal(journal.records) == []
        degraded = [r for r in journal.records if r["event"] == "degraded"]
        assert len(degraded) == 1
        assert degraded[0]["code"] == "OL904"
        assert degraded[0]["reason"]

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
        plan = FaultPlan.fuzz(
            seed, stages=SUPERVISOR_STAGES + FLEET_STAGES, max_hit=3
        )
        journal = obs.EventJournal()
        with obs.journaling(journal), inject(plan):
            report = check_scope(scope, LIMITS, fleet=_fleet_fast())
        detail = f"seed {seed}: {plan.describe()}"
        assert obs.validate_event_journal(journal.records) == [], detail
        # every OL9xx event kind carries its code, and every verdict is
        # announced at least once (degraded runs re-announce preresolved
        # jobs; consumers dedupe by (impl, index))
        codes = {
            "job-quarantined": "OL902",
            "job-hard-timeout": "OL901",
            "job-deadline": "OL901",
            "cache-reject": "OL903",
            "degraded": "OL904",
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
        journal.emit("check-start", impls=2, backend="fleet")
        journal.emit("lease-granted", lease=1, job=0)
        journal.emit("impl-checked", impl="a", index=0, lease=1, status="verified")
        journal.emit("impl-checked", impl="a", index=0, status="verified")
        journal.emit("impl-checked", impl="b", index=0, cache_hit=True, status="verified")
        assert renderer.total == 2
        assert len(renderer.done) == 2
        assert renderer.cache_hits == 1
        assert not renderer.leases
        line = renderer.status_line()
        assert "checked 2/2 impls" in line
        assert "1 cache hits" in line

    def test_quarantine_and_lease_accounting(self):
        renderer = obs.ProgressRenderer(_FakeStream(), line_interval=0.0)
        renderer({"event": "check-start", "impls": 3, "t_mono": 0.0})
        renderer({"event": "lease-granted", "lease": 7, "t_mono": 0.1})
        renderer({"event": "lease-granted", "lease": 8, "t_mono": 0.2})
        renderer({"event": "lease-expired", "lease": 7, "t_mono": 0.3})
        renderer({"event": "job-quarantined", "code": "OL902", "t_mono": 0.4})
        assert renderer.leases == {8}
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
# Prometheus exposition
# ----------------------------------------------------------------------


class TestPrometheus:
    def test_names_are_mangled_and_prefixed(self):
        assert prometheus_name("prover.checks") == "oolong_prover_checks"
        assert (
            prometheus_name("checker.status.verified")
            == "oolong_checker_status_verified"
        )
        assert prometheus_name("9lives", prefix="") == "_9lives"

    def test_counters_labels_and_timers_render(self):
        registry = MetricsRegistry()
        registry.inc("prover.checks", 2)
        registry.inc_labelled(
            "prover.instantiations.by_quantifier", 'q"1\n', 5
        )
        registry.observe("prover.check_seconds", 0.25)
        registry.observe("prover.check_seconds", 0.75)
        text = registry.to_prometheus()
        assert "# TYPE oolong_prover_checks counter" in text
        assert "oolong_prover_checks 2" in text
        assert (
            'oolong_prover_instantiations{quantifier="q\\"1\\n"} 5' in text
        )
        assert "oolong_prover_check_count 2" in text
        assert "oolong_prover_check_seconds_total 1.0" in text
        assert "oolong_prover_check_seconds_max 0.75" in text
        assert "_seconds_seconds" not in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_unlabelled_convention_falls_back(self):
        registry = MetricsRegistry()
        registry.inc_labelled("odd.bucket", "x", 1)
        assert 'oolong_odd_bucket{label="x"} 1' in registry.to_prometheus()


# ----------------------------------------------------------------------
# Status endpoints
# ----------------------------------------------------------------------


class TestStatusEndpoints:
    def test_status_server_round_trip(self):
        server = StatusServer(
            ("127.0.0.1", 0), lambda: {"kind": "test", "n": 7}, token="s3"
        ).start()
        try:
            payload = query_status(server.address, token="s3")
            assert payload == {"kind": "test", "n": 7}
            with pytest.raises(TransportError):
                query_status(server.address, token="wrong")
        finally:
            server.stop()

    def test_cache_server_answers_status(self, tmp_path):
        with CacheServer(str(tmp_path / "cache")) as server:
            scope = Scope.from_source(RATIONAL)
            impl = next(iter(scope.impls.values()))[0]
            key = cache_key(scope, impl, 0, None)
            payload = query_status(server.address)
            assert payload["kind"] == "cache-server"
            assert payload["address"] == server.url
            assert payload["metrics"]["counters"] == {}
            # traffic shows up in the served metrics
            from repro.parallel.cacheserver import RemoteCache

            client = RemoteCache.connect(server.url)
            assert client.load(key) is None
            client.close()
            payload = query_status(server.address)
            assert payload["metrics"]["counters"]["cacheserver.gets"] == 1
            assert payload["metrics"]["counters"]["cacheserver.misses"] == 1
            assert payload["summary"]["misses"] == 1

    @pytest.mark.parametrize(
        "kind,entry,lines,fmt,check",
        [
            (
                "workers",
                workers_main,
                ["workers: 2/2 alive", "jobs served: 5"],
                "prom",
                lambda out: "oolong_pool_jobs_served 5" in out,
            ),
            (
                "cache",
                cache_main,
                ["cache-server"],
                "json",
                lambda out: json.loads(out)["kind"] == "cache-server",
            ),
        ],
        ids=["workers", "cache"],
    )
    def test_status_cli(self, tmp_path, capsys, kind, entry, lines, fmt, check):
        with _status_target(kind, tmp_path) as url:
            assert entry(["status", url]) == 0
            text = capsys.readouterr().out
            for line in lines:
                assert line in text
            assert entry(["status", url, "--metrics-format", fmt]) == 0
            assert check(capsys.readouterr().out)

    def test_status_against_nothing_exits_down(self, capsys):
        """Connection-refused means "down": exit 3 plus a stderr hint."""
        assert (
            workers_main(["status", "127.0.0.1:1", "--timeout", "1"])
            == EXIT_STATUS_DOWN
        )
        assert (
            cache_main(["status", "127.0.0.1:1", "--timeout", "1"])
            == EXIT_STATUS_DOWN
        )
        err = capsys.readouterr().err
        assert "error:" in err
        assert "is the server running?" in err

    @pytest.mark.parametrize(
        "kind,entry",
        [("workers", workers_main), ("cache", cache_main)],
        ids=["workers", "cache"],
    )
    def test_status_rejection_exits_distinctly(
        self, tmp_path, capsys, kind, entry
    ):
        """A live server with the wrong token is "wrong server", not
        "down": exit 4, and the hint names the token."""
        with _status_target(kind, tmp_path, token="sekrit") as url:
            assert (
                entry(["status", url, "--timeout", "2"])
                == EXIT_STATUS_REJECTED
            )
        err = capsys.readouterr().err
        assert "refused the handshake" in err


@contextlib.contextmanager
def _status_target(kind, tmp_path, token=None):
    """A live server of ``kind`` answering status; yields its address.

    ``workers`` is a :class:`StatusServer` over a fixed pool snapshot,
    ``cache`` a real :class:`CacheServer`.
    """
    if kind == "cache":
        with CacheServer(str(tmp_path / "cache"), token=token) as server:
            yield server.url
        return
    snapshot = {
        "kind": "worker-pool",
        "coordinator": "127.0.0.1:1",
        "pid": 1,
        "uptime": 0.0,
        "workers": {"configured": 2, "alive": 2, "pids": [10, 11]},
        "jobs_served": 5,
        "metrics": {"counters": {"pool.jobs_served": 5}},
    }
    server = StatusServer(
        ("127.0.0.1", 0), lambda: snapshot, token=token
    ).start()
    try:
        host, port = server.address
        yield f"{host}:{port}"
    finally:
        server.stop()


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

    def test_metrics_format_prom_writes_exposition(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "metrics.prom")
        assert main(
            [source, "--metrics", out, "--metrics-format", "prom"]
        ) == 0
        with open(out) as handle:
            text = handle.read()
        assert "# TYPE oolong_prover_checks counter" in text
        assert "oolong_prover_checks 1" in text

    def test_fleet_run_with_events_and_progress(
        self, write_source, tmp_path, capsys
    ):
        source = write_source("good.oolong", RATIONAL)
        out = str(tmp_path / "events.jsonl")
        assert main([source, "--fleet", "2", "--events", out, "--progress"]) == 0
        records = obs.read_journal(out)
        assert obs.validate_event_journal(records) == []
        kinds = {record["event"] for record in records}
        assert {"server-start", "lease-granted", "server-stop"} <= kinds
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


# ----------------------------------------------------------------------
# HTTP scraping
# ----------------------------------------------------------------------


def _http_get(url):
    import urllib.request

    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestHttpEndpoints:
    @pytest.mark.parametrize("kind", ["worker-pool", "cache-server"])
    def test_server_serves_http(self, tmp_path, kind):
        from repro.obs.httpd import render_prometheus
        from repro.parallel.cacheserver import RemoteCache
        from repro.parallel.fleet import WorkerPool

        if kind == "worker-pool":
            server = WorkerPool(
                ("127.0.0.1", 1), jobs=0, http_address=("127.0.0.1", 0)
            )
        else:
            server = CacheServer(
                str(tmp_path / "cache"), http_address=("127.0.0.1", 0)
            )
        server.start()
        try:
            base = f"http://{server.http_url}"
            status, body = _http_get(base + "/healthz")
            assert status == 200 and body == "ok\n"
            status, body = _http_get(base + "/status")
            payload = json.loads(body)
            assert payload["kind"] == kind
            status, body = _http_get(base + "/metrics")
            assert status == 200
            if kind == "worker-pool":
                assert "oolong_pool_jobs_served 0" in body
                # The scrape endpoint and the status protocol render the
                # very same counters.
                assert body == render_prometheus(server.status())
            else:
                # traffic shows up in later scrapes
                scope = Scope.from_source(RATIONAL)
                impl = next(iter(scope.impls.values()))[0]
                key = cache_key(scope, impl, 0, None)
                client = RemoteCache.connect(server.url)
                assert client.load(key) is None
                client.close()
                _, body = _http_get(base + "/metrics")
                assert "oolong_cacheserver_misses 1" in body
        finally:
            server.stop()

    @pytest.mark.parametrize("kind", ["worker-pool", "cache-server"])
    def test_busy_http_address_closes_the_first_listener(self, tmp_path, kind):
        from repro.parallel.fleet import WorkerPool

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            first = probe.getsockname()
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            # The raised error's traceback keeps the half-built server
            # alive, so only an explicit close frees its first port.
            with pytest.raises(OSError) as raised:
                if kind == "worker-pool":
                    WorkerPool(
                        ("127.0.0.1", 1),
                        jobs=1,
                        status_address=first,
                        http_address=busy.getsockname(),
                    )
                else:
                    CacheServer(
                        str(tmp_path / "cache"),
                        first,
                        http_address=busy.getsockname(),
                    )
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(first, timeout=5).close()
        del raised

    @pytest.mark.parametrize("kind", ["http", "worker-pool", "cache-server"])
    def test_stop_without_start_returns_at_once(self, tmp_path, kind):
        from repro.obs.httpd import TelemetryHTTPServer
        from repro.parallel.fleet import WorkerPool

        http = ("127.0.0.1", 0)
        if kind == "http":
            server = TelemetryHTTPServer(http, lambda: {})
        elif kind == "worker-pool":
            server = WorkerPool(
                ("127.0.0.1", 1), jobs=1, status_address=http, http_address=http
            )
        else:
            server = CacheServer(str(tmp_path / "cache"), http_address=http)
        errors = []

        def stop():
            try:
                server.stop()
            except Exception as error:
                errors.append(error)

        thread = threading.Thread(target=stop, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "stop() blocked"
        assert errors == []

    def test_unknown_path_is_404(self):
        from repro.obs.httpd import TelemetryHTTPServer

        server = TelemetryHTTPServer(("127.0.0.1", 0), lambda: {}).start()
        try:
            import urllib.error
            import urllib.request

            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(
                    f"http://{server.url}/nope", timeout=5
                )
            assert exc_info.value.code == 404
        finally:
            server.stop()

    def test_snapshot_failure_is_500(self):
        from repro.obs.httpd import TelemetryHTTPServer

        def broken():
            raise RuntimeError("boom")

        server = TelemetryHTTPServer(("127.0.0.1", 0), broken).start()
        try:
            import urllib.error
            import urllib.request

            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(
                    f"http://{server.url}/status", timeout=5
                )
            assert exc_info.value.code == 500
        finally:
            server.stop()
