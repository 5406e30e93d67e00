"""The one check pipeline: decide once, execute open jobs, merge once.

Both backends (serial and ``-j``) run the same three steps in
:func:`repro.vcgen.checker._check_impls`, so these tests hold them to
the same answers:

* **Backend identity** — ``CheckReport.to_dict()`` (minus wall-clock
  ``elapsed`` fields) is identical across serial and ``parallel=2`` on the
  examples and the paper corpus, under a plain run, a cold and a warm
  cache, ``static_discharge="on"``, and a resume from a partial ledger.
* **One precedence** — static discharge settles a job before a ledger
  replay, which settles it before a cache hit; a resume with discharge
  switched on reports the discharged verdicts on every backend.
* **One labelling** — each settled verdict's ``impl-checked`` record,
  implementation span and metrics counter name how it was settled
  (``discharged`` / ``preresolved`` / ``cache_hit``) the same way on
  every backend, and no verdict is announced twice.
* **One settle step** — every backend commits the same ledger records,
  caches the same keys and journals each decided job in the order
  ``ledger-commit``, ``cache-store``, ``impl-checked``; a ledger write
  that fails costs one ``OL905`` warning and the ledger, nothing else.
* **One codec** — a ledger record and a cache entry written in the
  earlier on-disk layouts still resume and hit.
"""

import errno
import glob
import json
import os
import shutil

import pytest

from repro import obs
from repro.analysis.diagnostics import Severity
from repro.api import check_program_resilient
from repro.corpus.generators import generate_impl_farm
from repro.corpus.programs import PAPER_PROGRAMS
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel.cache import (
    CACHE_FORMAT,
    ResultCache,
    cache_key,
    checksum,
    code_version,
)
from repro.parallel.ledger import LEDGER_FORMAT, LEDGER_NAME, RunLedger
from repro.prover.core import Limits
from repro.vcgen.checker import ImplStatus, check_scope

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
LIMITS = Limits(time_budget=60.0)

BACKENDS = {"serial": {}, "parallel": {"parallel": 2}}


def _sources():
    """(id, source, filename) for the examples and the paper corpus.

    ``EX-3.0-client`` is left out: it alone takes ~13 s to prove, and
    the matrix below checks each source fifteen times.
    """
    sources = []
    for path in sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.oolong"))) + sorted(
        glob.glob(os.path.join(EXAMPLES_DIR, "failing", "*.oolong"))
    ):
        with open(path) as handle:
            sources.append((os.path.basename(path), handle.read(), path))
    for name, source in sorted(PAPER_PROGRAMS.items()):
        if name != "EX-3.0-client":
            sources.append((name, source, None))
    return sources


SOURCES = _sources()


def _strip_timing(value):
    """Drop wall-clock ``elapsed`` fields at every depth."""
    if isinstance(value, dict):
        return {
            key: _strip_timing(item)
            for key, item in value.items()
            if key != "elapsed"
        }
    if isinstance(value, list):
        return [_strip_timing(item) for item in value]
    return value


def _canonical(report) -> str:
    return json.dumps(_strip_timing(report.to_dict()), sort_keys=True)


def _truncate_ledger(run_dir, keep):
    """Keep the header and the first ``keep`` committed verdicts — the
    ledger a coordinator killed after ``keep`` commits leaves behind."""
    path = os.path.join(run_dir, LEDGER_NAME)
    with open(path) as handle:
        lines = handle.readlines()
    kept, verdicts = [], 0
    for line in lines:
        if json.loads(line).get("record") == "verdict-committed":
            if verdicts == keep:
                continue
            verdicts += 1
        kept.append(line)
    with open(path, "w") as handle:
        handle.writelines(kept)


# ----------------------------------------------------------------------
# Backend identity
# ----------------------------------------------------------------------


class TestBackendIdentity:
    @pytest.mark.parametrize(
        "name,source,filename", SOURCES, ids=[s[0] for s in SOURCES]
    )
    def test_reports_identical_across_backends(
        self, name, source, filename, tmp_path
    ):
        def check(backend, **options):
            return _canonical(
                check_program_resilient(
                    source,
                    LIMITS,
                    filename=filename,
                    **BACKENDS[backend],
                    **options,
                )
            )

        # The partial ledger every backend resumes from.
        partial = str(tmp_path / "partial")
        check("serial", run_dir=partial)
        _truncate_ledger(partial, keep=1)

        reports = {}
        for backend in BACKENDS:
            cache_dir = str(tmp_path / f"cache-{backend}")
            run_dir = str(tmp_path / f"run-{backend}")
            shutil.copytree(partial, run_dir)
            reports[backend] = {
                "plain": check(backend),
                "cold": check(backend, cache_dir=cache_dir),
                "warm": check(backend, cache_dir=cache_dir),
                "discharge": check(backend, static_discharge="on"),
                "resume": check(backend, run_dir=run_dir, resume=True),
            }
        for mode, serial in reports["serial"].items():
            assert reports["parallel"][mode] == serial, mode
        plain = reports["serial"]["plain"]
        for mode in ("cold", "warm", "resume"):
            assert reports["serial"][mode] == plain, mode


# ----------------------------------------------------------------------
# One precedence: discharge, then ledger replay, then cache hit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_resume_with_discharge_reports_discharged_verdicts(backend, tmp_path):
    """A ledger written with discharge off, resumed with it on: the
    discharged verdicts (no prover, zero stats) win on every backend."""
    scope = Scope.from_source(generate_impl_farm(4, 4))
    check_well_formed(scope)
    run_dir = str(tmp_path / "run")
    first = check_scope(scope, LIMITS, static_discharge="off", run_dir=run_dir)
    assert all(v.stats.inclusion_lookups == 4 for v in first.verdicts)
    uninterrupted = check_scope(scope, LIMITS, static_discharge="on")
    resumed = check_scope(
        scope,
        LIMITS,
        static_discharge="on",
        run_dir=run_dir,
        resume=True,
        **BACKENDS[backend],
    )
    assert [v.stats.inclusion_lookups for v in resumed.verdicts] == [0, 0, 0, 0]
    assert _canonical(resumed) == _canonical(uninterrupted)


# ----------------------------------------------------------------------
# One labelling: flags, spans, counters
# ----------------------------------------------------------------------


MIXED = generate_impl_farm(2, 2) + """
proc probe0(t) modifies t.data
proc probe1(t) modifies t.data
proc probe2(t) modifies t.data
impl probe0(t) { assume t != null ; t.f0 := 1 ; assert t.f0 = 1 }
impl probe1(t) { assume t != null ; t.f1 := 2 ; assert t.f1 = 2 }
impl probe2(t) { assume t != null ; t.f0 := 3 ; assert t.f0 = 3 }
"""

#: How the mixed run settles each impl: the farm jobs discharge (ahead
#: of their ledger records and cache entries), probe0 replays from the
#: ledger (ahead of its cache entry), probe1 hits the cache, and probe2
#: — with neither — is proved.
EXPECTED_SOURCES = {
    "job0": "discharged",
    "job1": "discharged",
    "probe0": "preresolved",
    "probe1": "cache_hit",
    "probe2": None,
}

SETTLE_FLAGS = ("cache_hit", "discharged", "preresolved")


@pytest.fixture(scope="module")
def mixed_state(tmp_path_factory):
    """A run directory and cache from a full discharge-off run, trimmed
    to the ledger records of job0 and probe0 and the cache entries of
    everything but probe2."""
    root = tmp_path_factory.mktemp("mixed")
    scope = Scope.from_source(MIXED)
    check_well_formed(scope)
    run_dir, cache_dir = str(root / "run"), str(root / "cache")
    check_scope(scope, LIMITS, run_dir=run_dir, cache_dir=cache_dir)
    path = os.path.join(run_dir, LEDGER_NAME)
    with open(path) as handle:
        lines = [
            line
            for line in handle
            if json.loads(line).get("record") != "verdict-committed"
            or json.loads(line)["impl"] in ("job0", "probe0")
        ]
    with open(path, "w") as handle:
        handle.writelines(lines)
    impl = scope.impls_of("probe2")[0]
    os.unlink(
        os.path.join(cache_dir, cache_key(scope, impl, 0, LIMITS) + ".json")
    )
    return root, run_dir, cache_dir


def _mixed_run(mixed_state, backend, tag=""):
    """Resume the mixed run (discharge on, cache on) on ``backend``,
    from a private copy of the trimmed state."""
    root, run_dir, cache_dir = mixed_state
    run_copy = str(root / f"run-{backend}{tag}")
    cache_copy = str(root / f"cache-{backend}{tag}")
    shutil.copytree(run_dir, run_copy)
    shutil.copytree(cache_dir, cache_copy)
    scope = Scope.from_source(MIXED)
    journal = obs.EventJournal()
    tracer = obs.Tracer()
    with obs.journaling(journal), obs.tracing(tracer):
        report = check_scope(
            scope,
            LIMITS,
            static_discharge="on",
            run_dir=run_copy,
            resume=True,
            cache_dir=cache_copy,
            **BACKENDS[backend],
        )
    return report, journal, tracer


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_settled_verdicts_labelled_alike(mixed_state, backend):
    report, journal, tracer = _mixed_run(mixed_state, backend)
    assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)

    checked = [r for r in journal.records if r["event"] == "impl-checked"]
    # Decided once, announced once: no re-announcement on any backend.
    assert sorted(r["impl"] for r in checked) == sorted(EXPECTED_SOURCES)
    for record in checked:
        flags = [flag for flag in SETTLE_FLAGS if record.get(flag)]
        expected = EXPECTED_SOURCES[record["impl"]]
        assert flags == ([expected] if expected else []), record

    settled_spans = {
        span.name: [flag for flag in SETTLE_FLAGS if span.args.get(flag)]
        for span in tracer.spans
        if span.category == obs.CAT_IMPL
        and any(span.args.get(flag) for flag in SETTLE_FLAGS)
    }
    assert settled_spans == {
        impl: [source]
        for impl, source in EXPECTED_SOURCES.items()
        if source is not None
    }

    counters = tracer.metrics.counters
    assert counters.get("checker.discharged") == 2
    assert counters.get("checker.resumed") == 1
    assert counters.get("checker.cache_hits") == 1
    assert counters.get("checker.impls") == 5
    assert report.cache_summary["hits"] == 1
    assert report.cache_summary["stores"] == 1  # probe2 only
    assert report.ledger_summary["resumed"] == 2  # job0 and probe0


def test_settled_labelling_identical_across_backends(mixed_state):
    def labelling(backend):
        report, journal, tracer = _mixed_run(mixed_state, backend, "-cmp")
        flags = sorted(
            (r["impl"], tuple(f for f in SETTLE_FLAGS if r.get(f)))
            for r in journal.records
            if r["event"] == "impl-checked"
        )
        counters = {
            name: value
            for name, value in tracer.metrics.counters.items()
            if name.startswith("checker.")
        }
        return _canonical(report), flags, counters

    serial = labelling("serial")
    assert labelling("parallel") == serial


# ----------------------------------------------------------------------
# One settle step: ledger, cache and journal alike on every backend
# ----------------------------------------------------------------------


def _cache_keys(cache_dir):
    return sorted(
        name[: -len(".json")]
        for name in os.listdir(cache_dir)
        if name.endswith(".json") and name != "summary.json"
    )


def _persisted(run_dir, cache_dir):
    """The ledger's committed verdicts as (key, impl, index, status),
    and the cache's key set."""
    with open(os.path.join(run_dir, LEDGER_NAME)) as handle:
        records = [json.loads(line) for line in handle]
    committed = sorted(
        (r["key"], r["impl"], r["index"], r["verdict"]["status"])
        for r in records
        if r["record"] == "verdict-committed"
    )
    return committed, _cache_keys(cache_dir)


def _settle_order(records):
    """Per decided job, the kinds of its ``ledger-commit``,
    ``cache-store`` and ``impl-checked`` records in journal order."""
    keys = {
        (r["impl"], r["index"]): r["key"]
        for r in records
        if r["event"] == "ledger-commit"
    }
    order = {}
    for record in records:
        if record["event"] in ("ledger-commit", "impl-checked"):
            job = (record["impl"], record["index"])
        elif record["event"] == "cache-store":
            (job,) = [j for j, key in keys.items() if key == record["key"]]
        else:
            continue
        order.setdefault(job, []).append(record["event"])
    return order


#: The body edit between the cold and the warm run: job0 only.
EDIT = ("t.f0 := 0 ;", "t.f0 := 7 ;")


@pytest.fixture(scope="module")
def persistence(tmp_path_factory):
    """Per backend and phase: the journal, the committed ledger records
    and the cache key set of a cold run on a 4 x 3 farm, then of a warm
    run on the same directories after one body edit."""
    root = tmp_path_factory.mktemp("persist")
    cold = generate_impl_farm(4, 3)
    warm = cold.replace(*EDIT)
    assert warm.count(EDIT[1]) == 1
    out = {}
    for backend in BACKENDS:
        run_dir = str(root / f"run-{backend}")
        cache_dir = str(root / f"cache-{backend}")
        for phase, source in (("cold", cold), ("warm", warm)):
            scope = Scope.from_source(source)
            check_well_formed(scope)
            journal = obs.EventJournal()
            with obs.journaling(journal):
                check_scope(
                    scope,
                    LIMITS,
                    run_dir=run_dir,
                    cache_dir=cache_dir,
                    **BACKENDS[backend],
                )
            out[backend, phase] = (
                journal.records,
                *_persisted(run_dir, cache_dir),
            )
    return out


@pytest.mark.parametrize("phase", ["cold", "warm"])
def test_backends_persist_alike(persistence, phase):
    _, committed, keys = persistence["serial", phase]
    assert len(committed) == 4
    assert len(keys) == (4 if phase == "cold" else 5)
    assert persistence["parallel", phase][1:] == (committed, keys)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("phase", ["cold", "warm"])
def test_settle_journals_commit_store_checked(persistence, backend, phase):
    """Each proved job commits, then stores, then is announced; a warm
    cache hit commits and is announced, with nothing stored."""
    order = _settle_order(persistence[backend, phase][0])
    proved = {"cold": {"job0", "job1", "job2", "job3"}, "warm": {"job0"}}
    assert len(order) == 4
    for (impl, _), kinds in order.items():
        if impl in proved[phase]:
            assert kinds == ["ledger-commit", "cache-store", "impl-checked"]
        else:
            assert kinds == ["ledger-commit", "impl-checked"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_failed_ledger_write_warns_once_and_still_caches(
    backend, tmp_path, monkeypatch
):
    """A ledger commit that raises (here: a full disk) costs the run its
    ledger with one ``OL905`` warning, and nothing else: every fresh
    verdict is still cached, and the verdicts are a healthy run's."""
    source = generate_impl_farm(4, 3)

    def check(tag):
        scope = Scope.from_source(source)
        check_well_formed(scope)
        cache_dir = str(tmp_path / f"cache-{tag}")
        report = check_scope(
            scope,
            LIMITS,
            run_dir=str(tmp_path / f"run-{tag}"),
            cache_dir=cache_dir,
            **BACKENDS[backend],
        )
        return report, json.loads(_canonical(report))["verdicts"], cache_dir

    healthy, healthy_verdicts, _ = check("healthy")

    def full_disk(self, verdict):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(RunLedger, "commit", full_disk)
    report, verdicts, cache_dir = check("full")
    (warning,) = [d for d in report.diagnostics if d.code == "OL905"]
    assert warning.severity is Severity.WARNING
    assert "run ledger write failed" in warning.message
    assert report.cache_summary["stores"] == 4
    assert len(_cache_keys(cache_dir)) == 4
    assert verdicts == healthy_verdicts
    assert report.ok == healthy.ok


# ----------------------------------------------------------------------
# One codec: earlier on-disk layouts still resume and hit
# ----------------------------------------------------------------------


class TestEarlierLayouts:
    """Hand-written records in the layouts earlier releases wrote: the
    ledger's verdict dict always carried ``error`` (null when absent),
    the cache's never did. Both must still be read, with no format
    bump."""

    def test_formats_not_bumped(self):
        assert CACHE_FORMAT == 1
        assert LEDGER_FORMAT == 1

    def _scope(self):
        scope = Scope.from_source(generate_impl_farm(2, 2))
        check_well_formed(scope)
        return scope

    def _stats(self, instantiations):
        return {
            "instantiations": instantiations,
            "rounds": 1,
            "branches": 1,
            "conflicts": 0,
            "max_depth": 0,
            "unmatchable_quantifiers": 0,
            "per_quantifier": {},
            "elapsed": 0.5,
            "sat_markers": [],
            "facts": 3,
            "merges": 4,
            "matches": 5,
            "matches_by_quantifier": {},
        }

    def test_earlier_ledger_records_resume(self, tmp_path):
        scope = self._scope()
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        records = [
            {
                "record": "run-start",
                "ledger_format": 1,
                "code_version": code_version(),
                "run_id": None,
                "impls": 2,
                "resumed": 0,
            }
        ]
        verdicts = [
            {
                "status": "verified",
                "stats": self._stats(77),
                "failed_obligation": None,
                "error": None,
            },
            {
                "status": "timed out",
                "stats": self._stats(0),
                "failed_obligation": None,
                "error": {
                    "code": "OL901",
                    "rule": "deadline",
                    "severity": "error",
                    "message": "scope time budget exhausted before this "
                    "implementation was checked",
                    "impl": "job1",
                },
            },
        ]
        for index, (impl, verdict) in enumerate(
            zip(("job0", "job1"), verdicts)
        ):
            records.append(
                {
                    "record": "verdict-committed",
                    "key": cache_key(
                        scope, scope.impls_of(impl)[0], 0, LIMITS
                    ),
                    "impl": impl,
                    "index": 0,
                    "verdict": verdict,
                    "checksum": checksum(verdict),
                }
            )
        (run_dir / LEDGER_NAME).write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        report = check_scope(
            scope, LIMITS, run_dir=str(run_dir), resume=True
        )
        assert report.ledger_summary["resumed"] == 2
        assert report.ledger_summary["skipped"] == 0
        first, second = report.verdicts
        assert first.status is ImplStatus.VERIFIED
        assert first.stats.instantiations == 77
        assert second.status is ImplStatus.TIMED_OUT
        assert second.error.code == "OL901"

    def test_earlier_cache_entry_hits(self, tmp_path):
        scope = self._scope()
        impl = scope.impls_of("job0")[0]
        key = cache_key(scope, impl, 0, LIMITS)
        payload = {
            "format": 1,
            "code_version": code_version(),
            "key": key,
            "impl": "job0",
            "index": 0,
            "verdict": {
                "status": "verified",
                "stats": self._stats(42),
                "failed_obligation": None,
            },
        }
        cache_dir = tmp_path / "cache"
        ResultCache(str(cache_dir))  # creates the directory
        (cache_dir / f"{key}.json").write_text(
            json.dumps({"checksum": checksum(payload), "payload": payload})
        )
        report = check_scope(scope, LIMITS, cache_dir=str(cache_dir))
        assert report.cache_summary["hits"] == 1
        assert report.cache_summary["rejections"] == 0
        assert report.verdicts[0].stats.instantiations == 42
