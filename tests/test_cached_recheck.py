"""The cached re-check path is linear: key once, hash once, sync once.

A verdict depends only on the scope interface plus one implementation
(scope monotonicity), so the settle-before-proving path — result cache
and run ledger — must not redo interface work per implementation. These
tests hold it to that by counting, not by timing:

* **Once per check** — across one check with a cache and a run ledger,
  each interface declaration is pretty-printed once per :class:`Scope`
  and each implementation once per check, serially, under ``-j 2`` and
  on a ``--resume``.
* **Lifetime** — the interface digest memoized on the scope never
  crosses a pickle, is not inherited by ``extend``/``restrict_to``, and
  does not keep a dropped scope alive; a ``-j 2`` check of a scope
  carrying it reports what serial reports.
* **One sync for the settled batch** — a warm re-check ``fsync``s the
  ledger header and then the whole settled batch once, whatever the
  scope's size; each proved verdict still gets its own ``fsync``.
* **Settled failures name where the body is now** — a key binds an
  implementation's text, not its place, so a failing body moved to
  another file and line settles from the old entry or record; its
  report must still read as a cold check of the new file does.
"""

import collections
import gc
import json
import os
import pickle
import weakref

import pytest

import repro.parallel.cache as cache_module
from repro.cli import main
from repro.corpus.generators import generate_impl_farm
from repro.oolong.ast import ImplDecl
from repro.oolong.parser import parse_program_text
from repro.oolong.program import Scope
from repro.parallel.cache import cache_key
from repro.parallel.ledger import LEDGER_NAME
from repro.prover.core import Limits
from repro.vcgen.checker import check_scope
from tests.test_pipeline import _canonical, _strip_timing, _truncate_ledger

LIMITS = Limits(time_budget=60.0)


def _farm(impls=6, fields=3):
    return Scope.from_source(generate_impl_farm(impls, fields))


def _keys(scope, limits=LIMITS):
    return [
        cache_key(scope, impl, index, limits)
        for impls in scope.impls.values()
        for index, impl in enumerate(impls)
    ]


@pytest.fixture
def printed(monkeypatch):
    """Every declaration the key code pretty-prints, by object identity."""
    calls = collections.Counter()
    original = cache_module.pretty_decl

    def counted(decl):
        calls[id(decl)] += 1
        return original(decl)

    monkeypatch.setattr(cache_module, "pretty_decl", counted)
    return calls


def _expected(scope, checks=1):
    """Interface declarations once, implementations once per check."""
    return collections.Counter(
        {
            id(decl): checks if isinstance(decl, ImplDecl) else 1
            for decl in scope.decls
        }
    )


# ----------------------------------------------------------------------
# Once per check
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", [{}, {"parallel": 2}], ids=["serial", "j2"])
def test_cold_and_warm_checks_print_each_declaration_once(
    printed, backend, tmp_path
):
    options = dict(
        cache_dir=str(tmp_path / "cache"), run_dir=str(tmp_path / "run"), **backend
    )
    for phase in ("cold", "warm"):
        scope = _farm()
        printed.clear()
        report = check_scope(scope, LIMITS, **options)
        assert report.ok
        assert printed == _expected(scope), phase
    assert report.cache_summary["hits"] == len(report.verdicts)


def test_a_second_check_of_one_scope_reprints_only_implementations(
    printed, tmp_path
):
    scope = _farm()
    for _ in range(2):
        check_scope(
            scope,
            LIMITS,
            cache_dir=str(tmp_path / "cache"),
            run_dir=str(tmp_path / "run"),
        )
    assert printed == _expected(scope, checks=2)


def test_resume_prints_each_declaration_once(printed, tmp_path):
    run_dir, cache_dir = str(tmp_path / "run"), str(tmp_path / "cache")
    check_scope(_farm(), LIMITS, run_dir=run_dir)
    _truncate_ledger(run_dir, keep=2)
    scope = _farm()
    printed.clear()
    report = check_scope(
        scope, LIMITS, run_dir=run_dir, cache_dir=cache_dir, resume=True
    )
    assert report.ledger_summary["resumed"] == 2
    assert printed == _expected(scope)


# ----------------------------------------------------------------------
# Lifetime of the interface digest
# ----------------------------------------------------------------------


def test_the_digest_never_crosses_a_pickle():
    scope = _farm()
    keys = _keys(scope)
    digest = scope.interface_digest
    assert digest is not None
    copied = pickle.loads(pickle.dumps(scope))
    assert copied.interface_digest is None
    assert scope.interface_digest is digest  # pickling left it alone
    assert _keys(copied) == keys


def test_derived_scopes_start_without_the_digest():
    scope = _farm()
    keys = _keys(scope)
    extra = parse_program_text(
        "field g in data\nproc more(t) modifies t.data\n"
        "impl more(t) { assume t != null ; t.g := 1 }"
    )
    extended = scope.extend(extra)
    assert extended.interface_digest is None
    # A new interface declaration changes every old implementation's key.
    assert _keys(extended)[: len(keys)] != keys
    kept = scope.restrict_to(lambda decl: decl.name != "job0")
    assert kept.interface_digest is None
    assert _keys(kept) != keys[1:]  # job0's proc left the interface too
    same = scope.restrict_to(lambda decl: True)
    assert same.interface_digest is None
    assert _keys(same) == keys


def test_a_dropped_scope_is_freed_without_the_cycle_collector(tmp_path):
    scope = _farm(3, 2)
    gc.disable()
    try:
        check_scope(
            scope,
            LIMITS,
            cache_dir=str(tmp_path / "cache"),
            run_dir=str(tmp_path / "run"),
        )
        assert scope.interface_digest is not None
        dropped = weakref.ref(scope)
        del scope
        assert dropped() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", ["j2-cache"])
def test_pool_checks_of_a_keyed_scope_match_serial(backend, tmp_path):
    """The scope a ``-j`` check forks its workers from already carries
    the digest (the cache keyed it first); the report must be
    serial's."""
    serial = check_scope(_farm(), LIMITS)
    scope = _farm()
    _keys(scope)
    pooled = check_scope(
        scope, LIMITS, parallel=2, cache_dir=str(tmp_path / "cache")
    )
    assert _canonical(pooled) == _canonical(serial)


# ----------------------------------------------------------------------
# One fsync for the settled batch
# ----------------------------------------------------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls (still syncing for real)."""
    calls = []
    original = os.fsync

    def counted(fd):
        calls.append(fd)
        return original(fd)

    monkeypatch.setattr(os, "fsync", counted)
    return calls


def _ledger_records(run_dir):
    with open(os.path.join(run_dir, LEDGER_NAME)) as handle:
        return [json.loads(line)["record"] for line in handle]


@pytest.mark.parametrize("impls", [10, 100])
def test_a_warm_recheck_syncs_header_and_batch_once(fsyncs, impls, tmp_path):
    source = generate_impl_farm(impls, 2)
    options = dict(cache_dir=str(tmp_path / "cache"), run_dir=str(tmp_path / "run"))
    check_scope(Scope.from_source(source), LIMITS, **options)
    # Cold: nothing settles up front; header plus one per proved verdict.
    assert len(fsyncs) == 1 + impls
    fsyncs.clear()
    report = check_scope(Scope.from_source(source), LIMITS, **options)
    assert report.cache_summary["hits"] == impls
    assert len(fsyncs) == 2
    # Every settled verdict still has its own record.
    assert _ledger_records(options["run_dir"]) == ["run-start"] + [
        "verdict-committed"
    ] * impls


@pytest.mark.parametrize("proved", [1, 3])
def test_each_proved_verdict_adds_one_sync(fsyncs, proved, tmp_path):
    source = generate_impl_farm(10, 2)
    cache_dir, run_dir = str(tmp_path / "cache"), str(tmp_path / "run")
    scope = Scope.from_source(source)
    keys = _keys(scope)
    check_scope(scope, LIMITS, cache_dir=cache_dir, run_dir=run_dir)
    for key in keys[:proved]:
        os.unlink(os.path.join(cache_dir, f"{key}.json"))
    fsyncs.clear()
    report = check_scope(
        Scope.from_source(source), LIMITS, cache_dir=cache_dir, run_dir=run_dir
    )
    assert report.ok
    assert report.cache_summary["hits"] == 10 - proved
    assert len(fsyncs) == 2 + proved


def test_a_check_with_nothing_settled_has_no_batch_sync(fsyncs, tmp_path):
    check_scope(_farm(4, 2), LIMITS, run_dir=str(tmp_path / "run"))
    assert len(fsyncs) == 1 + 4


# ----------------------------------------------------------------------
# Settled failures name where the body is now
# ----------------------------------------------------------------------

BAD_CALL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "failing",
    "bad_call.oolong",
)


def _report(capsys, argv, fmt):
    """The CLI's report for ``argv`` in ``fmt``, wall-clock fields
    dropped."""
    main([*argv, "--format", fmt, "--time-budget", "60"])
    out = capsys.readouterr().out
    if fmt == "json":
        return json.dumps(_strip_timing(json.loads(out)), sort_keys=True)
    return out


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
@pytest.mark.parametrize("store", ["cache", "ledger"])
def test_a_moved_failure_settles_with_its_new_position(
    tmp_path, capsys, monkeypatch, store, fmt
):
    with open(BAD_CALL) as handle:
        source = handle.read()
    (tmp_path / "a.oolong").write_text(source)
    (tmp_path / "b.oolong").write_text("\n\n\n" + source)
    monkeypatch.chdir(tmp_path)
    cold = _report(capsys, ["b.oolong"], fmt)
    assert "b.oolong" in cold and "a.oolong" not in cold
    if store == "cache":
        first, then = ["--cache-dir", "state"], ["--cache-dir", "state"]
    else:
        first, then = ["--run-dir", "state"], ["--run-dir", "state", "--resume"]
    main(["a.oolong", *first, "--time-budget", "60"])
    capsys.readouterr()
    assert _report(capsys, ["b.oolong", *then], fmt) == cold
    with open(tmp_path / "state" / "summary.json") as handle:
        summary = json.load(handle)
    # Both verdicts settled from what the check of a.oolong left.
    assert summary["hits" if store == "cache" else "resumed"] == 2
