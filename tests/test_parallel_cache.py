"""Unit tests for the crash-safe incremental result cache.

The cache's contract has two halves: the *key* must change whenever
anything verdict-relevant changes (implementation source, scope
interface, prover limits, code version), and an *entry* must never be
trusted unless it validates end to end (checksum, version stamp, key
binding, status whitelist). Both halves are exercised here directly,
below the checker driver.
"""

import json
import os

import pytest

from repro.oolong.ast import ImplDecl
from repro.oolong.program import Scope
from repro.parallel.cache import (
    CACHEABLE_STATUSES,
    ResultCache,
    atomic_write_text,
    cache_key,
    checksum,
    code_version,
    payload_to_verdict,
    validate_entry,
    verdict_to_payload,
)
from repro.parallel import cache as cache_module
from repro.prover.core import SEARCH_VERSION, Limits, ProverStats
from repro.vcgen.checker import ImplStatus, ImplVerdict, check_scope

LIMITS = Limits(time_budget=60.0)

GOOD = """
group data
field payload in data
proc touch(t) modifies t.data
impl touch(t) { assume t != null ; t.payload := 1 }
"""

VARIANT = """
group data
field payload in data
proc touch(t) modifies t.data
impl touch(t) { assume t != null ; t.payload := 2 }
"""


def _scope(source=GOOD):
    return Scope.from_source(source)


def _impl(scope):
    return next(
        decl for decl in scope.decls if isinstance(decl, ImplDecl)
    )


class TestCacheKey:
    def test_key_is_deterministic(self):
        scope = _scope()
        first = cache_key(scope, _impl(scope), 0, LIMITS)
        second = cache_key(_scope(), _impl(_scope()), 0, LIMITS)
        assert first == second

    def test_key_depends_on_impl_source(self):
        scope, variant = _scope(), _scope(VARIANT)
        assert cache_key(scope, _impl(scope), 0, LIMITS) != cache_key(
            variant, _impl(variant), 0, LIMITS
        )

    def test_key_depends_on_scope_interface(self):
        widened = _scope(GOOD.replace(
            "field payload in data",
            "field payload in data\nfield extra in data",
        ))
        scope = _scope()
        assert cache_key(scope, _impl(scope), 0, LIMITS) != cache_key(
            widened, _impl(widened), 0, LIMITS
        )

    def test_key_depends_on_limits_and_index(self):
        scope = _scope()
        impl = _impl(scope)
        base = cache_key(scope, impl, 0, LIMITS)
        assert base != cache_key(scope, impl, 1, LIMITS)
        assert base != cache_key(
            scope, impl, 0, Limits(time_budget=1.0)
        )

    def test_key_ignores_batch_budgets(self):
        # Scope budgets decide *whether* a job runs, not its verdict —
        # changing them must not invalidate the cache.
        scope = _scope()
        impl = _impl(scope)
        assert cache_key(scope, impl, 0, LIMITS) == cache_key(
            scope, impl, 0, Limits(time_budget=60.0, scope_time_budget=5.0)
        )

    def test_key_carries_code_version(self):
        assert "+cache" in code_version()

    def test_entries_of_an_older_search_re_prove(self, tmp_path, monkeypatch):
        """A verdict cached before the search changed carries that
        search's ``ProverStats``: its key must miss."""
        assert f"+search{SEARCH_VERSION}" in code_version()
        older = code_version().replace(f"+search{SEARCH_VERSION}", "")
        cache_dir = str(tmp_path)
        monkeypatch.setattr(cache_module, "code_version", lambda: older)
        first = check_scope(_scope(), LIMITS, cache_dir=cache_dir)
        assert first.cache_summary["stores"] == 1
        monkeypatch.undo()
        second = check_scope(_scope(), LIMITS, cache_dir=cache_dir)
        assert second.cache_summary["hits"] == 0
        assert second.cache_summary["stores"] == 1


def _verified_payload(scope):
    report = check_scope(scope, LIMITS)
    verdict = report.verdicts[0]
    assert verdict.status is ImplStatus.VERIFIED
    payload = verdict_to_payload(verdict)
    assert payload is not None
    return verdict, payload


class TestEntries:
    def test_store_then_load_round_trips(self, tmp_path):
        scope = _scope()
        verdict, payload = _verified_payload(scope)
        cache = ResultCache(str(tmp_path))
        key = cache_key(scope, _impl(scope), 0, LIMITS)
        assert cache.store(key, payload, impl="touch", index=0)
        loaded = cache.load(key)
        assert loaded == payload
        rehydrated = payload_to_verdict(loaded, _impl(scope), 0)
        assert rehydrated.status is verdict.status
        assert rehydrated.stats.instantiations == verdict.stats.instantiations
        assert cache.summary() == {
            "directory": str(tmp_path),
            "hits": 1,
            "misses": 0,
            "stores": 1,
            "rejections": 0,
        }

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.load("0" * 64) is None
        assert cache.misses == 1
        assert not cache.rejections

    def test_store_leaves_no_temp_files(self, tmp_path):
        scope = _scope()
        _, payload = _verified_payload(scope)
        cache = ResultCache(str(tmp_path))
        key = cache_key(scope, _impl(scope), 0, LIMITS)
        cache.store(key, payload, impl="touch", index=0)
        assert sorted(os.listdir(tmp_path)) == [f"{key}.json"]

    def test_corrupted_entry_is_rejected(self, tmp_path):
        scope = _scope()
        _, payload = _verified_payload(scope)
        cache = ResultCache(str(tmp_path))
        key = cache_key(scope, _impl(scope), 0, LIMITS)
        cache.store(key, payload, impl="touch", index=0)
        path = tmp_path / f"{key}.json"
        raw = path.read_text()
        path.write_text(raw.replace('"verified"', '"not proved"', 1))
        assert cache.load(key) is None
        assert any("checksum" in reason for _, reason in cache.rejections)

    def test_truncated_entry_is_rejected(self, tmp_path):
        scope = _scope()
        _, payload = _verified_payload(scope)
        cache = ResultCache(str(tmp_path))
        key = cache_key(scope, _impl(scope), 0, LIMITS)
        cache.store(key, payload, impl="touch", index=0)
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[: 40])
        assert cache.load(key) is None
        assert any("unreadable" in reason for _, reason in cache.rejections)

    def test_null_entry_is_rejected_not_missed(self, tmp_path):
        # A file that parses to JSON null is a damaged entry (OL903),
        # not a clean miss.
        cache = ResultCache(str(tmp_path))
        key = "0" * 64
        (tmp_path / f"{key}.json").write_text("null")
        assert cache.load(key) is None
        assert cache.rejections == [
            (key, "malformed entry: no payload object")
        ]
        assert cache.misses == 1

    def test_version_skew_is_rejected(self, tmp_path):
        scope = _scope()
        _, payload = _verified_payload(scope)
        cache = ResultCache(str(tmp_path))
        key = cache_key(scope, _impl(scope), 0, LIMITS)
        cache.store(key, payload, impl="touch", index=0)
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["payload"]["code_version"] = "0.0.0+cache0"
        entry["checksum"] = checksum(entry["payload"])
        path.write_text(json.dumps(entry))
        assert cache.load(key) is None
        assert any(
            "version skew" in reason for _, reason in cache.rejections
        )

    def test_entry_bound_to_its_key(self, tmp_path):
        scope = _scope()
        _, payload = _verified_payload(scope)
        cache = ResultCache(str(tmp_path))
        key = cache_key(scope, _impl(scope), 0, LIMITS)
        cache.store(key, payload, impl="touch", index=0)
        alias = "f" * 64
        (tmp_path / f"{alias}.json").write_text(
            (tmp_path / f"{key}.json").read_text()
        )
        assert cache.load(alias) is None
        assert any(
            "key mismatch" in reason for _, reason in cache.rejections
        )


class TestValidateEntry:
    """The shared validation chain used by the local cache, the cache
    server (before serving), and the remote client (after receiving)."""

    def _entry(self, tmp_path):
        scope = _scope()
        _, payload = _verified_payload(scope)
        cache = ResultCache(str(tmp_path))
        key = cache_key(scope, _impl(scope), 0, LIMITS)
        cache.store(key, payload, impl="touch", index=0)
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        return entry, key, payload

    def test_valid_entry_passes(self, tmp_path):
        entry, key, payload = self._entry(tmp_path)
        verdict, reason = validate_entry(entry, key)
        assert reason is None
        assert verdict == payload

    def test_non_dict_and_payloadless_entries_rejected(self):
        for junk in (None, 17, [], {"checksum": "x"}):
            verdict, reason = validate_entry(junk, "0" * 64)
            assert verdict is None
            assert "no payload" in reason

    def test_checksum_mismatch_rejected(self, tmp_path):
        entry, key, _ = self._entry(tmp_path)
        entry["payload"]["index"] = 99
        verdict, reason = validate_entry(entry, key)
        assert verdict is None
        assert "checksum" in reason

    def test_wrong_key_rejected(self, tmp_path):
        entry, _, _ = self._entry(tmp_path)
        verdict, reason = validate_entry(entry, "f" * 64)
        assert verdict is None
        assert "key mismatch" in reason

    def test_uncacheable_status_rejected(self, tmp_path):
        entry, key, _ = self._entry(tmp_path)
        entry["payload"]["verdict"]["status"] = "timed out"
        entry["checksum"] = checksum(entry["payload"])
        verdict, reason = validate_entry(entry, key)
        assert verdict is None
        assert "bad verdict" in reason


class TestSizeBound:
    def _farm_entries(self, count=4):
        """Distinct (key, payload) pairs from one small checked scope."""
        from repro.corpus.generators import generate_impl_farm

        scope = _scope(generate_impl_farm(count, 6))
        report = check_scope(scope, LIMITS)
        return [
            (cache_key(scope, v.impl, v.index, LIMITS), verdict_to_payload(v))
            for v in report.verdicts
        ]

    def _largest_entry(self, directory, entries):
        """Bytes on disk of the largest of ``entries`` once stored: the
        budgets below are counted in entries, not fixed byte sizes, since
        an entry's size follows the verdict payload."""
        cache = ResultCache(str(directory))
        for index, (key, payload) in enumerate(entries):
            cache.store(key, payload, impl="farm", index=index)
        return max(os.path.getsize(directory / f"{key}.json") for key, _ in entries)

    def test_store_evicts_oldest_beyond_budget(self, tmp_path):
        entries = self._farm_entries()
        # Budget for one entry: every store beyond the first must evict,
        # oldest first.
        budget = self._largest_entry(tmp_path / "probe", entries)
        cache = ResultCache(str(tmp_path / "bounded"), max_bytes=budget)
        for index, (key, payload) in enumerate(entries):
            assert cache.store(key, payload, impl="farm", index=index)
            path = tmp_path / "bounded" / f"{key}.json"
            os.utime(path, (index, index))  # deterministic recency order
            cache._evict_to_budget()
        assert cache.evictions >= 1
        survivors = [
            n for n in os.listdir(tmp_path / "bounded") if n.endswith(".json")
        ]
        # The newest entry always survives; eviction consumed the oldest
        # first, so whatever fits beyond it is a suffix of the store order.
        assert f"{entries[-1][0]}.json" in survivors
        assert f"{entries[0][0]}.json" not in survivors
        assert len(survivors) < len(entries)
        summary = cache.summary()
        assert summary["max_bytes"] == budget
        assert summary["evictions"] == cache.evictions

    def test_hits_refresh_recency(self, tmp_path):
        entries = self._farm_entries(3)
        # Budget for two entries: the third store evicts exactly one.
        budget = 2 * self._largest_entry(tmp_path / "probe", entries)
        directory = tmp_path / "bounded"
        cache = ResultCache(str(directory))
        for index, (key, payload) in enumerate(entries[:2]):
            cache.store(key, payload, impl="farm", index=index)
            os.utime(directory / f"{key}.json", (index, index))
        # A hit on the oldest entry touches its file, so the later
        # bounded store evicts the *other* one.
        assert cache.load(entries[0][0]) is not None
        bounded = ResultCache(str(directory), max_bytes=budget)
        bounded.store(entries[2][0], entries[2][1], impl="farm", index=2)
        names = set(os.listdir(directory))
        assert f"{entries[0][0]}.json" in names
        assert f"{entries[1][0]}.json" not in names
        assert f"{entries[2][0]}.json" in names

    def test_summary_json_is_never_evicted(self, tmp_path):
        entries = self._farm_entries(2)
        (tmp_path / "summary.json").write_text("{}")
        cache = ResultCache(str(tmp_path), max_bytes=1)
        for index, (key, payload) in enumerate(entries):
            cache.store(key, payload, impl="farm", index=index)
        assert (tmp_path / "summary.json").exists()


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "first")
        assert path.read_text() == "first"
        atomic_write_text(str(path), "second")
        assert path.read_text() == "second"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_leaves_previous_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "precious")

        class Boom(Exception):
            pass

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise Boom()

        os.replace = exploding_replace
        try:
            with pytest.raises(Boom):
                atomic_write_text(str(path), "clobbered")
        finally:
            os.replace = real_replace
        assert path.read_text() == "precious"
        assert os.listdir(tmp_path) == ["out.json"]


class TestCacheability:
    def test_only_deterministic_statuses_are_cacheable(self):
        scope = _scope()
        impl = _impl(scope)
        for status in ImplStatus:
            verdict = ImplVerdict(
                impl=impl, index=0, status=status, stats=ProverStats()
            )
            payload = verdict_to_payload(verdict)
            if status.value in CACHEABLE_STATUSES:
                assert payload is not None
            else:
                assert payload is None

    def test_failing_verdicts_cache_their_obligation(self):
        failing = check_scope(_scope(BAD), LIMITS)
        verdict = failing.verdicts[0]
        assert verdict.status is ImplStatus.NOT_PROVED
        payload = verdict_to_payload(verdict)
        rehydrated = payload_to_verdict(payload, verdict.impl, 0)
        assert str(rehydrated.failed_obligation) == str(
            verdict.failed_obligation
        )


BAD = """
group data
field payload in data
field secret in data
proc touch(t) modifies t.payload
impl touch(t) { assume t != null ; t.secret := 1 }
"""
