"""Crash-safe incremental result cache for the modular checker.

The paper's modular-soundness story makes per-implementation verdicts a
function of (implementation body, scope interface, prover limits): scope
monotonicity guarantees the verdict cannot depend on the *other*
implementations in the scope. That makes verdicts cacheable by content
hash — and a rerun after a crash (or an edit touching one procedure)
only has to re-prove what actually changed.

Durability discipline:

* every entry is its own file, written to a temp name in the cache
  directory and published with an atomic ``os.replace`` — a ``kill -9``
  mid-run loses at most the entries still being written, never corrupts
  a published one;
* every entry carries a SHA-256 checksum of its payload plus the cache
  format and code version; a corrupted, truncated, or version-skewed
  entry is *rejected* (recorded on :attr:`ResultCache.rejections`, and
  surfaced by the driver as an ``OL903`` warning) and recomputed —
  never silently trusted;
* only deterministic outcomes are cached (``VERIFIED``, ``NOT_PROVED``,
  ``RESOURCE_OUT``). Worker deaths, crashes, and deadline timeouts are
  transient by definition and always re-run.

Explanations (:mod:`repro.obs.explain`) are not cached; the driver
bypasses the cache when ``explain=True`` so explain runs always carry
full blame reports and proof logs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro import __version__
from repro.obs import events as obs_events
from repro.oolong.ast import ImplDecl
from repro.oolong.pretty import pretty_decl
from repro.prover.core import Limits


def event_key(key: str) -> str:
    """The truncated key journal records carry (full keys are 64 hex)."""
    return key[:16]


if TYPE_CHECKING:
    from repro.oolong.program import Scope
    from repro.vcgen.checker import ImplVerdict

#: Bump when the cached payload layout (or anything that invalidates old
#: verdicts, e.g. the VC encoding) changes; old entries are then
#: rejected as version-skewed and recomputed.
CACHE_FORMAT = 1

#: Statuses whose verdicts are deterministic re-runs of the same inputs.
CACHEABLE_STATUSES = ("verified", "not proved", "resource limit exceeded")


def code_version() -> str:
    """The version stamp baked into every key and entry.

    Includes the discharge-pass version: discharged implementations
    never write cache entries, but which implementations *reach* the
    prover (and the semantics the differential guard assumes) changes
    with the pass, so cached verdicts must not outlive it.
    """
    from repro.analysis.effects import DISCHARGE_VERSION

    return f"{__version__}+cache{CACHE_FORMAT}+discharge{DISCHARGE_VERSION}"


#: The limit fields that can change a per-implementation verdict.
#: Batch-level settings (``scope_time_budget``/``scope_deadline``) are
#: excluded on purpose: they decide *whether* a job runs, not what its
#: verdict is once it does.
_VERDICT_LIMIT_FIELDS = (
    "time_budget",
    "max_instances",
    "max_rounds",
    "max_depth",
    "max_branches",
    "max_matches_per_round",
    "max_instance_width",
    "escalation_bonus",
)


def _limits_fingerprint(limits: Optional[Limits]) -> str:
    """The canonical JSON of ``limits``' :data:`_VERDICT_LIMIT_FIELDS`."""
    effective = limits if limits is not None else Limits()
    return _fingerprint_of(
        tuple(getattr(effective, name) for name in _VERDICT_LIMIT_FIELDS)
    )


@functools.lru_cache(maxsize=64)
def _fingerprint_of(values: tuple) -> str:
    return json.dumps(dict(zip(_VERDICT_LIMIT_FIELDS, values)), sort_keys=True)


def cache_key(
    scope: "Scope", impl: ImplDecl, index: int, limits: Optional[Limits]
) -> str:
    """Content hash of everything the implementation's verdict depends on.

    The scope *interface* (group/field/proc declarations, in declaration
    order — the background predicate is built from them in that order),
    the pretty-printed implementation body, its index among same-name
    implementations, the verdict-relevant limits, and the code version.

    The interface is hashed once per scope (:func:`_interface_digest`);
    each key copies that state and hashes only its own implementation,
    so keying every implementation of a scope is linear in its size.
    """
    hasher = _interface_digest(scope).copy()
    hasher.update(pretty_decl(impl).encode())
    hasher.update(f"\x02{index}\x02".encode())
    hasher.update(_limits_fingerprint(limits).encode())
    hasher.update(f"\x03{code_version()}".encode())
    return hasher.hexdigest()


def _interface_digest(scope: "Scope"):
    """The SHA-256 state after the scope interface and its ``\\x01``
    separator, memoized on :attr:`Scope.interface_digest`. Callers must
    ``copy()`` it before hashing more."""
    digest = scope.interface_digest
    if digest is None:
        digest = hashlib.sha256()
        for decl in scope.decls:
            if not isinstance(decl, ImplDecl):
                digest.update(pretty_decl(decl).encode())
                digest.update(b"\x00")
        digest.update(b"\x01")
        scope.interface_digest = digest
    return digest


def checksum(payload: dict) -> str:
    """SHA-256 of ``payload``'s canonical JSON (cache entries, ledger
    records)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def validate_entry(entry, key: str) -> Tuple[Optional[dict], Optional[str]]:
    """Validate one raw cache entry against ``key``.

    Returns ``(verdict_payload, None)`` on success or ``(None, reason)``
    on rejection. This is the single validation chain for every consumer
    of entries — the local :class:`ResultCache`, the cache *server*
    (which refuses to serve bad entries), and the remote cache *client*
    (which re-validates everything the server sends, so a corrupt or
    version-skewed entry is rejected on both ends of the wire).
    """
    payload = entry.get("payload") if isinstance(entry, dict) else None
    if not isinstance(payload, dict):
        return None, "malformed entry: no payload object"
    if entry.get("checksum") != checksum(payload):
        return None, "checksum mismatch (corrupted entry)"
    if payload.get("code_version") != code_version():
        return None, (
            f"version skew: entry {payload.get('code_version')!r} "
            f"vs current {code_version()!r}"
        )
    if payload.get("key") != key:
        return None, "key mismatch (entry written for another job)"
    verdict = payload.get("verdict")
    if (
        not isinstance(verdict, dict)
        or verdict.get("status") not in CACHEABLE_STATUSES
    ):
        return None, "malformed entry: bad verdict"
    return verdict, None


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + rename.

    The same durability discipline as cache entries: readers never see a
    half-written file, and a crash mid-write leaves the previous version
    intact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def encode_verdict(verdict: "ImplVerdict") -> dict:
    """The JSON projection of a verdict of **any** status.

    The one verdict codec: cache entries and run-ledger records both
    hold this dict, and :func:`payload_to_verdict` inverts it. A verdict
    with an error :class:`~repro.analysis.diagnostics.Diagnostic` also
    carries it under ``"error"``, so transient outcomes (timeouts,
    quarantines) round-trip too — a resumed run reports the interrupted
    run verbatim.
    """
    failed = verdict.failed_obligation
    payload = {
        "status": verdict.status.value,
        "stats": verdict.stats.to_dict(),
        "failed_obligation": (
            _obligation_to_dict(failed) if failed is not None else None
        ),
    }
    if verdict.error is not None:
        payload["error"] = verdict.error.to_dict()
    return payload


def verdict_to_payload(verdict: "ImplVerdict") -> Optional[dict]:
    """The cacheable projection of a verdict, or None if not cacheable."""
    if verdict.status.value not in CACHEABLE_STATUSES:
        return None
    return encode_verdict(verdict)


def _obligation_to_dict(obligation) -> dict:
    position = obligation.position
    return {
        "ident": obligation.ident,
        "kind": obligation.kind,
        "description": obligation.description,
        "position": (
            {
                "line": position.line,
                "column": position.column,
                "file": position.file,
            }
            if position is not None
            else None
        ),
        "target": obligation.target,
        "attr": obligation.attr,
        "modifies": list(obligation.modifies),
        "callee": obligation.callee,
        "arg_index": obligation.arg_index,
    }


def _obligation_from_dict(data: dict):
    from repro.errors import SourcePosition
    from repro.vcgen.wlp import ObligationInfo

    position = data.get("position")
    return ObligationInfo(
        ident=data["ident"],
        kind=data["kind"],
        description=data["description"],
        position=(
            SourcePosition(
                line=position["line"],
                column=position["column"],
                file=position.get("file"),
            )
            if position is not None
            else None
        ),
        target=data.get("target"),
        attr=data.get("attr"),
        modifies=tuple(data.get("modifies", ())),
        callee=data.get("callee"),
        arg_index=data.get("arg_index"),
    )


def _stats_from_dict(data: dict):
    from repro.prover.core import ProverStats

    return ProverStats(
        instantiations=data.get("instantiations", 0),
        rounds=data.get("rounds", 0),
        branches=data.get("branches", 0),
        conflicts=data.get("conflicts", 0),
        max_depth=data.get("max_depth", 0),
        unmatchable_quantifiers=data.get("unmatchable_quantifiers", 0),
        per_quantifier=dict(data.get("per_quantifier", {})),
        elapsed=data.get("elapsed", 0.0),
        sat_markers=list(data.get("sat_markers", [])),
        facts=data.get("facts", 0),
        merges=data.get("merges", 0),
        matches=data.get("matches", 0),
        matches_by_quantifier=dict(data.get("matches_by_quantifier", {})),
    )


def payload_to_verdict(payload: dict, impl: ImplDecl, index: int):
    """Rehydrate an :func:`encode_verdict` payload (a cache entry's or a
    ledger record's) into an :class:`ImplVerdict`."""
    from repro.analysis.diagnostics import diagnostic_from_dict
    from repro.vcgen.checker import ImplStatus, ImplVerdict

    status = next(
        s for s in ImplStatus if s.value == payload["status"]
    )
    failed = payload.get("failed_obligation")
    error = payload.get("error")
    return ImplVerdict(
        impl=impl,
        index=index,
        status=status,
        stats=_stats_from_dict(payload.get("stats", {})),
        failed_obligation=(
            _obligation_from_dict(failed) if failed is not None else None
        ),
        error=diagnostic_from_dict(error) if error is not None else None,
    )


@dataclass
class ResultCache:
    """A directory of checksummed per-verdict entries.

    ``hits``/``misses``/``stores`` count this process's traffic;
    ``rejections`` records every entry that failed validation as
    ``(key, reason)`` pairs — the driver turns them into ``OL903``
    warnings so a flaky disk never silently flips a verdict.

    ``max_bytes``, when set, bounds the on-disk size: after every store
    the least-recently-*used* entries (by mtime — hits touch the file)
    are evicted until the directory fits. Eviction only ever removes
    entries, never ``summary.json`` or in-flight temp files, and an
    evicted entry simply misses on the next run — verdicts are always
    recomputable.
    """

    directory: str
    max_bytes: Optional[int] = None
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    rejections: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(self, key: str) -> Optional[dict]:
        """The validated payload for ``key``, or None (miss/rejected)."""
        path = self._path(key)
        entry, error = self.read_entry(key)
        if entry is None:
            if error is None:
                self.misses += 1
                obs_events.emit("cache-miss", key=event_key(key))
            else:
                self._reject(key, error)
            return None
        verdict, reason = validate_entry(entry, key)
        if verdict is None:
            self._reject(key, reason or "entry rejected")
            return None
        self.hits += 1
        try:
            # Entry size approximates the prover work the hit avoided;
            # the journal analytics sum it as "bytes saved".
            size = os.path.getsize(path)
        except OSError:
            size = None
        obs_events.emit("cache-hit", key=event_key(key), bytes=size)
        try:
            os.utime(path)  # refresh recency so LRU eviction spares it
        except OSError:
            pass
        return verdict

    def read_entry(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """The raw (unvalidated) entry for ``key``.

        Returns ``(entry, None)``, ``(None, None)`` for a clean miss, or
        ``(None, reason)`` when the file exists but cannot be read. Used
        by the cache server, which serves raw entries and leaves final
        validation to the client.
        """
        try:
            with open(self._path(key)) as handle:
                return json.load(handle), None
        except FileNotFoundError:
            return None, None
        except (OSError, ValueError) as error:
            return None, f"unreadable entry: {error}"

    def _reject(self, key: str, reason: str) -> None:
        self.misses += 1
        self.rejections.append((key, reason))
        obs_events.emit(
            "cache-reject", key=event_key(key), reason=reason, code="OL903"
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def store(self, key: str, verdict_payload: dict, *, impl: str, index: int) -> bool:
        """Atomically publish one verdict; False if the write failed.

        Write failures are deliberately non-fatal (the run still has its
        in-memory verdict); they are recorded as rejections so the CLI
        can warn about a read-only or full cache directory.
        """
        payload = {
            "format": CACHE_FORMAT,
            "code_version": code_version(),
            "key": key,
            "impl": impl,
            "index": index,
            "verdict": verdict_payload,
        }
        entry = {"checksum": checksum(payload), "payload": payload}
        try:
            fd, temp_path = tempfile.mkstemp(
                prefix=f".{key[:16]}-", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle)
                os.replace(temp_path, self._path(key))
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self.rejections.append((key, f"cache write failed: {error}"))
            obs_events.emit(
                "cache-reject",
                key=event_key(key),
                reason=f"cache write failed: {error}",
                code="OL903",
            )
            return False
        self.stores += 1
        obs_events.emit("cache-store", key=event_key(key))
        if self.max_bytes is not None:
            self._evict_to_budget()
        return True

    def _evict_to_budget(self) -> None:
        """Drop least-recently-used entries until the directory fits.

        Best-effort by design: a concurrently-deleted file is simply
        skipped (another process may be evicting too), and entries are
        always recomputable, so racing readers at worst re-prove.
        """
        entries = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(".json") or name == "summary.json":
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        budget = self.max_bytes or 0
        for _, size, path in sorted(entries):
            if total <= budget:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
            obs_events.emit(
                "cache-evict",
                key=event_key(os.path.basename(path)[: -len(".json")]),
                bytes=size,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        summary = {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "rejections": len(self.rejections),
        }
        if self.max_bytes is not None:
            summary["max_bytes"] = self.max_bytes
            summary["evictions"] = self.evictions
        return summary
