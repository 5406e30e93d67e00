"""A crash-safe write-ahead run ledger for resumable checking runs.

The result cache (:mod:`repro.parallel.cache`) makes *re-running* cheap,
but only for the deterministic statuses it is allowed to keep, and only
entry-by-entry: SIGKILL the coordinator mid-run and the report itself —
which verdicts were already decided, in what order, with what stats — is
gone. The run ledger closes that gap. With ``--run-dir DIR`` every
decided verdict is appended to ``DIR/ledger.jsonl`` as one
``verdict-committed`` record *before* the run can observe it in a
report: the line is written, flushed, and ``fsync``'d, so after any
crash the ledger holds exactly the verdicts the run had decided
(modulo at most one torn final line, which the reader skips).

The sync is batched for the verdicts settled before any proving
(static discharge, cache hits — :meth:`RunLedger.settled_batch`): each
record is written and flushed as it is committed, and the whole batch
is ``fsync``'d once when the checker's decide step returns, before any
executor starts and so long before any report merge. Every verdict the
prover decides is still ``fsync``'d on its own commit. A warm re-check
of N cached implementations thus costs two ``fsync``s (the run header
and the batch) instead of N + 1. A SIGKILL inside the batch loses
nothing already flushed (the kernel holds it); a power loss there can
lose only records of settled verdicts, which a rerun settles again from
discharge or the cache.

``oolong check --run-dir DIR --resume`` then replays the ledger:

* every record is keyed by the same content hash the result cache uses
  (:func:`repro.parallel.cache.cache_key` — scope interface + impl body
  + limits + code version), so validating a record against the *current*
  scope is a dictionary lookup: an edited interface, changed limits, or
  a version skew simply makes the old key unreachable and the impl is
  re-checked;
* validated verdicts — **all** statuses, including the transient ones
  the cache refuses (timeouts, quarantines), with their error
  diagnostics round-tripped through the cache's verdict codec
  (:func:`repro.parallel.cache.encode_verdict`) — are preloaded, and the
  checker settles those jobs before any executor runs, so serial,
  ``-j``, and ``--fleet`` resumes all report them without re-proving;
* damage is contained, not fatal: a torn final line, a checksum-failing
  record, or a duplicated record is counted and skipped (surfaced as an
  ``OL905`` warning on stderr), and only a header-level mismatch
  (format or code version skew) discards the whole ledger.

Commits are deduplicated by key on the write side too — a resumed run
re-announces its preloaded verdicts, and they must not grow the ledger.

The coordinator chaos stages (:data:`repro.testing.faults.COORDINATOR_STAGES`)
are interpreted here and in the checker's merge loop: ``kill-coordinator``
and ``kill-during-merge`` exit with ``os._exit(137)`` (modelling
SIGKILL — nothing but fsync'd data survives), ``truncate-ledger-tail``
tears the ledger mid-record, and ``duplicate-commit`` appends a record
twice. ``tests/test_chaos.py`` drives resume differentials through them.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs import events as obs_events
from repro.parallel.cache import (
    cache_key,
    checksum,
    code_version,
    encode_verdict,
    event_key,
    payload_to_verdict,
)
from repro.parallel.jobs import build_jobs
from repro.testing.faults import record_supervisor_fault, supervisor_fault_hits

if TYPE_CHECKING:
    from repro.oolong.program import Scope
    from repro.prover.core import Limits
    from repro.vcgen.checker import ImplVerdict

#: Bump when the ledger record layout changes; a resume against an older
#: layout then discards the ledger (full recheck) instead of misreading.
LEDGER_FORMAT = 1

#: The ledger file inside a ``--run-dir``.
LEDGER_NAME = "ledger.jsonl"

#: Where a stale ledger is rotated when a fresh (non-resume) run reuses
#: the directory — atomic ``os.replace``, so a crash mid-rotation leaves
#: either the old ledger or the rotated copy, never a mix.
PREVIOUS_NAME = "ledger.prev.jsonl"

#: The exit code of a chaos-killed coordinator (128 + SIGKILL), shared
#: with the tests so they can tell "chaos fired" from a real crash.
CHAOS_EXIT_CODE = 137


class RunLedger:
    """The write-ahead verdict ledger of one ``--run-dir`` checking run."""

    def __init__(
        self,
        run_dir: str,
        scope: "Scope",
        limits: Optional["Limits"],
        *,
        resume: bool = False,
        run_id: Optional[str] = None,
    ):
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, LEDGER_NAME)
        os.makedirs(run_dir, exist_ok=True)

        # The same content keys the result cache uses: recomputing them
        # against the *current* scope is the interface-hash validation —
        # any record whose key no longer exists is stale by definition.
        # (The interface is hashed once per scope; the checker hands
        # these keys to the cache instead of computing them again.)
        self.keys: Dict[Tuple[str, int], str] = {}
        self._by_key: Dict[str, Tuple[str, int, object]] = {}
        for job in build_jobs(scope):
            key = cache_key(scope, job.impl, job.impl_index, limits)
            self.keys[(job.proc_name, job.impl_index)] = key
            self._by_key[key] = (job.proc_name, job.impl_index, job.impl)

        #: Verdicts replayed from a prior run, keyed like ``preresolved``.
        self.preloaded: Dict[Tuple[str, int], "ImplVerdict"] = {}
        #: Keys already durable on disk (write-side dedupe).
        self.committed: set = set()
        #: ``(where, reason)`` pairs for every record recovery skipped —
        #: the CLI renders them as OL905 warnings on stderr.
        self.warnings: List[Tuple[str, str]] = []
        #: Why the whole ledger was discarded, if it was (header skew).
        self.discarded: Optional[str] = None
        self.rotated = False
        self.commits = 0  # records this process appended
        self.deduped = 0  # write-side duplicate commits suppressed
        self.stale = 0  # resume records whose key left the scope
        self.skipped = 0  # resume records dropped (torn/corrupt/dup)

        if resume:
            self._load()
            self._trim_partial_line()
        elif os.path.exists(self.path):
            os.replace(self.path, os.path.join(run_dir, PREVIOUS_NAME))
            self.rotated = True

        self._handle = open(self.path, "a", encoding="utf-8")
        self._batching = False
        self._unsynced = False
        self._commit_ordinal = 0
        self._merge_ordinal = 0
        self._append(
            {
                "record": "run-start",
                "ledger_format": LEDGER_FORMAT,
                "code_version": code_version(),
                "run_id": run_id,
                "impls": len(self.keys),
                "resumed": len(self.preloaded),
            }
        )

    # ------------------------------------------------------------------
    # Recovery (resume)
    # ------------------------------------------------------------------

    def _load(self) -> None:
        """Replay an existing ledger into :attr:`preloaded`."""
        if not os.path.exists(self.path):
            return
        records = obs_events.read_journal(
            self.path,
            strict=False,
            on_skip=lambda lineno, reason: self._warn(
                f"{self.path}:{lineno}", reason
            ),
        )
        for record in records:
            kind = record.get("record")
            if kind == "run-start":
                if (
                    record.get("ledger_format") != LEDGER_FORMAT
                    or record.get("code_version") != code_version()
                ):
                    self._discard(
                        f"version skew: ledger written by "
                        f"{record.get('code_version')!r} format "
                        f"{record.get('ledger_format')!r}, current "
                        f"{code_version()!r} format {LEDGER_FORMAT}"
                    )
                    return
                continue
            if kind != "verdict-committed":
                self.skipped += 1
                self._warn(self.path, f"unknown record kind {kind!r}")
                continue
            self._replay(record)

    def _replay(self, record: dict) -> None:
        payload = record.get("verdict")
        key = record.get("key")
        if not isinstance(payload, dict) or not isinstance(key, str):
            self.skipped += 1
            self._warn(self.path, "malformed verdict-committed record")
            return
        if record.get("checksum") != checksum(payload):
            self.skipped += 1
            self._warn(
                self.path,
                f"checksum mismatch on record for impl "
                f"{record.get('impl')!r} (corrupted entry)",
            )
            return
        if key not in self._by_key:
            # Interface, impl body, limits, or code version changed
            # since the record was written: re-check, don't replay.
            self.stale += 1
            return
        if key in self.committed:
            self.skipped += 1
            self._warn(
                self.path,
                f"duplicate record for impl {record.get('impl')!r} "
                f"(deduplicated)",
            )
            return
        proc_name, index, impl = self._by_key[key]
        try:
            verdict = payload_to_verdict(payload, impl, index)
        except Exception as error:
            self.skipped += 1
            self._warn(
                self.path,
                f"unreadable verdict for impl {proc_name!r}: {error}",
            )
            return
        self.preloaded[(proc_name, index)] = verdict
        self.committed.add(key)

    def _trim_partial_line(self) -> None:
        """Drop a torn final line so appended records start clean.

        Without this, appending the resume header to a file whose last
        line lacks its newline would *concatenate* the two — turning
        recoverable crash debris into a genuinely corrupt record.
        """
        if self.discarded is not None or not os.path.exists(self.path):
            return
        try:
            with open(self.path, "rb+") as handle:
                data = handle.read()
                if not data or data.endswith(b"\n"):
                    return
                cut = data.rfind(b"\n") + 1
                handle.truncate(cut)
        except OSError:
            pass  # the append below will surface a real I/O problem

    def _warn(self, where: str, reason: str) -> None:
        self.warnings.append((where, reason))
        obs_events.emit("ledger-skip", reason=reason, code="OL905")

    def _discard(self, reason: str) -> None:
        """Give up on the whole ledger: rotate it aside, recheck all."""
        self.discarded = reason
        self.preloaded.clear()
        self.committed.clear()
        self.stale = 0
        self.skipped = 0
        self.warnings = [(self.path, reason)]
        os.replace(self.path, os.path.join(self.run_dir, PREVIOUS_NAME))
        self.rotated = True

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------

    @contextmanager
    def settled_batch(self):
        """Make the commits inside the block durable with one ``fsync``.

        Each record is still written and flushed as it is committed; the
        block's end syncs them all at once (if there were any). The
        checker wraps its decide step in it: verdicts settled without a
        prover (discharge, cache hits) become durable together, before
        any proving starts and so before any report can show them.
        """
        self._batching = True
        try:
            yield
        finally:
            self._batching = False
            if self._unsynced:
                self._sync()

    def commit(self, verdict: "ImplVerdict") -> None:
        """Durably append one decided verdict (write + flush + fsync,
        the fsync deferred to the end of a :meth:`settled_batch`).

        Idempotent per key: re-announced verdicts (resume preloads) are
        suppressed, so the ledger carries one record per implementation
        no matter how many times it is reported.
        """
        key = self.keys.get((verdict.impl.name, verdict.index))
        if key is None:
            return  # not a scope impl (cannot happen via emit_impl_checked)
        if key in self.committed:
            self.deduped += 1
            return
        payload = encode_verdict(verdict)
        record = {
            "record": "verdict-committed",
            "key": key,
            "impl": verdict.impl.name,
            "index": verdict.index,
            "verdict": payload,
            "checksum": checksum(payload),
        }
        ordinal = self._commit_ordinal
        self._commit_ordinal += 1
        duplicate = supervisor_fault_hits("duplicate-commit").get(ordinal)
        self._append(record, times=2 if duplicate is not None else 1)
        if duplicate is not None:
            record_supervisor_fault("duplicate-commit", ordinal, "corrupt")
        self.committed.add(key)
        self.commits += 1
        obs_events.emit(
            "ledger-commit",
            impl=verdict.impl.name,
            index=verdict.index,
            status=verdict.status.value,
            key=event_key(key),
        )
        torn = supervisor_fault_hits("truncate-ledger-tail").get(ordinal)
        if torn is not None:
            record_supervisor_fault("truncate-ledger-tail", ordinal, "corrupt")
            self._truncate_tail()
        kill = supervisor_fault_hits("kill-coordinator").get(ordinal)
        if kill is not None:
            record_supervisor_fault("kill-coordinator", ordinal, "raise")
            os._exit(CHAOS_EXIT_CODE)

    def _append(self, record: dict, times: int = 1) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        self._handle.write(line * times)
        self._handle.flush()
        if self._batching:
            self._unsynced = True
        else:
            self._sync()

    def _sync(self) -> None:
        os.fsync(self._handle.fileno())
        self._unsynced = False

    def _truncate_tail(self) -> None:
        """Chop the last record mid-line (simulated torn write)."""
        self._handle.flush()
        size = self._handle.tell()
        self._handle.truncate(max(0, size - 20))
        self._handle.flush()
        self._sync()

    def merge_chaos_point(self) -> None:
        """The ``kill-during-merge`` injection point.

        Called by the checker once per job merged into the report: the
        verdict is already durable in the ledger, but not yet reported —
        the window where a crash loses the report and only a resume can
        recover it.
        """
        ordinal = self._merge_ordinal
        self._merge_ordinal += 1
        kill = supervisor_fault_hits("kill-during-merge").get(ordinal)
        if kill is not None:
            record_supervisor_fault("kill-during-merge", ordinal, "raise")
            os._exit(CHAOS_EXIT_CODE)

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        summary = {
            "path": self.path,
            "impls": len(self.keys),
            "commits": self.commits,
            "resumed": len(self.preloaded),
            "deduped": self.deduped,
            "stale": self.stale,
            "skipped": self.skipped,
        }
        if self.rotated:
            summary["rotated"] = True
        if self.discarded is not None:
            summary["discarded"] = self.discarded
        return summary
