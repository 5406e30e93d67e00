"""A structured event journal of a check's lifecycle.

The span tracer (:mod:`repro.obs.tracer`) answers "where did the time
go?"; this module answers "what happened?": job assignments, worker
spawns and deaths, retries and quarantines (OL902), hard timeouts and
deadlines (OL901), cache traffic and corruption (OL903) and ledger
commits and skips (OL905) — the lifecycle that is otherwise invisible
between the start and the final report.

Every record is a flat JSON object carrying

* ``event`` — the kind, drawn from :data:`EVENT_KINDS`;
* ``run_id`` — one opaque id per journal, so journals of several runs
  can be merged (``--events-append``) and still teased apart;
* ``seq`` — a monotone per-journal sequence number (total order even
  when two records land inside the same clock tick);
* ``t_mono`` / ``t_wall`` — monotonic seconds (for intervals) and wall
  seconds since the epoch;
* correlation ids (``worker``, ``job``, ``impl``/``index``) and a
  ``code`` field tying OL901/OL902/OL903/OL905 events to the
  diagnostics they accompany.

The journal follows the tracer's null-path discipline exactly: with no
journal installed, :func:`emit` is a single module-global read —
measured and guarded under 1% by ``benchmarks/bench_observability.py``.
``emit`` is thread-safe and listeners (e.g. the ``--progress``
renderer) observe records in sequence order.

The journal only records: it triggers no side effect of the check
itself. The owners of those effects (the job book's settle step, the
ledger, the cache) emit their records here like any other emitter.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

# Every kind the journal can record.  The schema's ``enum`` mirrors this
# tuple; ``EventJournal.emit`` rejects kinds outside it so a typo at an
# emission site fails loudly in tests rather than producing a record the
# validator would reject later.
EVENT_KINDS = (
    # run lifecycle
    "check-start",
    "check-end",
    # worker lifecycle
    "worker-spawn",
    "worker-died",
    # job lifecycle
    "job-assigned",
    "job-retry",
    "job-quarantined",  # OL902
    "job-hard-timeout",  # OL901
    "job-deadline",  # OL901
    "impl-checked",
    # cache traffic
    "cache-hit",
    "cache-miss",
    "cache-store",
    "cache-evict",
    "cache-reject",  # OL903
    # crash-safe run ledger
    "ledger-commit",
    "ledger-skip",  # OL905
)

_KIND_SET = frozenset(EVENT_KINDS)


class EventJournal:
    """An in-memory, thread-safe journal of structured event records."""

    def __init__(self, run_id: Optional[str] = None):
        if not run_id:
            import uuid  # loads ``platform`` too: only journaled runs pay

            run_id = uuid.uuid4().hex[:12]
        self.run_id = run_id
        self.records: List[Dict[str, object]] = []
        self._seq = 0
        # Re-entrant: a listener observing a record may itself query the
        # journal (counts(), len()) without deadlocking.
        self._lock = threading.RLock()
        self._listeners: List[Callable[[Dict[str, object]], None]] = []

    def emit(self, event: str, **fields: object) -> Dict[str, object]:
        """Append one record; ``None``-valued fields are dropped."""
        if event not in _KIND_SET:
            raise ValueError(f"unknown event kind {event!r}")
        record: Dict[str, object] = {
            "event": event,
            "run_id": self.run_id,
            "t_mono": time.monotonic(),
            "t_wall": time.time(),
        }
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            self.records.append(record)
            # Listeners run under the lock so they observe records in
            # sequence order even with many emitting threads; they must
            # stay cheap (the progress renderer rate-limits itself).
            for listener in self._listeners:
                try:
                    listener(record)
                except Exception:
                    pass  # a broken listener must never fail a check
        return record

    def add_listener(self, listener: Callable[[Dict[str, object]], None]) -> None:
        with self._lock:
            self._listeners.append(listener)

    def __len__(self) -> int:
        return len(self.records)

    def counts(self) -> Dict[str, int]:
        """Record count per event kind (handy in tests and reports)."""
        out: Dict[str, int] = {}
        with self._lock:
            for record in self.records:
                kind = str(record["event"])
                out[kind] = out.get(kind, 0) + 1
        return out

    def to_jsonl(self) -> str:
        with self._lock:
            records = list(self.records)
        lines = [json.dumps(record, sort_keys=True) for record in records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str, append: bool = False) -> None:
        """Write the journal as JSON Lines (one record per line).

        By default an existing file is truncated — successive runs do
        not interleave illegibly. With ``append`` the journal is added
        after whatever is already there; each run keeps its own
        ``run_id``, so :func:`repro.obs.schema.validate_event_journal`
        (which partitions its seq/t_mono invariants per run) still
        accepts the multi-run file.
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "a" if append else "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


# ----------------------------------------------------------------------
# Module-level installation, mirroring the tracer's `_ACTIVE` pattern.

_ACTIVE: Optional[EventJournal] = None


def journal() -> Optional[EventJournal]:
    """The installed journal, or None (the fast-path check)."""
    return _ACTIVE


def emit(event: str, **fields: object) -> None:
    """Emit to the installed journal; a single global read when disabled."""
    active = _ACTIVE
    if active is None:
        return
    active.emit(event, **fields)


@contextmanager
def journaling(target: Optional[EventJournal]) -> Iterator[Optional[EventJournal]]:
    """Install ``target`` as the process-wide journal for the duration.

    ``journaling(None)`` is a no-op passthrough, so callers can write
    ``with journaling(maybe_journal):`` without branching.
    """
    global _ACTIVE
    if target is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = target
    try:
        yield target
    finally:
        _ACTIVE = previous


def read_journal(
    path: str,
    *,
    strict: bool = True,
    on_skip: Optional[Callable[[int, str], None]] = None,
) -> List[Dict[str, object]]:
    """Parse a JSONL journal file back into a list of records.

    A process killed mid-write (SIGKILL, power loss) leaves a torn
    final line; that is expected crash debris, not corruption, so an
    unparsable **last** line is always skipped — reported through
    ``on_skip(lineno, reason)`` when given — rather than raised.  An
    unparsable line *before* the last one means the file itself is
    damaged: raised under ``strict`` (the default), skipped via
    ``on_skip`` otherwise.
    """
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last_lineno = len(lines)
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except ValueError as exc:
            reason = f"not JSON: {exc}"
            if lineno == last_lineno:
                reason = f"torn final record ({reason})"
            elif strict:
                raise ValueError(f"{path}:{lineno}: {reason}") from exc
            if on_skip is not None:
                on_skip(lineno, reason)
            continue
        records.append(record)
    return records
