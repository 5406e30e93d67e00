"""Journal analytics: reconstruct a run from its JSONL event journal.

The journal (:mod:`repro.obs.events`) records *what happened*; this
module answers the operator's questions about it after the fact —
"which worker was idle, what gated wall-clock, did the cache earn its
keep, which implementations hit OL901/OL902?" — from nothing but the
JSON Lines file a ``--events`` run leaves behind. Nothing here imports
the checker: a journal copied from another machine analyzes
identically.

Three consumers sit on top of :func:`analyze_journal`:

* ``oolong events report FILE`` renders the report as text
  (:func:`render_report_text`) or JSON, pinned by
  ``report.schema.json`` next to this module;
* ``oolong events export --trace`` converts the journal's job
  intervals into a Chrome trace (:func:`journal_chrome_trace`), a
  Perfetto timeline for a run that was not traced;
* ``benchmarks/bench_observability.py`` guards that analysis stays
  linear (``report_ms_per_10k_events``).

All analysis is single-pass over the records plus a sort; busy
intervals are reconstructed from each worker's ``job-assigned``
openings matched against its ``impl-checked``/``job-hard-timeout``/
``worker-died`` closings. The critical path is the greedy backward
chain over those intervals: from the latest-ending interval, repeatedly
hop to the latest-ending interval that finished before the current one
began — the job chain that bounded wall-clock.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

REPORT_SCHEMA_VERSION = 2

# Event kinds that close a worker's busy interval.
_CLOSERS = ("impl-checked", "job-hard-timeout", "worker-died")
# OL9xx-carrying kinds tabulated as incidents.
_INCIDENT_KINDS = (
    "job-quarantined",
    "job-hard-timeout",
    "job-deadline",
    "cache-reject",
)


class AnalysisError(ValueError):
    """Raised when the journal cannot be analyzed (no such run)."""


# ----------------------------------------------------------------------
# Run selection


def run_ids(records: Iterable[dict]) -> List[str]:
    """Distinct ``run_id`` values in first-appearance order."""
    seen: Dict[str, None] = {}
    for record in records:
        run = record.get("run_id")
        if isinstance(run, str) and run not in seen:
            seen[run] = None
    return list(seen)


def _select_run(
    records: Sequence[dict], run_id: Optional[str]
) -> Tuple[str, List[dict]]:
    if not records:
        raise AnalysisError("empty journal")
    if run_id is None:
        # Prefer the first run that actually checked something.
        for record in records:
            if record.get("event") == "check-start":
                run_id = str(record.get("run_id"))
                break
        else:
            run_id = str(records[0].get("run_id"))
    chosen = [r for r in records if r.get("run_id") == run_id]
    if not chosen:
        raise AnalysisError(
            f"run {run_id!r} not in journal (runs: {run_ids(records)})"
        )
    chosen.sort(key=lambda r: (r.get("seq", 0),))
    return run_id, chosen


def _as_float(value: object, default: float = 0.0) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return default


# ----------------------------------------------------------------------
# Interval reconstruction


class _Interval:
    __slots__ = (
        "worker",
        "impl",
        "index",
        "job",
        "attempt",
        "start",
        "end",
        "status",
        "code",
    )

    def __init__(self, record: dict):
        self.worker = str(record.get("worker", "?"))
        self.impl = record.get("impl")
        self.index = record.get("index")
        self.job = record.get("job")
        self.attempt = record.get("attempt")
        self.start = _as_float(record.get("t_mono"))
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.code: Optional[str] = None

    def close(self, record: dict) -> None:
        self.end = _as_float(record.get("t_mono"), self.start)
        if self.end < self.start:
            self.end = self.start
        status = record.get("status")
        if isinstance(status, str):
            self.status = status
        code = record.get("code")
        if isinstance(code, str):
            self.code = code
        if self.impl is None and record.get("impl") is not None:
            self.impl = record.get("impl")
            self.index = record.get("index")

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def _reconstruct_intervals(records: Sequence[dict]) -> List[_Interval]:
    by_worker: Dict[str, _Interval] = {}
    closed: List[_Interval] = []
    last_mono = 0.0
    for record in records:
        last_mono = max(last_mono, _as_float(record.get("t_mono"), last_mono))
        kind = record.get("event")
        if kind == "job-assigned":
            interval = _Interval(record)
            by_worker[interval.worker] = interval
        elif kind in _CLOSERS:
            worker = record.get("worker")
            if worker is None:
                continue
            interval = by_worker.pop(str(worker), None)
            if interval is not None:
                interval.close(record)
                closed.append(interval)
    # Anything still open at the end of the journal ends with the run.
    for interval in by_worker.values():
        interval.close({"t_mono": last_mono})
        closed.append(interval)
    closed.sort(key=lambda i: (i.start, i.end))
    return closed


# ----------------------------------------------------------------------
# Critical path


def _critical_path(
    intervals: Sequence[_Interval], run_start: float, wall: float
) -> dict:
    jobs = sorted(
        (i for i in intervals if i.impl is not None and i.end is not None),
        key=lambda i: (i.end, i.start),
    )
    chain: List[_Interval] = []
    if jobs:
        # Each hop wants the latest-ending job with end <= current.start.
        # With jobs sorted by end, that's one bisect per hop instead of a
        # scan — soak-sized journals (a long back-to-back chain) would
        # otherwise make this pass quadratic.
        ends = [i.end for i in jobs]
        pos = len(jobs) - 1
        chain.append(jobs[pos])
        while True:
            # min() keeps a zero-duration interval (end == start) from
            # satisfying its own predicate and looping forever.
            cut = min(bisect.bisect_right(ends, jobs[pos].start), pos)
            if cut == 0:
                break
            pos = cut - 1
            chain.append(jobs[pos])
        chain.reverse()
    total = sum(i.seconds for i in chain)
    return {
        "seconds": round(total, 6),
        "coverage": round(total / wall, 4) if wall > 0 else 0.0,
        "chain": [
            {
                "impl": str(i.impl),
                "index": i.index if isinstance(i.index, int) else -1,
                "worker": i.worker,
                "start": round(i.start - run_start, 6),
                "end": round((i.end or i.start) - run_start, 6),
                "seconds": round(i.seconds, 6),
                "status": i.status,
                "code": i.code,
            }
            for i in chain
        ],
    }


# ----------------------------------------------------------------------
# The report


def analyze_journal(
    records: Sequence[dict], run_id: Optional[str] = None
) -> dict:
    """Reconstruct one run from its journal records.

    ``records`` is the parsed journal (:func:`repro.obs.read_journal`);
    ``run_id`` selects the run in a multi-run (``--events-append``)
    file, defaulting to the first run containing a ``check-start``.
    Returns the report dict pinned by ``report.schema.json``.
    """
    run_id, records = _select_run(list(records), run_id)
    run_start = _as_float(records[0].get("t_mono"))
    run_end = run_start
    backend: Optional[str] = None
    ok: Optional[bool] = None
    impls_announced = 0
    event_counts: Dict[str, int] = {}
    for record in records:
        run_end = max(run_end, _as_float(record.get("t_mono"), run_end))
        kind = str(record.get("event", "?"))
        event_counts[kind] = event_counts.get(kind, 0) + 1
        if kind == "check-start":
            backend = record.get("backend") or backend
            impls_announced = int(_as_float(record.get("impls")))
        elif kind == "check-end":
            value = record.get("ok")
            if isinstance(value, bool):
                ok = value
    wall = max(run_end - run_start, 0.0)

    intervals = _reconstruct_intervals(records)

    # Per-worker utilization and idle gaps.
    worker_rows: List[dict] = []
    by_worker: Dict[str, List[_Interval]] = {}
    for interval in intervals:
        by_worker.setdefault(interval.worker, []).append(interval)
    first_seen: Dict[str, float] = {}
    for record in records:
        if record.get("event") == "worker-spawn":
            name = record.get("worker")
            if name is not None:
                first_seen.setdefault(
                    str(name), _as_float(record.get("t_mono"), run_start)
                )
    for worker in sorted(
        set(by_worker) | set(first_seen), key=lambda w: (w not in by_worker, w)
    ):
        spans = by_worker.get(worker, [])
        busy = sum(i.seconds for i in spans)
        seen = first_seen.get(
            worker, spans[0].start if spans else run_start
        )
        horizon = max(run_end - seen, 0.0)
        # Idle gaps between consecutive busy intervals plus the lead-in
        # and tail; only gaps that are genuinely observable (positive).
        gaps: List[float] = []
        cursor = seen
        for interval in spans:
            if interval.start > cursor:
                gaps.append(interval.start - cursor)
            cursor = max(cursor, interval.end or interval.start)
        if run_end > cursor:
            gaps.append(run_end - cursor)
        worker_rows.append(
            {
                "worker": worker,
                "jobs": len(spans),
                "busy_seconds": round(busy, 6),
                "utilization": round(busy / horizon, 4) if horizon > 0 else 0.0,
                "idle_gaps": len(gaps),
                "longest_idle_seconds": round(max(gaps), 6) if gaps else 0.0,
            }
        )

    # Implementation outcomes, deduped by (impl, index): the checker
    # announces each verdict once, but the last announcement wins should
    # a journal carry one twice.
    final: Dict[Tuple[object, object], dict] = {}
    for record in records:
        if record.get("event") == "impl-checked":
            final[(record.get("impl"), record.get("index"))] = record
    statuses: Dict[str, int] = {}
    for record in final.values():
        status = str(record.get("status", "?"))
        statuses[status] = statuses.get(status, 0) + 1
    by_code = {"OL901": 0, "OL902": 0, "OL903": 0}
    for record in final.values():
        code = record.get("code")
        if code in ("OL901", "OL902"):
            by_code[str(code)] += 1
    by_code["OL903"] = event_counts.get("cache-reject", 0)

    incidents: List[dict] = []
    for record in records:
        kind = str(record.get("event"))
        if kind not in _INCIDENT_KINDS:
            continue
        code = record.get("code")
        incidents.append(
            {
                "event": kind,
                "code": str(code) if isinstance(code, str) else "",
                "impl": str(record.get("impl", "")) or "",
                "index": (
                    record.get("index")
                    if isinstance(record.get("index"), int)
                    else -1
                ),
                "worker": str(record.get("worker", "")) or "",
                "detail": str(
                    record.get("reason", record.get("key", ""))
                ),
                "at": round(
                    _as_float(record.get("t_mono")) - run_start, 6
                ),
            }
        )

    cache_hits = event_counts.get("cache-hit", 0)
    cache_misses = event_counts.get("cache-miss", 0)
    lookups = cache_hits + cache_misses
    bytes_saved = 0
    for record in records:
        if record.get("event") == "cache-hit":
            bytes_saved += int(_as_float(record.get("bytes")))

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "run_id": run_id,
        "backend": backend or "unknown",
        "ok": ok,
        "impls": impls_announced or len(final),
        "wall_seconds": round(wall, 6),
        "events": len(records),
        "event_counts": event_counts,
        "workers": worker_rows,
        "faults": {
            "retries": event_counts.get("job-retry", 0),
            "quarantined": event_counts.get("job-quarantined", 0),
            "hard_timeouts": event_counts.get("job-hard-timeout", 0),
            "deadline": event_counts.get("job-deadline", 0),
            "cache_rejects": event_counts.get("cache-reject", 0),
            "by_code": by_code,
            "incidents": incidents,
        },
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "stores": event_counts.get("cache-store", 0),
            "evictions": event_counts.get("cache-evict", 0),
            "rejects": event_counts.get("cache-reject", 0),
            "hit_ratio": round(cache_hits / lookups, 4) if lookups else 0.0,
            "bytes_saved": bytes_saved,
        },
        "statuses": statuses,
        "critical_path": _critical_path(intervals, run_start, wall),
    }


# ----------------------------------------------------------------------
# Text rendering


def _fmt_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(
        str(cell).ljust(width) for cell, width in zip(cells, widths)
    ).rstrip()


def render_report_text(report: dict) -> str:
    """The operator-facing text rendering of one analyzed run."""
    lines: List[str] = []
    ok = report.get("ok")
    verdict = "ok" if ok else ("FAILED" if ok is False else "unknown")
    lines.append(
        f"run {report['run_id']}  backend={report['backend']}  "
        f"impls={report['impls']}  result={verdict}  "
        f"wall={report['wall_seconds']:.3f}s  events={report['events']}"
    )

    workers = report.get("workers", [])
    if workers:
        lines.append("")
        lines.append("workers")
        header = (
            "worker", "jobs", "busy_s", "util", "idle_gaps", "longest_idle_s"
        )
        rows = [
            (
                w["worker"],
                w["jobs"],
                f"{w['busy_seconds']:.3f}",
                f"{100 * w['utilization']:.1f}%",
                w["idle_gaps"],
                f"{w['longest_idle_seconds']:.3f}",
            )
            for w in workers
        ]
        widths = [
            max(len(str(header[i])), *(len(str(r[i])) for r in rows))
            for i in range(len(header))
        ]
        lines.append("  " + _fmt_row(header, widths))
        for row in rows:
            lines.append("  " + _fmt_row([str(c) for c in row], widths))

    faults = report.get("faults", {})
    by_code = faults.get("by_code", {})
    lines.append("")
    lines.append(
        "faults  retries={r} quarantined={q} hard_timeouts={h} "
        "deadline={d}  OL901={c1} OL902={c2} OL903={c3}".format(
            r=faults.get("retries", 0),
            q=faults.get("quarantined", 0),
            h=faults.get("hard_timeouts", 0),
            d=faults.get("deadline", 0),
            c1=by_code.get("OL901", 0),
            c2=by_code.get("OL902", 0),
            c3=by_code.get("OL903", 0),
        )
    )
    for incident in faults.get("incidents", []):
        where = incident["impl"] or incident["detail"] or "-"
        index = incident["index"]
        if index >= 0:
            where = f"{where}#{index}"
        lines.append(
            f"  [{incident['code'] or '-----'}] {incident['event']}  "
            f"{where}  t+{incident['at']:.3f}s"
            + (f"  ({incident['detail']})" if incident["detail"] else "")
        )

    cache = report.get("cache", {})
    if cache.get("hits") or cache.get("misses") or cache.get("stores"):
        lines.append("")
        lines.append(
            "cache  hits={hits} misses={misses} stores={stores} "
            "rejects={rejects} evictions={evictions} "
            "hit_ratio={hit_ratio:.1%} bytes_saved={bytes_saved}".format(
                **cache
            )
        )

    statuses = report.get("statuses", {})
    if statuses:
        lines.append("")
        lines.append(
            "verdicts  "
            + "  ".join(
                f"{status}={count}"
                for status, count in sorted(statuses.items())
            )
        )

    path = report.get("critical_path", {})
    chain = path.get("chain", [])
    lines.append("")
    if chain:
        lines.append(
            f"critical path  {path['seconds']:.3f}s over {len(chain)} "
            f"job(s)  ({100 * path['coverage']:.1f}% of wall-clock)"
        )
        for link in chain:
            suffix = f" [{link['code']}]" if link.get("code") else ""
            lines.append(
                f"  t+{link['start']:.3f}s  {link['impl']}#{link['index']}"
                f"  {link['seconds']:.3f}s  on {link['worker']}"
                f"  {link.get('status') or ''}{suffix}".rstrip()
            )
    else:
        lines.append("critical path  (no job intervals in this journal)")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace from the journal alone

_JOURNAL_TRACE_PID = 1
_MARKER_TID = 1


def journal_chrome_trace(
    records: Sequence[dict],
    run_id: Optional[str] = None,
    *,
    process_name: str = "oolong-journal",
) -> dict:
    """A Chrome trace reconstructed purely from journal records.

    Busy intervals become complete ("X") events on one lane per worker;
    OL9xx incidents and run lifecycle markers become zero-duration "X"
    events on a marker lane. The output passes
    :func:`repro.obs.export.validate_chrome_trace` — every timestamp is
    rebased on the run's first record, so nothing is negative.
    """
    run_id, records = _select_run(list(records), run_id)
    run_start = _as_float(records[0].get("t_mono"))
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _JOURNAL_TRACE_PID,
            "tid": 0,
            "args": {"name": f"{process_name} {run_id}"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": _JOURNAL_TRACE_PID,
            "tid": _MARKER_TID,
            "args": {"name": "events"},
        },
    ]
    lanes: Dict[str, int] = {}

    def _lane(worker: str) -> int:
        if worker not in lanes:
            lanes[worker] = _MARKER_TID + 1 + len(lanes)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _JOURNAL_TRACE_PID,
                    "tid": lanes[worker],
                    "args": {"name": f"worker {worker}"},
                }
            )
        return lanes[worker]

    for interval in _reconstruct_intervals(records):
        name = (
            f"{interval.impl}#{interval.index}"
            if interval.impl is not None
            else f"job {interval.job}"
        )
        args = {"worker": interval.worker}
        if interval.attempt is not None:
            args["attempt"] = interval.attempt
        if interval.status is not None:
            args["status"] = interval.status
        if interval.code is not None:
            args["code"] = interval.code
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": "implementation",
                "ts": round(max(interval.start - run_start, 0.0) * 1e6, 3),
                "dur": round(max(interval.seconds, 0.0) * 1e6, 3),
                "pid": _JOURNAL_TRACE_PID,
                "tid": _lane(interval.worker),
                "args": args,
            }
        )

    marker_kinds = set(_INCIDENT_KINDS) | {
        "check-start",
        "check-end",
        "job-retry",
        "worker-died",
    }
    for record in records:
        kind = str(record.get("event"))
        if kind not in marker_kinds:
            continue
        args = {
            key: record[key]
            for key in ("impl", "index", "worker", "code", "reason", "job")
            if key in record
        }
        events.append(
            {
                "ph": "X",
                "name": kind,
                "cat": "event",
                "ts": round(
                    max(_as_float(record.get("t_mono")) - run_start, 0.0)
                    * 1e6,
                    3,
                ),
                "dur": 0.0,
                "pid": _JOURNAL_TRACE_PID,
                "tid": _MARKER_TID,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_report(path: str, report: dict) -> None:
    """Write one analyzed report as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
