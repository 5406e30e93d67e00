"""Exporters over a run's journal: Chrome trace, metrics JSON, text profile.

The Chrome trace format is the ``traceEvents`` JSON consumed by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: a flat list
of complete events (``"ph": "X"``) with microsecond timestamps; nesting
is inferred from time containment within one ``pid``/``tid`` lane. The
check's own spans share one lane; each ``-j`` job's span, with the
spans its worker shipped home beneath it, goes on that worker's lane,
so jobs that ran side by side do not overlap on a lane; lifecycle
markers (OL9xx incidents, retries, deaths, the run's start and end) go
on a lane of their own as zero-length events.

``--trace FILE`` and ``events export --trace FILE`` both write
:func:`write_chrome_trace` over the same records, so a run's trace and
the export of its ``--events`` journal are the same file.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import collect_metrics
from repro.obs.stages import CAT_IMPL, CAT_STAGE, CAT_VC, STAGES

TRACE_PID = 1
#: The lanes: the check's own spans, the lifecycle markers, and the
#: first worker's lane (one more per worker after it).
MAIN_TID = 1
MARKER_TID = 2
WORKER_TID = 3

#: Lifecycle records drawn as markers, besides the OL9xx incidents.
MARKERS = ("check-start", "check-end", "job-retry", "worker-died")
#: The fields a marker keeps.
_MARKER_ARGS = ("impl", "index", "worker", "code", "reason", "job")


def spans_of(records: Sequence[dict]) -> List[dict]:
    """The ``span`` records among ``records``, in the order they opened."""
    spans = [r for r in records if r.get("event") == "span"]
    spans.sort(key=lambda r: r["span"])
    return spans


def _meta(kind: str, tid: int, name: str) -> dict:
    """A metadata event naming the process or the lane ``tid``."""
    return {
        "name": kind,
        "ph": "M",
        "pid": TRACE_PID,
        "tid": tid,
        "args": {"name": name},
    }


def chrome_trace(records: Sequence[dict], run_id: Optional[str] = None) -> dict:
    """One run of a journal as a Chrome trace-event JSON object.

    ``run_id`` picks the run of a multi-run journal (default: the
    first); an empty journal or an unknown run raises
    :class:`~repro.obs.analyze.AnalysisError`. Times are rebased on the
    run's earliest span or record, so none is negative.
    """
    from repro.obs.analyze import INCIDENT_KINDS, select_run

    run, records = select_run(records, run_id)
    spans = spans_of(records)
    origin = min([r["start"] for r in spans] + [r["t_mono"] for r in records])

    def complete(name, cat, start, dur, tid, args) -> dict:
        return {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round(dur * 1e6, 3),
            "pid": TRACE_PID,
            "tid": tid,
            "args": args,
        }

    events: List[dict] = [
        _meta("process_name", MAIN_TID, f"oolong-check {run}"),
        _meta("thread_name", MAIN_TID, "check"),
        _meta("thread_name", MARKER_TID, "events"),
    ]
    workers: Dict[object, int] = {}
    lanes: Dict[int, int] = {}
    for record in spans:
        args = dict(record.get("args", {}))
        worker = args.get("worker") if record["cat"] == CAT_IMPL else None
        if worker is None:
            tid = lanes.get(record.get("parent"), MAIN_TID)
        else:
            if worker not in workers:
                workers[worker] = WORKER_TID + len(workers)
                tid = workers[worker]
                events.append(_meta("thread_name", tid, f"worker {worker}"))
            tid = workers[worker]
        lanes[record["span"]] = tid
        if "error" in record:
            args["error"] = record["error"]
        events.append(
            complete(
                record["name"],
                record["cat"],
                record["start"],
                record["dur"],
                tid,
                args,
            )
        )
    for record in records:
        kind = record["event"]
        if kind in MARKERS or kind in INCIDENT_KINDS:
            args = {key: record[key] for key in _MARKER_ARGS if key in record}
            events.append(
                complete(kind, "event", record["t_mono"], 0.0, MARKER_TID, args)
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "oolong-check", "spanCount": len(spans)},
    }


def write_chrome_trace(
    path: str, records: Sequence[dict], run_id: Optional[str] = None
) -> dict:
    """Write :func:`chrome_trace` to ``path``; return what was written."""
    payload = chrome_trace(records, run_id)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return payload


def write_metrics(path: str, metrics: dict) -> None:
    """``--metrics FILE``: the metrics as stable, indented JSON."""
    with open(path, "w") as handle:
        handle.write(json.dumps(metrics, indent=2, sort_keys=True))
        handle.write("\n")


# ----------------------------------------------------------------------
# Human text report
# ----------------------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def _stage_totals(spans: List[dict]) -> List[tuple]:
    """The inclusive total per stage name (stage spans of the same name
    never nest within each other), in pipeline order."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for span in spans:
        if span["cat"] != CAT_STAGE:
            continue
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["dur"]
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    ordered = [name for name in STAGES if name in totals]
    ordered += sorted(set(totals) - set(STAGES))
    return [(name, totals[name], counts[name]) for name in ordered]


def text_report(
    records: Sequence[dict], report: Optional[object] = None, *, top: int = 5
) -> str:
    """The ``--profile`` report of a journaled run and its report: stage
    breakdown, slowest VCs, hottest quantifiers, deadline pressure."""
    spans = spans_of(records)
    metrics = collect_metrics(records, report)
    lines: List[str] = ["== profile =="]

    totals = _stage_totals(spans)
    if totals:
        lines.append("stage breakdown (inclusive):")
        width = max(len(name) for name, _, _ in totals)
        for name, total, count in totals:
            lines.append(
                f"  {name.ljust(width)}  {_fmt_ms(total):>10}  ({count} span(s))"
            )

    slowest = sorted(
        (s for s in spans if s["cat"] == CAT_VC), key=lambda s: -s["dur"]
    )[:top]
    if slowest:
        lines.append(f"slowest VCs (top {len(slowest)}):")
        for span in slowest:
            args = span.get("args", {})
            detail = ""
            if "verdict" in args:
                detail += f" verdict={args['verdict']}"
            if "instantiations" in args:
                detail += f" instances={args['instantiations']}"
            if "blame" in args:
                detail += f" blame[{args['blame']}]"
            if args.get("replay_ok") is not None:
                detail += f" replay_ok={args['replay_ok']}"
            if "error" in span:
                detail += f" error={span['error']}"
            lines.append(f"  {span['name']}: {_fmt_ms(span['dur'])}{detail}")

    by_quantifier = metrics["labelled"].get(
        "prover.instantiations.by_quantifier", {}
    )
    hottest = sorted(by_quantifier.items(), key=lambda kv: (-kv[1], kv[0]))
    hottest = hottest[:top]
    if hottest:
        lines.append(f"hottest quantifiers (top {len(hottest)}):")
        for quantifier, count in hottest:
            lines.append(f"  {quantifier}: {count} instance(s)")

    lines.extend(_deadline_pressure_lines(spans, metrics))

    counters = metrics["counters"]
    checks = counters.get("prover.checks", 0)
    if checks:
        timer = metrics["timers"].get("prover.check_seconds")
        lines.append(
            f"prover: {checks} check(s), "
            f"{counters.get('prover.instantiations', 0)} instantiation(s), "
            f"{counters.get('prover.inclusion_lookups', 0)} inclusion lookup(s), "
            f"{counters.get('prover.egraph_merges', 0)} e-graph merge(s), "
            f"max check {_fmt_ms(timer['max_seconds']) if timer else 'n/a'}"
        )

    return "\n".join(lines)


def _deadline_pressure_lines(spans: List[dict], metrics: dict) -> List[str]:
    """How close each proof came to its time budget, when one was set.

    Pressure is ``duration / time_budget`` of each ``prove`` stage span
    carrying a ``time_budget`` argument; resource-out and timed-out
    verdict counters round out the picture.
    """
    pressures = []
    for span in spans:
        if span["cat"] != CAT_STAGE or span["name"] != "prove":
            continue
        budget = span.get("args", {}).get("time_budget")
        if budget:
            pressures.append((span["dur"] / budget, span))
    lines: List[str] = []
    if pressures:
        pressures.sort(key=lambda item: -item[0])
        worst, span = pressures[0]
        impl = span["args"].get("impl", "?")
        lines.append(
            f"deadline pressure: worst {worst * 100:.1f}% of budget "
            f"({impl}, {_fmt_ms(span['dur'])})"
        )
        hot = [(p, s) for p, s in pressures if p >= 0.8]
        for pressure, span in hot[:3]:
            if span is not pressures[0][1]:
                lines.append(
                    f"  also near budget: {span['args'].get('impl', '?')} "
                    f"at {pressure * 100:.1f}%"
                )
    starved = metrics["counters"].get("checker.status.resource_out", 0)
    timed_out = metrics["counters"].get("checker.status.timed_out", 0)
    if starved or timed_out:
        lines.append(
            f"deadline casualties: {starved} resource-out, "
            f"{timed_out} timed-out implementation(s)"
        )
    return lines


def validate_chrome_trace(payload: dict) -> Optional[str]:
    """Cheap structural validation; returns an error string or None.

    Used by tests and CI to assert exported traces are loadable:
    ``traceEvents`` must be a list of events whose complete events carry
    name/cat/ph/ts/dur/pid/tid with sane values.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return "traceEvents must be a non-empty list"
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            return f"event {index} is not an object"
        phase = event.get("ph")
        if phase not in ("X", "M"):
            return f"event {index} has unsupported phase {phase!r}"
        if phase == "M":
            continue
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            if key not in event:
                return f"event {index} is missing {key!r}"
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            return f"event {index} has invalid ts {event['ts']!r}"
        if not isinstance(event["dur"], (int, float)) or event["dur"] < 0:
            return f"event {index} has invalid dur {event['dur']!r}"
    return None
