"""Exporters: Chrome trace-event JSON, metrics JSON, and a text profile.

The Chrome trace format is the ``traceEvents`` JSON consumed by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: a flat list
of complete events (``"ph": "X"``) with microsecond timestamps; nesting
is inferred from time containment within one ``pid``/``tid`` lane. We
emit everything on a single lane, which matches the pipeline's
single-threaded execution, plus one metadata event naming the process.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.stages import CAT_STAGE, CAT_VC, STAGES
from repro.obs.recorder import Span, Tracer

#: pid/tid used for the single lane every span is emitted on.
TRACE_PID = 1
TRACE_TID = 1


def chrome_trace(tracer: Tracer, *, process_name: str = "oolong-check") -> dict:
    """Render the tracer's spans as a Chrome trace-event JSON object."""
    tracer.close()  # stamp any span a crash left open (defensive)
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": {"name": process_name},
        }
    ]
    for span in tracer.spans:
        args = dict(span.args)
        if span.error is not None:
            args["error"] = span.error
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round((span.start - tracer.origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": TRACE_PID,
                "tid": TRACE_TID,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": process_name, "spanCount": len(tracer.spans)},
    }


def write_chrome_trace(path: str, tracer: Tracer, **kwargs) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(tracer, **kwargs), handle, indent=1)
        handle.write("\n")


def metrics_json(registry: MetricsRegistry) -> str:
    """The registry as stable, indented JSON text."""
    return json.dumps(registry.to_dict(), indent=2, sort_keys=True)


def write_metrics(path: str, registry: MetricsRegistry) -> None:
    with open(path, "w") as handle:
        handle.write(metrics_json(registry))
        handle.write("\n")


def write_metrics_prometheus(path: str, registry: MetricsRegistry) -> None:
    """``--metrics FILE`` under ``--metrics-format prom``."""
    with open(path, "w") as handle:
        handle.write(registry.to_prometheus())


# ----------------------------------------------------------------------
# Human text report
# ----------------------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def _stage_totals(tracer: Tracer) -> List[tuple]:
    """Self-exclusive per-stage wall time would need subtraction; the
    inclusive total per stage name is what the breakdown reports (stage
    spans of the same name never nest within each other)."""
    totals = {}
    counts = {}
    for span in tracer.spans:
        if span.category != CAT_STAGE or not span.closed:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        counts[span.name] = counts.get(span.name, 0) + 1
    ordered = [name for name in STAGES if name in totals]
    ordered += sorted(set(totals) - set(STAGES))
    return [(name, totals[name], counts[name]) for name in ordered]


def _slowest_vcs(tracer: Tracer, top: int) -> List[Span]:
    vcs = [s for s in tracer.spans if s.category == CAT_VC and s.closed]
    vcs.sort(key=lambda s: -s.duration)
    return vcs[:top]


def text_report(tracer: Tracer, *, top: int = 5) -> str:
    """The ``--profile`` report: stage breakdown, slowest VCs, hottest
    quantifiers, deadline pressure."""
    tracer.close()
    metrics = tracer.metrics
    lines: List[str] = ["== profile =="]

    totals = _stage_totals(tracer)
    if totals:
        lines.append("stage breakdown (inclusive):")
        width = max(len(name) for name, _, _ in totals)
        for name, total, count in totals:
            lines.append(
                f"  {name.ljust(width)}  {_fmt_ms(total):>10}  ({count} span(s))"
            )

    slowest = _slowest_vcs(tracer, top)
    if slowest:
        lines.append(f"slowest VCs (top {len(slowest)}):")
        for span in slowest:
            detail = ""
            if "verdict" in span.args:
                detail += f" verdict={span.args['verdict']}"
            if "instantiations" in span.args:
                detail += f" instances={span.args['instantiations']}"
            if "blame" in span.args:
                detail += f" blame[{span.args['blame']}]"
            if span.args.get("replay_ok") is not None:
                detail += f" replay_ok={span.args['replay_ok']}"
            if span.error is not None:
                detail += f" error={span.error}"
            lines.append(f"  {span.name}: {_fmt_ms(span.duration)}{detail}")

    hottest = metrics.top("prover.instantiations.by_quantifier", top)
    if hottest:
        lines.append(f"hottest quantifiers (top {len(hottest)}):")
        for quantifier, count in hottest:
            lines.append(f"  {quantifier}: {count} instance(s)")

    lines.extend(_deadline_pressure_lines(tracer))

    checks = metrics.counters.get("prover.checks", 0)
    if checks:
        timer = metrics.timers.get("prover.check_seconds")
        lines.append(
            f"prover: {checks} check(s), "
            f"{metrics.counters.get('prover.instantiations', 0)} instantiation(s), "
            f"{metrics.counters.get('prover.inclusion_lookups', 0)} inclusion lookup(s), "
            f"{metrics.counters.get('prover.egraph_merges', 0)} e-graph merge(s), "
            f"max check {_fmt_ms(timer.max) if timer else 'n/a'}"
        )

    return "\n".join(lines)


def _deadline_pressure_lines(tracer: Tracer) -> List[str]:
    """How close each proof came to its time budget, when one was set.

    Pressure is ``duration / time_budget`` of each ``prove`` stage span
    carrying a ``time_budget`` argument; resource-out and timed-out
    verdict counters round out the picture.
    """
    pressures = []
    for span in tracer.spans:
        if span.category != CAT_STAGE or span.name != "prove" or not span.closed:
            continue
        budget = span.args.get("time_budget")
        if budget:
            pressures.append((span.duration / budget, span))
    lines: List[str] = []
    if pressures:
        pressures.sort(key=lambda item: -item[0])
        worst, span = pressures[0]
        impl = span.args.get("impl", "?")
        lines.append(
            f"deadline pressure: worst {worst * 100:.1f}% of budget "
            f"({impl}, {_fmt_ms(span.duration)})"
        )
        hot = [(p, s) for p, s in pressures if p >= 0.8]
        for pressure, span in hot[:3]:
            if span is not pressures[0][1]:
                lines.append(
                    f"  also near budget: {span.args.get('impl', '?')} "
                    f"at {pressure * 100:.1f}%"
                )
    counters = tracer.metrics.counters
    starved = counters.get("checker.status.resource_out", 0)
    timed_out = counters.get("checker.status.timed_out", 0)
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
