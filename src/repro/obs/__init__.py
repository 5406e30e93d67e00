"""``repro.obs`` — zero-dependency telemetry for the checking pipeline.

The null paths load with the package; everything else loads on first
use:

* :mod:`repro.obs.tracer` — a span tracer covering every stage boundary
  named by :data:`repro.obs.stages.STAGES` (the same vocabulary the
  fault-injection harness keys on) plus per-implementation and per-VC
  child spans. The default is a no-op null path: with no tracer
  installed, :func:`span` costs one global read. The recording
  ``Tracer`` and its ``Span`` records (:mod:`repro.obs.recorder`)
  load on first use.
* :mod:`repro.obs.metrics` — a registry of counters/labelled
  counters/timers fed from ``ProverStats`` and vcgen sizes.
* :mod:`repro.obs.events` — a structured JSONL event journal of a
  check's lifecycle (job assignments, worker deaths, retries,
  quarantines, cache traffic, ledger commits), with the same one-read
  null path as the tracer.

Loaded on demand (PEP 562), so a plain check imports none of them:

* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto
  or ``chrome://tracing``), machine-readable metrics JSON (or the
  Prometheus text format), and the human ``--profile`` text report;
* :mod:`repro.obs.progress` — the ``--progress`` renderer, driven off
  the event stream;
* :mod:`repro.obs.analyze` — the ``events report`` / ``events export``
  analytics over a journal;
* :mod:`repro.obs.schema` — the in-tree JSON-schema validators;
* :mod:`repro.obs.explain` — ``--explain`` reports (it pulls in the
  proof-replay kernel and countermodels).

Typical use::

    from repro import obs

    tracer = obs.Tracer()
    with obs.tracing(tracer):
        report = check_scope(scope, limits)
    obs.write_chrome_trace("out.json", tracer)
    print(obs.text_report(tracer))
"""

import importlib

from repro.obs.events import (
    EVENT_KINDS,
    EventJournal,
    emit,
    journal,
    journaling,
    read_journal,
)
from repro.obs.metrics import MetricsRegistry, TimerStat, prometheus_name
from repro.obs.stages import (
    CAT_IMPL,
    CAT_PIPELINE,
    CAT_STAGE,
    CAT_VC,
    STAGES,
)

# Bound after ``repro.obs.metrics`` has loaded, so ``repro.obs.metrics``
# is the tracer's ``metrics`` function, not the submodule.
from repro.obs.tracer import (
    active,
    current,
    metrics,
    span,
    tracing,
)

#: Each public name of an optional layer and the submodule that defines
#: it. Submodules load on first access (PEP 562).
_EXPORTS = {
    "analyze_journal": "analyze",
    "journal_chrome_trace": "analyze",
    "render_report_text": "analyze",
    "run_ids": "analyze",
    "write_report": "analyze",
    "Explanation": "explain",
    "InclusionCheck": "explain",
    "attach_to_trace": "explain",
    "explain_result": "explain",
    "inclusion_chain": "explain",
    "chrome_trace": "export",
    "metrics_json": "export",
    "text_report": "export",
    "validate_chrome_trace": "export",
    "write_chrome_trace": "export",
    "write_metrics": "export",
    "write_metrics_prometheus": "export",
    "ProgressRenderer": "progress",
    "Span": "recorder",
    "Tracer": "recorder",
    "validate_event": "schema",
    "validate_event_journal": "schema",
    "validate_events_report": "schema",
    "validate_explanation_report": "schema",
}

__all__ = sorted(
    [
        "CAT_IMPL",
        "CAT_PIPELINE",
        "CAT_STAGE",
        "CAT_VC",
        "EVENT_KINDS",
        "EventJournal",
        "MetricsRegistry",
        "STAGES",
        "TimerStat",
        "active",
        "current",
        "emit",
        "journal",
        "journaling",
        "metrics",
        "prometheus_name",
        "read_journal",
        "span",
        "tracing",
        *_EXPORTS,
    ]
)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
