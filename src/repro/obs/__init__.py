"""``repro.obs`` — zero-dependency telemetry for the checking pipeline.

One recorder, the event journal (:mod:`repro.obs.events`), loads with
the package. It records what happened — job assignments, worker deaths,
retries, quarantines, cache traffic, ledger commits — and, through
:func:`span`, where the time went: one ``span`` record per stage
boundary named by :data:`repro.obs.stages.STAGES` (the vocabulary the
fault-injection harness keys on) and per implementation and VC. With no
journal installed, :func:`emit` and :func:`span` each cost one global
read.

Everything else is computed from the records and loads on first use
(PEP 562), so a plain check imports none of it:

* :mod:`repro.obs.export` — the Chrome trace-event JSON (open in
  Perfetto or ``chrome://tracing``) and the ``--profile`` text report;
* :mod:`repro.obs.metrics` — the ``--metrics`` counters and timers,
  read from span arguments, ``impl-checked`` records and the report;
* :mod:`repro.obs.progress` — the ``--progress`` renderer, a journal
  listener;
* :mod:`repro.obs.analyze` — the ``events report`` analytics over a
  journal;
* :mod:`repro.obs.schema` — the in-tree JSON-schema validators;
* :mod:`repro.obs.explain` — ``--explain`` reports (it pulls in the
  proof-replay kernel and countermodels).

Typical use::

    from repro import obs

    journal = obs.EventJournal()
    report = check_program(source, events=journal)
    obs.write_chrome_trace("out.json", journal.records)
    print(obs.text_report(journal.records, report))
"""

import importlib

from repro.obs.events import (
    EVENT_KINDS,
    EventJournal,
    active,
    emit,
    journal,
    journaling,
    read_journal,
    span,
)
from repro.obs.stages import (
    CAT_IMPL,
    CAT_PIPELINE,
    CAT_STAGE,
    CAT_VC,
    STAGES,
)

#: Each public name of an optional layer and the submodule that defines
#: it. Submodules load on first access (PEP 562).
_EXPORTS = {
    "analyze_journal": "analyze",
    "render_report_text": "analyze",
    "run_ids": "analyze",
    "Explanation": "explain",
    "InclusionCheck": "explain",
    "attach_to_trace": "explain",
    "explain_result": "explain",
    "inclusion_chain": "explain",
    "chrome_trace": "export",
    "spans_of": "export",
    "text_report": "export",
    "validate_chrome_trace": "export",
    "write_chrome_trace": "export",
    "write_metrics": "export",
    "collect_metrics": "metrics",
    "ProgressRenderer": "progress",
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
        "STAGES",
        "active",
        "emit",
        "journal",
        "journaling",
        "read_journal",
        "span",
        *_EXPORTS,
    ]
)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
