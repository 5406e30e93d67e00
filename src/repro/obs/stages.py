"""The canonical stage vocabulary of the checking pipeline.

One tuple, shared by every subsystem that names stage boundaries:

* the fault-injection harness (:mod:`repro.testing.faults`) keys its
  injection points on these names;
* the event journal (:mod:`repro.obs.events`) records a span with the
  same name at the same boundary, so a trace and an injected fault
  always line up;
* the exporters group per-stage aggregates by these names.

Keep the tuple in pipeline order — reports iterate it to render stage
breakdowns in execution order. This module must stay import-free within
the package tree (it sits below both ``repro.obs`` and
``repro.testing``).
"""

from __future__ import annotations

from typing import Tuple

#: Every named stage boundary of the pipeline, in pipeline order.
STAGES: Tuple[str, ...] = (
    "lex",
    "parse",
    "wellformed",
    "pivot",
    "lint",
    "vcgen",
    "prove",
)

#: Span categories (``cat`` in span records and Chrome trace events).
CAT_PIPELINE = "pipeline"
CAT_STAGE = "stage"
CAT_IMPL = "implementation"
CAT_VC = "vc"
