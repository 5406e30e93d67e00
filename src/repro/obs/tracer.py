"""A span-based tracer for the checking pipeline.

Design constraints, in order:

1. **The clean path stays fast.** With no tracer installed,
   :func:`span` is one module-global ``None`` check returning a shared
   no-op context manager — the same discipline as
   :func:`repro.testing.faults.fault_point`, and bounded the same way
   (``benchmarks/bench_observability.py`` keeps total hook cost on a
   corpus run under 1%).
2. **Spans always close.** Instrumentation sites use ``with`` blocks,
   so an injected crash (or a real one) unwinds through ``__exit__``,
   which stamps the end time and records the exception — traces of
   failing runs are complete, not truncated.
3. **Stage names are shared.** Stage-boundary spans use the names from
   :data:`repro.obs.stages.STAGES`, the same vocabulary the
   fault-injection harness keys on, so a trace and an injected fault
   line up by construction.

This module is the null path. The armed tracer (:class:`Tracer`, the
:class:`Span` records it keeps) lives in :mod:`repro.obs.recorder` and
loads on first access to those names here (PEP 562), so a plain check,
which installs no tracer, never compiles it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.obs.stages import CAT_STAGE

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.recorder import Tracer


class _NullSpanHandle:
    """The shared no-op handle returned when no tracer is installed."""

    __slots__ = ()

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


#: The installed tracer, or None. Written only by :func:`tracing`; the
#: clean path reads it once per instrumentation site.
_ACTIVE: Optional[Tracer] = None


def span(name: str, category: str = CAT_STAGE, **args: Any):
    """Open a span on the installed tracer — or a shared no-op.

    The pipeline calls this at every boundary it wants attributed; with
    no tracer installed the cost is one global read plus the (empty)
    kwargs dict. Expensive span arguments must be gated on
    :func:`active` at the call site.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **args)


def active() -> bool:
    """True when a tracer is installed (gate for costly span args)."""
    return _ACTIVE is not None


def current() -> Optional[Tracer]:
    return _ACTIVE


def metrics() -> Optional[MetricsRegistry]:
    """The installed tracer's registry, or None on the clean path."""
    tracer = _ACTIVE
    return tracer.metrics if tracer is not None else None


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the ``with`` block.

    Re-entrant: a nested installation shadows (and then restores) the
    outer one, so library code that accepts an explicit tracer composes
    with an ambient one.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


#: The armed names, each resolved from :mod:`repro.obs.recorder` on
#: first access.
_ARMED = frozenset(("Span", "Tracer"))


def __getattr__(name):
    if name not in _ARMED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.obs import recorder

    return getattr(recorder, name)
