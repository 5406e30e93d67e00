"""The armed tracer: :class:`Tracer` records :class:`Span` intervals.

The recording half of :mod:`repro.obs.tracer`, which keeps only the null
paths (:func:`~repro.obs.tracer.span`, :func:`~repro.obs.tracer.active`,
:func:`~repro.obs.tracer.current`, :func:`~repro.obs.tracer.metrics`)
and :func:`~repro.obs.tracer.tracing`. A plain check installs no tracer
and never loads this module; ``Tracer`` and ``Span`` stay importable
from :mod:`repro.obs` and :mod:`repro.obs.tracer`.

The span tree is implicit: each recorded :class:`Span` stores its parent
index and depth, and the exporters (:mod:`repro.obs.export`) rebuild
nesting from that — Chrome's trace viewer infers it from time
containment on the single thread lane we emit.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.stages import CAT_STAGE
from repro.record import Record, field


class Span(Record):
    """One recorded interval. Times are ``perf_counter`` seconds."""

    name: str
    category: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None  # index into Tracer.spans
    depth: int = 0
    args: Dict[str, Any] = field(default_factory=dict)
    #: ``"TypeName: message"`` when the span was closed by an exception.
    error: Optional[str] = None

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start


class _SpanHandle:
    """Context manager yielded by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_index")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._index: Optional[int] = None

    def set(self, **args: Any) -> None:
        """Attach (or update) arguments on the live span."""
        if self._index is not None:
            self._tracer.spans[self._index].args.update(args)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack
        span = Span(
            name=self._name,
            category=self._category,
            start=tracer._clock(),
            parent=stack[-1] if stack else None,
            depth=len(stack),
            args=self._args,
        )
        self._index = len(tracer.spans)
        tracer.spans.append(span)
        stack.append(self._index)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        span = tracer.spans[self._index]
        span.end = tracer._clock()
        if exc_type is not None:
            span.error = f"{exc_type.__name__}: {exc}"
        # ``with`` nesting guarantees LIFO order, but pop defensively to
        # self-heal if a handle was (incorrectly) closed out of order.
        while tracer._stack and tracer._stack.pop() != self._index:
            pass
        return False


class Tracer:
    """Records a flat list of spans plus a metrics registry."""

    def __init__(self):
        self._clock = time.perf_counter
        self.origin: float = self._clock()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.metrics = MetricsRegistry()

    def span(self, name: str, category: str = CAT_STAGE, **args: Any) -> _SpanHandle:
        return _SpanHandle(self, name, category, args)

    @property
    def open_spans(self) -> List[Span]:
        return [self.spans[i] for i in self._stack]

    def close(self) -> None:
        """Force-close any spans left open (a safety net for exporters;
        with ``with``-based instrumentation there should be none)."""
        now = self._clock()
        while self._stack:
            span = self.spans[self._stack.pop()]
            if span.end is None:
                span.end = now
                span.error = span.error or "span left open at tracer close"

    def current_index(self) -> Optional[int]:
        """Index of the innermost open span (parent for out-of-band
        recording), or None outside any span."""
        return self._stack[-1] if self._stack else None

    def record(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> int:
        """Append an already-closed span (out-of-band recording).

        Used by the parallel supervisor to stamp per-job intervals it
        measured itself (assignment → result) rather than lived through
        a ``with`` block. Returns the new span's index so child spans
        (e.g. absorbed worker spans) can attach to it.
        """
        depth = self.spans[parent].depth + 1 if parent is not None else 0
        span = Span(
            name=name,
            category=category,
            start=start,
            end=end,
            parent=parent,
            depth=depth,
            args=dict(args or {}),
            error=error,
        )
        index = len(self.spans)
        self.spans.append(span)
        return index

    def export_spans(self) -> List[dict]:
        """The recorded spans as plain dicts, ready to cross a process
        boundary (closing any still-open spans first).

        Times stay in this process's ``perf_counter`` domain — on the
        platforms the supervisor runs workers on, ``perf_counter`` is
        the system-wide monotonic clock, so spans exported by a worker
        nest correctly inside the supervisor's own timeline.
        """
        self.close()
        return [
            {
                "name": span.name,
                "category": span.category,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "args": dict(span.args),
                "error": span.error,
            }
            for span in self.spans
        ]

    def absorb(
        self,
        exported: List[dict],
        *,
        parent: Optional[int] = None,
    ) -> None:
        """Graft spans exported by another tracer under ``parent``.

        Parent indices inside ``exported`` are remapped onto this
        tracer's span list; top-level exported spans become children of
        ``parent`` (or roots when None). Depths are recomputed so the
        exporters' nesting invariants keep holding.
        """
        base_depth = (
            self.spans[parent].depth + 1 if parent is not None else 0
        )
        remap: Dict[int, int] = {}
        for old_index, data in enumerate(exported):
            old_parent = data.get("parent")
            if old_parent is not None and old_parent in remap:
                new_parent = remap[old_parent]
                depth = self.spans[new_parent].depth + 1
            else:
                new_parent = parent
                depth = base_depth
            span = Span(
                name=data["name"],
                category=data["category"],
                start=data["start"],
                end=data["end"],
                parent=new_parent,
                depth=depth,
                args=dict(data.get("args", {})),
                error=data.get("error"),
            )
            remap[old_index] = len(self.spans)
            self.spans.append(span)

    def children_of(self, index: Optional[int]) -> List[int]:
        return [
            i for i, span in enumerate(self.spans) if span.parent == index
        ]

    def find(self, name: str, category: Optional[str] = None) -> List[Span]:
        return [
            span
            for span in self.spans
            if span.name == name
            and (category is None or span.category == category)
        ]
