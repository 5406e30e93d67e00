"""A live progress renderer driven off the event journal.

``--progress`` attaches a :class:`ProgressRenderer` as a listener on the
run's :class:`~repro.obs.events.EventJournal` and repaints one status
line as lifecycle events arrive::

    checked 37/96 impls | 12 cache hits | 1 quarantined | eta 14s

On a TTY the line is repainted in place (carriage return, no scroll);
when stderr is redirected it degrades to one plain line every few
seconds so logs stay readable.  Rendering is rate-limited and the
listener does nothing but integer bookkeeping otherwise, so it is safe
to leave attached on large runs.

Jobs are deduplicated by ``(impl, index)``: the checker announces each
verdict once, but the renderer (like anyone else consuming journals)
counts each implementation once regardless.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, Set, Tuple, TextIO


class ProgressRenderer:
    """Event-journal listener that paints a one-line live status."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        *,
        min_interval: float = 0.1,
        line_interval: float = 2.0,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.line_interval = line_interval
        try:
            self.isatty = bool(self.stream.isatty())
        except Exception:
            self.isatty = False
        self.total: Optional[int] = None
        self.done: Set[Tuple[str, int]] = set()
        self.cache_hits = 0
        self.quarantined = 0
        self.renders = 0
        self._started: Optional[float] = None
        self._last_render = 0.0
        self._last_width = 0
        self._finished = False

    # ------------------------------------------------------------------
    # journal listener

    def __call__(self, record: Dict[str, object]) -> None:
        event = record.get("event")
        if self._started is None:
            self._started = float(record.get("t_mono", time.monotonic()))
        if event == "check-start":
            impls = record.get("impls")
            if isinstance(impls, int):
                self.total = impls
        elif event == "impl-checked":
            key = (str(record.get("impl")), int(record.get("index", -1)))
            self.done.add(key)
            if record.get("cache_hit"):
                self.cache_hits += 1
        elif event == "job-quarantined":
            self.quarantined += 1
        elif event == "check-end":
            self.finish(float(record.get("t_mono", time.monotonic())))
            return
        self._maybe_render(float(record.get("t_mono", time.monotonic())))

    # ------------------------------------------------------------------
    # rendering

    def status_line(self, now: Optional[float] = None) -> str:
        done = len(self.done)
        total = f"/{self.total}" if self.total is not None else ""
        parts = [f"checked {done}{total} impls"]
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cache hits")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        eta = self._eta(now)
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        return " | ".join(parts)

    def _eta(self, now: Optional[float]) -> Optional[float]:
        done = len(self.done)
        if not done or self.total is None or self._started is None:
            return None
        remaining = self.total - done
        if remaining <= 0:
            return None
        elapsed = (now if now is not None else time.monotonic()) - self._started
        if elapsed <= 0:
            return None
        return remaining * (elapsed / done)

    def _maybe_render(self, now: float) -> None:
        if self._finished:
            return
        interval = self.min_interval if self.isatty else self.line_interval
        if now - self._last_render < interval:
            return
        self._render(now)

    def _render(self, now: float) -> None:
        line = self.status_line(now)
        try:
            if self.isatty:
                pad = " " * max(0, self._last_width - len(line))
                self.stream.write("\r" + line + pad)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except Exception:
            return  # a closed stderr must never fail the check
        self._last_width = len(line)
        self._last_render = now
        self.renders += 1

    def finish(self, now: Optional[float] = None) -> None:
        """Paint the final state and terminate the in-place line."""
        if self._finished:
            return
        self._finished = True
        moment = now if now is not None else time.monotonic()
        line = self.status_line(moment)
        try:
            if self.isatty:
                pad = " " * max(0, self._last_width - len(line))
                self.stream.write("\r" + line + pad + "\n")
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except Exception:
            return
        self.renders += 1
