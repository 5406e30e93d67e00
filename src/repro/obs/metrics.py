"""A zero-dependency metrics registry: counters, labelled counters, timers.

The registry is deliberately dumb — plain dicts of ints and floats — so
that feeding it from the hot pipeline costs a couple of dict operations
and exporting it is just :meth:`MetricsRegistry.to_dict`. It is owned by
a :class:`repro.obs.tracer.Tracer`; with no tracer active nothing in the
pipeline ever touches a registry.

Naming convention: dotted lowercase paths, subsystem first
(``prover.instantiations``, ``vcgen.goal_nodes``, ``checker.status.verified``).
Labelled counters add one level of keys under a single metric name
(``prover.instantiations.by_quantifier`` → quantifier name → count).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.record import Record, field

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str, prefix: str = "oolong") -> str:
    """``prover.check_seconds`` → ``oolong_prover_check_seconds``."""
    flat = _PROM_BAD.sub("_", f"{prefix}_{name}" if prefix else name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def _prom_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class TimerStat(Record):
    """Aggregate of observed durations for one timer metric."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": round(self.total, 6),
            "max_seconds": round(self.max, 6),
            "mean_seconds": round(self.total / self.count, 6) if self.count else 0.0,
        }


class MetricsRegistry(Record):
    """Counters, labelled counters, and timers for one observed run."""

    counters: Dict[str, int] = field(default_factory=dict)
    labelled: Dict[str, Dict[str, int]] = field(default_factory=dict)
    timers: Dict[str, TimerStat] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def inc_labelled(self, name: str, label: str, amount: int = 1) -> None:
        bucket = self.labelled.setdefault(name, {})
        bucket[label] = bucket.get(label, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = TimerStat()
        timer.observe(seconds)

    def record_prover_stats(self, stats) -> None:
        """Fold one implementation's ``ProverStats`` into the registry.

        Duck-typed on purpose: the registry must not import the prover
        (the prover is instrumented *by* this package, not a dependency
        of it).
        """
        self.inc("prover.checks")
        self.inc("prover.facts", stats.facts)
        self.inc("prover.instantiations", stats.instantiations)
        self.inc("prover.rounds", stats.rounds)
        self.inc("prover.branches", stats.branches)
        self.inc("prover.conflicts", stats.conflicts)
        self.inc("prover.egraph_merges", stats.merges)
        self.inc("prover.matches", stats.matches)
        self.inc("prover.inclusion_lookups", stats.inclusion_lookups)
        self.inc("prover.unmatchable_quantifiers", stats.unmatchable_quantifiers)
        self.inc("prover.sat_markers", len(stats.sat_markers))
        self.observe("prover.check_seconds", stats.elapsed)
        for quantifier, count in stats.per_quantifier.items():
            self.inc_labelled(
                "prover.instantiations.by_quantifier", quantifier, count
            )

    def merge_dict(self, exported: dict) -> None:
        """Fold another registry's :meth:`to_dict` rendering into this one.

        Used by the parallel supervisor: workers run the instrumented
        pipeline under their own registry and ship ``to_dict()`` home,
        where counters add up, labels add up per key, and timers combine
        count/total/max (means are recomputed on export). Rounding in
        ``to_dict`` loses sub-microsecond precision; that is fine for
        aggregate timers.
        """
        for name, value in exported.get("counters", {}).items():
            self.inc(name, value)
        for name, bucket in exported.get("labelled", {}).items():
            for label, value in bucket.items():
                self.inc_labelled(name, label, value)
        for name, data in exported.get("timers", {}).items():
            timer = self.timers.get(name)
            if timer is None:
                timer = self.timers[name] = TimerStat()
            timer.count += data.get("count", 0)
            timer.total += data.get("total_seconds", 0.0)
            timer.max = max(timer.max, data.get("max_seconds", 0.0))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def top(self, name: str, n: int = 5) -> List[Tuple[str, int]]:
        """The ``n`` hottest labels of a labelled counter, descending."""
        bucket = self.labelled.get(name, {})
        ranked = sorted(bucket.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def to_dict(self) -> dict:
        """Stable machine-readable rendering (used by ``--metrics``)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "labelled": {
                name: dict(sorted(bucket.items()))
                for name, bucket in sorted(self.labelled.items())
            },
            "timers": {
                name: timer.to_dict()
                for name, timer in sorted(self.timers.items())
            },
        }

    def to_prometheus(self, prefix: str = "oolong") -> str:
        """Render the registry in the Prometheus text exposition format.

        Plain counters become ``counter`` samples; a labelled counter
        ``foo.by_bar`` becomes one ``counter`` family with a ``bar``
        label (falling back to a generic ``label`` key when the name
        does not follow the ``.by_<key>`` convention); a timer ``foo``
        becomes ``foo_count`` / ``foo_seconds_total`` counters plus a
        ``foo_seconds_max`` gauge. Families are emitted in sorted order
        so the output is stable for diffing and scraping tests.
        """
        lines: List[str] = []
        for name, value in sorted(self.counters.items()):
            metric = prometheus_name(name, prefix)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, bucket in sorted(self.labelled.items()):
            base, sep, key = name.rpartition(".by_")
            if sep:
                metric = prometheus_name(base, prefix)
                label_key = _PROM_BAD.sub("_", key)
            else:
                metric = prometheus_name(name, prefix)
                label_key = "label"
            lines.append(f"# TYPE {metric} counter")
            for label, value in sorted(bucket.items()):
                escaped = _prom_label_value(label)
                lines.append(f'{metric}{{{label_key}="{escaped}"}} {value}')
        for name, timer in sorted(self.timers.items()):
            base = prometheus_name(name, prefix)
            if base.endswith("_seconds"):
                base = base[: -len("_seconds")]
            lines.append(f"# TYPE {base}_count counter")
            lines.append(f"{base}_count {timer.count}")
            lines.append(f"# TYPE {base}_seconds_total counter")
            lines.append(f"{base}_seconds_total {round(timer.total, 6)}")
            lines.append(f"# TYPE {base}_seconds_max gauge")
            lines.append(f"{base}_seconds_max {round(timer.max, 6)}")
        return "\n".join(lines) + ("\n" if lines else "")
