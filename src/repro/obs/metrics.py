"""The metrics of one run, computed from its journal and its report.

Nothing counts while the check runs: every number here is already
recorded once, and :func:`collect_metrics` reads it back out —

* ``vcgen.*`` from the size arguments of the vcgen ``vc`` spans;
* ``prover.*`` from the ``ProverStats`` of each verdict the prover
  produced (an ``impl-checked`` record with no ``discharged``,
  ``preresolved`` or ``cache_hit`` flag);
* ``checker.*`` from the verdicts and those flags;
* ``discharge.*`` from the report's static discharge summary.

Naming convention: dotted lowercase paths, subsystem first
(``prover.instantiations``, ``vcgen.goal_nodes``, ``checker.status.verified``).
Labelled counters add one level of keys under a single metric name
(``prover.instantiations.by_quantifier`` → quantifier name → count).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

#: Each ``prover.*`` counter and the ``ProverStats`` field it sums.
_PROVER = (
    ("prover.facts", "facts"),
    ("prover.instantiations", "instantiations"),
    ("prover.rounds", "rounds"),
    ("prover.branches", "branches"),
    ("prover.conflicts", "conflicts"),
    ("prover.egraph_merges", "merges"),
    ("prover.matches", "matches"),
    ("prover.inclusion_lookups", "inclusion_lookups"),
    ("prover.unmatchable_quantifiers", "unmatchable_quantifiers"),
)

#: The counter a verdict settled before proving feeds instead of the
#: prover's: cached and replayed stats describe work a *previous* run
#: did, and a discharged verdict had no prover run at all.
_SETTLED = {
    "discharged": "checker.discharged",
    "preresolved": "checker.resumed",
    "cache_hit": "checker.cache_hits",
}

#: Each ``discharge.*`` counter and where the summary keeps it.
_DISCHARGE = (
    ("obligations_discharged", "obligations", "static-valid"),
    ("obligations_refuted", "obligations", "static-violation"),
    ("obligations_deferred", "obligations", "unknown"),
    ("impls_discharged", "impls", "static-valid"),
    ("impls_refuted", "impls", "static-violation"),
    ("impls_deferred", "impls", "unknown"),
)


def collect_metrics(
    records: Sequence[dict], report: Optional[object] = None
) -> dict:
    """The ``--metrics`` JSON of the run journaled in ``records``.

    ``report`` is the run's ``CheckReport``, or None when the run ended
    before one existed (its verdict and discharge metrics are then
    absent, as the spans recorded so far are not). The result holds
    ``counters``, ``labelled`` counters and ``timers`` (count, total,
    max and mean seconds), each sorted by name.
    """
    counters: Dict[str, int] = {}

    def add(name: str, amount: int = 1) -> None:
        counters[name] = counters.get(name, 0) + amount

    settled: Dict[Tuple[object, object], str] = {}
    for record in records:
        event = record.get("event")
        if event == "span":
            args = record.get("args", {})
            if record.get("cat") == "vc" and "goal_nodes" in args:
                add("vcgen.vcs")
                add("vcgen.goal_nodes", args["goal_nodes"])
                add("vcgen.background_axioms", args["background_axioms"])
                add("vcgen.obligations", args["obligations"])
        elif event == "impl-checked":
            for flag in _SETTLED:
                if record.get(flag):
                    settled[(record.get("impl"), record.get("index"))] = flag
    quantifiers: Dict[str, int] = {}
    seconds = []
    for verdict in report.verdicts if report is not None else ():
        source = settled.get((verdict.impl.name, verdict.index))
        if source is not None:
            add(_SETTLED[source])
        else:
            stats = verdict.stats
            add("prover.checks")
            for name, attribute in _PROVER:
                add(name, getattr(stats, attribute))
            add("prover.sat_markers", len(stats.sat_markers))
            seconds.append(stats.elapsed)
            for quantifier, count in stats.per_quantifier.items():
                quantifiers[quantifier] = quantifiers.get(quantifier, 0) + count
        add("checker.impls")
        add(f"checker.status.{verdict.status.name.lower()}")
    summary = report.discharge_summary if report is not None else None
    if summary is not None:
        for name, group, outcome in _DISCHARGE:
            add(f"discharge.{name}", summary[group][outcome])
    timers = {}
    if seconds:
        total = sum(seconds)
        timers["prover.check_seconds"] = {
            "count": len(seconds),
            "total_seconds": round(total, 6),
            "max_seconds": round(max(seconds), 6),
            "mean_seconds": round(total / len(seconds), 6),
        }
    labelled = {}
    if quantifiers:
        labelled["prover.instantiations.by_quantifier"] = dict(
            sorted(quantifiers.items())
        )
    return {
        "counters": dict(sorted(counters.items())),
        "labelled": labelled,
        "timers": timers,
    }
