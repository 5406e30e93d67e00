"""STATIC-DISCHARGE: the effect analyzer must pay for itself.

The workload is the parallel impl farm (:func:`generate_impl_farm`):
every implementation writes only fields of the group its modifies list
licenses, so the inclusion lattice subsumes every write-licence
obligation and the whole farm is statically dischargeable. Three claims:

* at least **half** the farm's obligations are discharged without the
  prover (in practice all of them);
* the discharging run beats the full proving run outright — the
  committed ``discharged_over_full_ratio`` must stay **under 0.5**;
* the differential guard (``--check-discharge``) re-proves every
  prediction and reports **zero disagreements** — the analyzer never
  trades soundness for the speedup it reports.

The committed regression keys are a ratio and a fraction, not absolute
seconds, so a loaded CI runner slows numerator and denominator together
instead of failing the gate.

Two absolute heads ride along, with no guard: ``farm300_lint_ms`` and
``farm300_discharge_ms``, the best-of-3 milliseconds of ``lint_scope``
and ``discharge_scope`` on a 300-impl × 8-field farm, each timed on a
fresh ``Scope`` (a scope keeps the static facts it derives, so a second
run over the same scope object would be warm).

Run as a script (``python benchmarks/bench_static.py``) it re-measures
and rewrites ``BENCH_static.json`` at the repo root.
"""

import json
import os
import sys
import time

if __package__ in (None, ""):  # script mode
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from benchmarks.conftest import print_row
from repro.analysis.effects import discharge_scope
from repro.analysis.engine import lint_scope
from repro.corpus.generators import generate_impl_farm
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits
from repro.vcgen.checker import check_scope

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_static.json"
)

#: Workload shape: the same farm the parallel benchmark spreads over
#: workers, sized so the full proving run is long enough (~1s) that the
#: discharge speedup is measured, not timer noise.
FARM_IMPLS = 8
FARM_FIELDS = 12

#: Shape of the farm the absolute static-path heads are timed on.
STATIC_FARM_IMPLS = 300
STATIC_FARM_FIELDS = 8


def _farm_scope():
    scope = Scope.from_source(generate_impl_farm(FARM_IMPLS, FARM_FIELDS))
    check_well_formed(scope)
    return scope


def _best_seconds(fn, repeats=2):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def measure_static(limits, repeats=2):
    """The numbers behind both the pytest guards and the committed JSON."""
    scope = _farm_scope()
    full_seconds, full_report = _best_seconds(
        lambda: check_scope(scope, limits), repeats
    )
    discharged_seconds, discharged_report = _best_seconds(
        lambda: check_scope(scope, limits, static_discharge="on"), repeats
    )
    checked_report = check_scope(scope, limits, check_discharge=True)
    summary = discharged_report.discharge_summary
    obligations = summary["obligations"]
    discharge_rate = summary["discharge_rate"]
    return {
        "impls": FARM_IMPLS,
        "fields": FARM_FIELDS,
        "obligations_total": summary["obligations_total"],
        "obligations_discharged": obligations["static-valid"]
        + obligations["static-violation"],
        "discharge_rate": round(discharge_rate, 4),
        "full_seconds": round(full_seconds, 4),
        "discharged_seconds": round(discharged_seconds, 4),
        "discharged_over_full_ratio": round(
            discharged_seconds / full_seconds, 4
        ),
        "undischarged_fraction": round(1.0 - discharge_rate, 4),
        "disagreements": checked_report.discharge_summary.get(
            "disagreements", 0
        ),
        "verdicts_identical": [
            (v.impl.name, v.index, v.status.value)
            for v in discharged_report.verdicts
        ]
        == [
            (v.impl.name, v.index, v.status.value)
            for v in full_report.verdicts
        ],
    }


def measure_static_path(repeats=3):
    """Best-of-``repeats`` ms of lint and of discharge on the 300-impl
    farm, each on a fresh, well-formed scope (parsing is not timed)."""
    source = generate_impl_farm(STATIC_FARM_IMPLS, STATIC_FARM_FIELDS)
    row = {}
    for key, run in (
        ("farm300_lint_ms", lint_scope),
        ("farm300_discharge_ms", discharge_scope),
    ):
        best = None
        for _ in range(repeats):
            scope = Scope.from_source(source)
            check_well_formed(scope)
            start = time.perf_counter()
            run(scope)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        row[key] = round(best * 1000, 1)
    return row


def measure_for_regression():
    """Entry point for ``benchmarks/check_regression.py``."""
    return measure_static(Limits(time_budget=120.0))


def test_farm_discharges_at_least_half(limits):
    row = measure_static(limits)
    print_row("STATIC-RATE", **row)
    assert row["discharge_rate"] >= 0.5


def test_discharge_beats_full_proving(limits):
    row = measure_static(limits, repeats=3)
    print_row("STATIC-SPEEDUP", **row)
    assert row["discharged_over_full_ratio"] < 0.5


def test_zero_disagreements_and_identical_verdicts(limits):
    row = measure_static(limits)
    print_row("STATIC-SOUNDNESS", **row)
    assert row["disagreements"] == 0
    assert row["verdicts_identical"]


def main():
    row = measure_static(Limits(time_budget=120.0), repeats=3)
    row.update(measure_static_path())
    payload = {
        "benchmark": "static",
        "unit": (
            "seconds and ratios vs the full proving run on an "
            f"{FARM_IMPLS}-impl farm; farm300_*_ms: milliseconds of "
            f"lint_scope / discharge_scope on a {STATIC_FARM_IMPLS}-impl "
            f"x {STATIC_FARM_FIELDS}-field farm, best of 3"
        ),
        "guard": (
            "discharge_rate >= 0.5; discharged_over_full_ratio < 0.5; "
            "disagreements == 0; verdicts identical with discharge on/off"
        ),
        "regression_keys": [
            "discharged_over_full_ratio",
            "undischarged_fraction",
        ],
        "entries": [row],
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print_row("STATIC-DISCHARGE", **row)
    print(f"wrote {os.path.normpath(BENCH_JSON)}")


if __name__ == "__main__":
    sys.exit(main())
