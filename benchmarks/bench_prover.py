"""PROVER-FARM: absolute prover time on one-implementation farms.

A 1-impl farm (:func:`generate_impl_farm`) writes every field of one
group, so its frame VC needs one quantifier instance per field and the
field count alone sets the prover's work. Almost all of a farm check is
proving (the front end and vcgen are a few ms), so these keys track the
prover's congruence closure, E-matching and case splitting directly.

Unlike the other bench heads, the committed keys are **absolute**
milliseconds (best of the runs), not ratios: a prover speedup shrinks
the denominator of every ratio key, and only an absolute key shows it.
The guard checks the search itself: each farm verifies with exactly one
instance per field. The row also records each farm's E-matching volume
(``farm<N>_matches``), so a change that keeps the search unchanged shows
the same counts.

Run as a script (``python benchmarks/bench_prover.py``) it re-measures
and rewrites ``BENCH_prover.json`` at the repo root.
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
from repro.corpus.generators import generate_impl_farm
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits
from repro.vcgen.checker import ImplStatus, check_scope

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_prover.json")

#: Field counts of the measured farms.
FIELDS = (12, 24, 48)


def _farm_scope(fields):
    scope = Scope.from_source(generate_impl_farm(1, fields))
    check_well_formed(scope)
    return scope


def measure_prover(limits, repeats=1):
    """Best-of-``repeats`` check time of each farm, plus its search."""
    row = {"impls": 1}
    for fields in FIELDS:
        scope = _farm_scope(fields)
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            report = check_scope(scope, limits)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        (verdict,) = report.verdicts
        row[f"farm{fields}_status"] = verdict.status.value
        row[f"farm{fields}_instantiations"] = verdict.stats.instantiations
        row[f"farm{fields}_matches"] = verdict.stats.matches
        row[f"farm{fields}_ms"] = round(best * 1000, 1)
    return row


def measure_for_regression():
    """Entry point for ``benchmarks/check_regression.py``."""
    return measure_prover(Limits(time_budget=120.0))


def test_farms_verify_with_one_instance_per_field(limits):
    row = measure_prover(limits)
    print_row("PROVER-FARM", **row)
    for fields in FIELDS:
        assert row[f"farm{fields}_status"] == ImplStatus.VERIFIED.value
        assert row[f"farm{fields}_instantiations"] == fields


def main():
    row = measure_prover(Limits(time_budget=120.0), repeats=3)
    payload = {
        "benchmark": "prover",
        "unit": "milliseconds of check_scope on a 1-impl farm, best of 3",
        "guard": "every farm verifies with one instance per field",
        "regression_keys": [f"farm{fields}_ms" for fields in FIELDS],
        "entries": [row],
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print_row("PROVER-FARM", **row)
    print(f"wrote {os.path.normpath(BENCH_JSON)}")


if __name__ == "__main__":
    sys.exit(main())
