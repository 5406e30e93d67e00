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

Three more absolute keys, which no guard reads, time the work around the
search: ``ubp_prepare_ms`` is asserting the universal background UBP
and compiling its matchers once (what a process pays once for every
scope's background to resume from), and ``farm<N>_vcgen_ms`` /
``farm<N>_subst_terms`` are the VC generation time of a 1 × N farm and
the number of calls into the term substitution it makes (each of the N
writes substitutes a store term into the rest of the body's VC).

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
from repro.prover.core import Background, Limits
from repro.vcgen.background import universal_background
from repro.vcgen.checker import ImplStatus, check_scope
from repro.vcgen.vc import vc_for_impl

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_prover.json")

#: Field counts of the measured farms.
FIELDS = (12, 24, 48)

#: Field counts of the farms whose VC generation is measured.
VCGEN_FIELDS = (24, 48)


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


def _count_subst_term_calls(fn):
    """Run ``fn`` and count the calls into term substitution
    (``repro.logic.subst``'s ``subst_term`` and its helpers)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (
            event == "call"
            and "subst_term" in code.co_name
            and code.co_filename.endswith(os.path.join("logic", "subst.py"))
        ):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def measure_background_and_vcgen(repeats=5):
    """Best-of-``repeats`` UBP prepare time, and each
    :data:`VCGEN_FIELDS` farm's VC generation time (on a fresh
    :class:`Scope` each time) and substitution call count."""
    row = {}
    best = None
    for _ in range(repeats):
        background = Background(universal_background())
        start = time.perf_counter()
        assert background.prepare(Limits())
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    row["ubp_prepare_ms"] = round(best * 1000, 2)
    for fields in VCGEN_FIELDS:
        best = None
        for _ in range(repeats):
            scope = _farm_scope(fields)
            (impl,) = scope.impls["job0"]
            start = time.perf_counter()
            vc_for_impl(scope, impl)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        row[f"farm{fields}_vcgen_ms"] = round(best * 1000, 2)
        scope = _farm_scope(fields)
        (impl,) = scope.impls["job0"]
        row[f"farm{fields}_subst_terms"] = _count_subst_term_calls(
            lambda: vc_for_impl(scope, impl)
        )
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
    row.update(measure_background_and_vcgen())
    payload = {
        "benchmark": "prover",
        "unit": (
            "milliseconds of check_scope on a 1-impl farm, best of 3; "
            "milliseconds to prepare UBP and to generate a farm's VC, "
            "best of 5; calls into term substitution per VC"
        ),
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
