"""DIST-FLEET: distributed fleet checking must earn its keep.

Same impl-farm workload as ``bench_parallel`` (one scope, many
independent implementations — the shape scope monotonicity makes
parallelizable), one transport up. Two claims:

* the socket fleet's coordination machinery (bind, registration,
  pickled-scope welcome, lease traffic) is a bounded premium: with
  multiple cores a 4-worker fleet must beat the serial driver outright,
  and on any runner a 2-worker fleet stays within a small factor of
  serial (it cannot melt down);
* all committed regression keys are *ratios* against the same-process
  serial baseline, so a loaded CI runner slows numerator and
  denominator together instead of failing the gate.

Run as a script (``python benchmarks/bench_distributed.py``) it
re-measures and rewrites ``BENCH_distributed.json`` at the repo root.
"""

import json
import os
import sys
import time

if __package__ in (None, ""):  # script mode
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

import pytest

from benchmarks.conftest import print_row
from repro.corpus.generators import generate_impl_farm
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel import FleetOptions
from repro.prover.core import Limits
from repro.vcgen.checker import check_scope

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_distributed.json"
)

#: Same workload shape as bench_parallel, so the two heads compare.
FARM_IMPLS = 8
FARM_FIELDS = 12


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _farm_scope():
    scope = Scope.from_source(generate_impl_farm(FARM_IMPLS, FARM_FIELDS))
    check_well_formed(scope)
    return scope


def _best_seconds(fn, repeats=2):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _fleet(workers):
    return FleetOptions(workers=workers, registration_wait=60.0)


def measure_distributed(limits, repeats=2):
    """The numbers behind both the pytest guards and the committed JSON."""
    scope = _farm_scope()
    serial = _best_seconds(lambda: check_scope(scope, limits), repeats)
    fleet2 = _best_seconds(
        lambda: check_scope(scope, limits, fleet=_fleet(2)), repeats
    )
    fleet4 = _best_seconds(
        lambda: check_scope(scope, limits, fleet=_fleet(4)), repeats
    )
    return {
        "impls": FARM_IMPLS,
        "fields": FARM_FIELDS,
        "cores": _cores(),
        "serial_seconds": round(serial, 4),
        "fleet2_seconds": round(fleet2, 4),
        "fleet4_seconds": round(fleet4, 4),
        "fleet2_over_serial_ratio": round(fleet2 / serial, 4),
        "fleet4_over_serial_ratio": round(fleet4 / serial, 4),
    }


def measure_for_regression():
    """Entry point for ``benchmarks/check_regression.py``."""
    return measure_distributed(Limits(time_budget=120.0))


def test_fleet2_overhead_is_bounded(limits):
    """Coordination over sockets cannot melt down vs the serial driver.

    On a single core the coordinator and both workers time-slice one
    CPU, so the ratio is dominated by oversubscription noise — the bound
    there is a meltdown bound, not an overhead bound.
    """
    row = measure_distributed(limits)
    print_row("DIST-OVERHEAD", **row)
    bound = 1.5 if row["cores"] >= 2 else 2.5
    assert row["fleet2_over_serial_ratio"] < bound


def test_fleet4_beats_serial_with_cores(limits):
    """With cores to spread over, a 4-worker fleet must win outright."""
    row = measure_distributed(limits, repeats=3)
    print_row("DIST-SPEEDUP", **row)
    if row["cores"] < 2:
        assert row["fleet4_over_serial_ratio"] < 3.0
        pytest.skip("single-core runner: speedup not measurable")
    assert row["fleet4_seconds"] < row["serial_seconds"]


def main():
    row = measure_distributed(Limits(time_budget=120.0), repeats=3)
    payload = {
        "benchmark": "distributed",
        "unit": (
            "seconds and ratios vs the serial driver on an "
            f"{FARM_IMPLS}-impl farm"
        ),
        "guard": (
            "fleet2_over_serial_ratio < 1.5 (cores >= 2; < 2.5 single-core); "
            "fleet4 < serial when cores >= 2"
        ),
        "regression_keys": [
            "fleet2_over_serial_ratio",
            "fleet4_over_serial_ratio",
        ],
        "entries": [row],
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print_row("DIST-FLEET", **row)
    print(f"wrote {os.path.normpath(BENCH_JSON)}")


if __name__ == "__main__":
    sys.exit(main())
