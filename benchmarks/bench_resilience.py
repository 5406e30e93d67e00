"""RESILIENCE-OVERHEAD: fault-injection hooks must be free on the clean path.

Every stage boundary of the pipeline (lex, parse, wellformed, pivot,
lint, vcgen, prove) now crosses a ``fault_point`` so the harness in
``repro.testing.faults`` can raise, delay, or corrupt there. When no
injector is active, a crossing is one module-global ``None`` check. The
claim measured here: the total hook cost on an ordinary ``check_scope``
run — crossings x per-crossing cost — is under 1% of the run's
wall-clock.

Run as a script (``python benchmarks/bench_resilience.py``) it
re-measures the run ledger's overhead and rewrites
``BENCH_resilience.json`` at the repo root.
"""

import json
import os
import shutil
import sys
import tempfile
import time

if __package__ in (None, ""):  # script mode
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from benchmarks.conftest import print_row
from repro.corpus.generators import generate_impl_farm
from repro.corpus.programs import PAPER_PROGRAMS
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel.ledger import RunLedger
from repro.prover.core import Limits
from repro.testing.faults import FaultPlan, fault_point, inject
from repro.vcgen.checker import check_scope

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_resilience.json"
)


def _median_seconds(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def _corpus_scopes():
    scopes = []
    for name, source in sorted(PAPER_PROGRAMS.items()):
        scope = Scope.from_source(source)
        check_well_formed(scope)
        scopes.append((name, scope))
    return scopes


#: The farm corpus used to price the run ledger: the shape the WAL was
#: built for (many small independent implementations, one commit each).
FARM_IMPLS = 24
FARM_FIELDS = 6
#: Unique verdicts committed when amortizing the per-commit cost: the
#: ledger dedupes repeats (a re-commit never reaches the write path),
#: so the batch must be this many *distinct* implementations.
COMMIT_BATCH = 200

_LEDGER_FIXTURES = {}


def _ledger_fixtures():
    """Memoized scopes/verdicts for :func:`measure_ledger_overhead`.

    Proving the commit-batch farm once is the expensive part; the
    regression harness calls ``measure_for_regression`` several times
    per invocation and only the timed sections below must re-run.
    """
    if not _LEDGER_FIXTURES:
        farm = Scope.from_source(generate_impl_farm(FARM_IMPLS, FARM_FIELDS))
        check_well_formed(farm)
        batch = Scope.from_source(generate_impl_farm(COMMIT_BATCH, 2))
        check_well_formed(batch)
        limits = Limits(time_budget=120.0)
        verdicts = check_scope(batch, limits).verdicts
        _LEDGER_FIXTURES.update(
            farm=farm, batch=batch, limits=limits, verdicts=verdicts
        )
    return _LEDGER_FIXTURES


def measure_ledger_overhead():
    """Amortized WAL commit cost charged against the farm wall-clock.

    Same methodology as the hook-cost row below: the unit cost (one
    fsync'd ``RunLedger.commit``) is amortized over a large batch of
    unique verdicts, then charged once per farm implementation against
    the plain ``check_scope`` wall-clock — a single end-to-end ledgered
    run cannot separate ~5ms of WAL traffic from scheduler noise, the
    amortized product can.
    """
    fixtures = _ledger_fixtures()
    farm, limits = fixtures["farm"], fixtures["limits"]

    check_seconds = _median_seconds(
        lambda: check_scope(farm, limits), repeats=3
    )

    run_dir = tempfile.mkdtemp(prefix="bench-ledger-")
    try:
        ledger = RunLedger(run_dir, fixtures["batch"], limits)
        start = time.perf_counter()
        for verdict in fixtures["verdicts"]:
            ledger.commit(verdict)
        per_commit = (time.perf_counter() - start) / len(
            fixtures["verdicts"]
        )
        ledger.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ledger_seconds = FARM_IMPLS * per_commit
    return {
        "farm_impls": FARM_IMPLS,
        "commit_batch": len(fixtures["verdicts"]),
        "check_seconds": round(check_seconds, 4),
        "ledger_ms_per_commit": round(per_commit * 1e3, 3),
        "ledger_seconds": round(ledger_seconds, 4),
        "ledger_overhead_percent": round(
            100 * ledger_seconds / check_seconds, 3
        ),
    }


def measure_for_regression():
    """Entry point for ``benchmarks/check_regression.py``."""
    return measure_ledger_overhead()


def test_ledger_overhead_on_farm_corpus():
    """Crash-safety must be affordable: committing every verdict to the
    fsync'd run ledger costs under 2% of the farm corpus wall-clock."""
    row = measure_ledger_overhead()
    print_row("RESILIENCE-LEDGER", **row)
    assert row["ledger_overhead_percent"] < 2.0


def test_inactive_fault_point_cost(limits):
    """Crossings per corpus run x inactive per-crossing cost < 1%."""
    scopes = _corpus_scopes()

    def run_checks():
        for _, scope in scopes:
            check_scope(scope, limits)

    # count how many times the pipeline actually crosses a hook: an
    # injector with an empty plan tallies hits without ever firing
    with inject(FaultPlan()) as injector:
        run_checks()
    crossings = sum(injector.counts.values())
    assert crossings > 0

    check_seconds = _median_seconds(run_checks, repeats=3)

    # per-crossing cost of the inactive fast path, amortized over a
    # large batch so the timer resolution doesn't dominate
    batch = 100_000
    start = time.perf_counter()
    for _ in range(batch):
        fault_point("prove", None)
    per_crossing = (time.perf_counter() - start) / batch

    hook_seconds = crossings * per_crossing
    ratio = hook_seconds / check_seconds
    print_row(
        "RESILIENCE-OVERHEAD",
        programs=len(scopes),
        crossings=crossings,
        per_crossing_ns=round(per_crossing * 1e9, 1),
        check_seconds=round(check_seconds, 4),
        hook_seconds=round(hook_seconds, 6),
        overhead_percent=round(100 * ratio, 4),
    )
    assert ratio < 0.01


def test_empty_injector_is_cheap(limits):
    """Even with an (empty-plan) injector armed, the corpus check stays
    within noise of the inactive baseline — the bookkeeping is a dict
    increment per crossing, nothing more."""
    scopes = _corpus_scopes()

    def run_checks():
        for _, scope in scopes:
            check_scope(scope, limits)

    def run_checks_armed():
        with inject(FaultPlan()):
            run_checks()

    baseline = _median_seconds(run_checks, repeats=3)
    armed = _median_seconds(run_checks_armed, repeats=3)
    print_row(
        "RESILIENCE-ARMED",
        baseline_seconds=round(baseline, 4),
        armed_seconds=round(armed, 4),
        slowdown_percent=round(100 * (armed / baseline - 1), 2),
    )
    # generous bound: the point is "no systematic blowup", not a race
    # against scheduler noise
    assert armed < baseline * 1.25


def main():
    row = measure_ledger_overhead()
    payload = {
        "benchmark": "resilience",
        "unit": "ledger_overhead_percent of farm-corpus check_scope wall-clock",
        "guard": "ledger_overhead_percent < 2.0",
        "regression_keys": ["ledger_overhead_percent", "ledger_ms_per_commit"],
        "entries": [row],
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print_row("RESILIENCE-LEDGER", **row)
    print(f"wrote {os.path.normpath(BENCH_JSON)}")


if __name__ == "__main__":
    sys.exit(main())
