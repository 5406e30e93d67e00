"""OBS-OVERHEAD: telemetry hooks must be free when nothing is installed.

The event journal is the one recorder, and it has two hooks. Every
instrumentation site of the pipeline (the seven stage boundaries of
``repro.obs.stages.STAGES``, plus per-implementation and per-VC child
spans) crosses :func:`repro.obs.span`; every lifecycle site calls
:func:`repro.obs.emit`. With no journal installed each is one
module-global ``None`` check (a span returns a shared no-op context
manager; an emission's keyword arguments are built by the caller either
way, so the measured per-emit cost includes them). The claims measured
here: on an ordinary ``check_scope`` run over the examples corpus,
crossings x per-crossing cost and emissions x per-emit cost are each
under 1% of the run's wall-clock, where crossings and emissions are the
``span`` and lifecycle records an armed journal takes on the same run.
An armed journal — recording every span, with or without a live
:class:`~repro.obs.progress.ProgressRenderer` attached — must stay
within a small constant factor of the bare run. ``armed_span_ns`` is
the recorded cost of one armed span (enter, one ``set``, exit: the
``span`` record it emits).

The pipeline imports only those null paths: every other layer of
``repro.obs`` (and of ``repro.testing``) loads on first use. The cold
start is recorded, not guarded: ``cold_start_ms`` is the median over
fresh interpreters of importing ``repro.api`` and ``repro.cli`` and
running the e2ebench warm-up check (a 4 x 4 farm), without a bytecode
cache; ``cold_start_modules`` and ``cold_start_source_lines`` count the
``repro`` modules that loaded and their lines.

Run as a script (``python benchmarks/bench_observability.py``) it
re-measures and rewrites ``BENCH_observability.json`` at the repo root —
the committed head of the observability bench trajectory.
"""

import json
import os
import statistics
import subprocess
import sys
import time

if __package__ in (None, ""):  # script mode: python benchmarks/bench_observability.py
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from benchmarks.conftest import print_row
from repro import obs
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits
from repro.vcgen.checker import check_scope

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_observability.json"
)


def _median_seconds(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def _example_scopes():
    """The examples corpus (every ``examples/*.oolong``), parsed once."""
    scopes = []
    for name in sorted(os.listdir(EXAMPLES_DIR)):
        if not name.endswith(".oolong"):
            continue
        with open(os.path.join(EXAMPLES_DIR, name)) as handle:
            scope = Scope.from_source(handle.read(), name)
        check_well_formed(scope)
        scopes.append((name, scope))
    assert scopes, "examples corpus is empty"
    return scopes


def measure_overhead(limits):
    """The numbers behind both the pytest guard and the committed JSON."""
    scopes = _example_scopes()

    def run_checks():
        for _, scope in scopes:
            check_scope(scope, limits)

    # Count what an armed journal records on the corpus run: its span
    # records are the crossings of the null span path, the rest the
    # emissions of the null emit path.
    journal = obs.EventJournal()
    with obs.journaling(journal):
        run_checks()
    crossings = journal.counts()["span"]
    emissions = len(journal) - crossings
    assert crossings > 0 and emissions > 0

    check_seconds = _median_seconds(run_checks, repeats=3)

    # Per-crossing cost of the null fast path (span + enter + exit),
    # amortized over a large batch so timer resolution doesn't dominate.
    batch = 100_000
    start = time.perf_counter()
    for _ in range(batch):
        with obs.span("prove"):
            pass
    per_crossing = (time.perf_counter() - start) / batch

    hook_seconds = crossings * per_crossing

    # The price of one armed span (enter, set, exit: one span record).
    armed = 20_000
    with obs.journaling(obs.EventJournal()):
        start = time.perf_counter()
        for _ in range(armed):
            with obs.span("prove") as span:
                span.set(verdict="unsat")
        armed_span = (time.perf_counter() - start) / armed

    from repro.obs import events as events_module

    assert events_module.journal() is None
    start = time.perf_counter()
    for _ in range(batch):
        events_module.emit("cache-hit", key="bench", backend="null")
    per_emit = (time.perf_counter() - start) / batch

    events_seconds = emissions * per_emit
    report_ms = _measure_report_speed()
    return {
        "programs": len(scopes),
        "crossings": crossings,
        "per_crossing_ns": round(per_crossing * 1e9, 1),
        "check_seconds": round(check_seconds, 4),
        "hook_seconds": round(hook_seconds, 6),
        "overhead_percent": round(100 * hook_seconds / check_seconds, 4),
        "emissions": emissions,
        "per_emit_ns": round(per_emit * 1e9, 1),
        "armed_span_ns": round(armed_span * 1e9, 1),
        "events_overhead_percent": round(
            100 * events_seconds / check_seconds, 4
        ),
        "report_ms_per_10k_events": report_ms,
    }


def _synthetic_report_journal(jobs=2500, workers=8):
    """A ``-j``-shaped journal of ~4 events per job — the input class
    ``oolong events report`` is priced on: each job is assigned, misses
    the result cache, is stored in it and is announced, as in a cold
    ``-j N --cache-dir`` run."""
    journal = obs.EventJournal()
    journal.emit("check-start", impls=jobs, backend="parallel")
    for w in range(workers):
        journal.emit("worker-spawn", worker=str(w), pid=1000 + w)
    for job in range(jobs):
        worker = str(job % workers)
        key = f"{job:012x}"
        journal.emit(
            "job-assigned",
            job=job,
            worker=worker,
            attempt=0,
            impl=f"impl_{job}",
            index=0,
        )
        journal.emit("cache-miss", key=key)
        journal.emit("cache-store", key=key)
        journal.emit(
            "impl-checked",
            impl=f"impl_{job}",
            index=0,
            status="verified",
            worker=worker,
            attempt=0,
        )
    journal.emit("check-end", ok=True, impls=jobs)
    return journal


def _measure_report_speed():
    """Milliseconds ``analyze_journal`` spends per 10k journal events.

    The analytics pass is offline (it runs after the check is done),
    so the budget is generous — but it must stay linear-ish in the
    journal: a 1M-event journal has to report in seconds, not minutes.
    Best-of-3 over a ~10k-event synthetic ``-j`` journal.
    """
    from repro.obs.analyze import analyze_journal

    records = _synthetic_report_journal().records
    best = min(
        _median_seconds(lambda: analyze_journal(records), repeats=1)
        for _ in range(3)
    )
    return round(best * 1000.0 * (10_000.0 / len(records)), 2)


#: Run in a fresh interpreter: time the import of the checker plus one
#: check of the source text on stdin, then count the ``repro`` modules
#: that loaded and their source lines.
_COLD_START_PROBE = """
import sys, time
source = sys.stdin.read()
start = time.perf_counter()
import repro.api, repro.cli
repro.api.check_program(source)
elapsed = time.perf_counter() - start
files = [
    module.__file__
    for name, module in sys.modules.items()
    if name.split(".")[0] == "repro" and getattr(module, "__file__", None)
]
lines = 0
for path in files:
    with open(path, encoding="utf-8") as handle:
        lines += sum(1 for _ in handle)
print(elapsed * 1000.0, len(files), lines)
"""


def measure_cold_start(runs=7):
    """Median cold start of the checker over ``runs`` fresh interpreters.

    Each interpreter runs without writing bytecode
    (``PYTHONDONTWRITEBYTECODE=1``), as ``oolong-check`` and the
    e2ebench set-up probe run here, so every ``repro`` module it imports
    is compiled from source when no ``__pycache__`` exists under
    ``src``.
    """
    from repro.corpus.generators import generate_impl_farm

    source = generate_impl_farm(4, 4)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.path.abspath(src), env.get("PYTHONPATH")) if part
    )
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", _COLD_START_PROBE],
            input=source,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        ms, modules, lines = done.stdout.split()
        samples.append((float(ms), int(modules), int(lines)))
    return {
        "cold_start_ms": round(statistics.median(s[0] for s in samples), 1),
        "cold_start_modules": statistics.median(s[1] for s in samples),
        "cold_start_source_lines": statistics.median(s[2] for s in samples),
    }


def measure_for_regression():
    """Entry point for ``benchmarks/check_regression.py``."""
    return measure_overhead(Limits(time_budget=120.0))


def test_null_span_overhead(limits):
    """Crossings per examples-corpus run x null span cost < 1%."""
    row = measure_overhead(limits)
    print_row("OBS-OVERHEAD", **row)
    assert row["overhead_percent"] < 1.0


def test_null_event_path_overhead(limits):
    """Emissions per examples-corpus run x null emit cost < 1%."""
    row = measure_overhead(limits)
    print_row("OBS-EVENTS", **row)
    assert row["events_overhead_percent"] < 1.0


def test_report_analytics_scale_to_big_journals(limits):
    """``events report`` is offline, but it must stay cheap enough to run
    on soak journals: well under a second per 10k events."""
    ms = _measure_report_speed()
    print_row("OBS-REPORT", report_ms_per_10k_events=ms)
    assert ms < 1000.0


def test_armed_journal_is_bounded(limits):
    """An installed journal records every span and stays within a small
    constant factor of the bare run — profiling must be usable on the
    corpus itself, not only on toy inputs."""
    scopes = _example_scopes()

    def run_checks():
        for _, scope in scopes:
            check_scope(scope, limits)

    def run_traced():
        journal = obs.EventJournal()
        with obs.journaling(journal):
            run_checks()
        return journal

    baseline = _median_seconds(run_checks, repeats=3)
    armed = _median_seconds(run_traced, repeats=3)
    print_row(
        "OBS-ARMED",
        baseline_seconds=round(baseline, 4),
        armed_seconds=round(armed, 4),
        slowdown_percent=round(100 * (armed / baseline - 1), 2),
    )
    # generous bound: the point is "no systematic blowup", not a race
    # against scheduler noise
    assert armed < baseline * 1.5


def test_armed_journal_with_progress_is_bounded(limits):
    """An armed journal feeding a live progress renderer records every
    span and lifecycle event and stays within a small constant factor of
    the bare run — ``--events``/``--progress`` must be usable on real
    runs."""
    import io

    scopes = _example_scopes()

    def run_checks():
        for _, scope in scopes:
            check_scope(scope, limits)

    def run_journaled():
        journal = obs.EventJournal()
        journal.add_listener(
            obs.ProgressRenderer(io.StringIO(), line_interval=0.0)
        )
        with obs.journaling(journal):
            run_checks()
        return journal

    assert len(run_journaled()) > 0
    baseline = _median_seconds(run_checks, repeats=3)
    armed = _median_seconds(run_journaled, repeats=3)
    print_row(
        "OBS-JOURNAL-ARMED",
        baseline_seconds=round(baseline, 4),
        armed_seconds=round(armed, 4),
        slowdown_percent=round(100 * (armed / baseline - 1), 2),
    )
    assert armed < baseline * 1.5


def main():
    row = measure_overhead(Limits(time_budget=120.0))
    row.update(measure_cold_start())
    payload = {
        "benchmark": "observability",
        "unit": "overhead_percent of examples-corpus check_scope wall-clock",
        "guard": "overhead_percent < 1.0 and events_overhead_percent < 1.0",
        "regression_keys": [
            "overhead_percent",
            "events_overhead_percent",
            "report_ms_per_10k_events",
        ],
        "entries": [row],
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print_row("OBS-OVERHEAD", **row)
    print(f"wrote {os.path.normpath(BENCH_JSON)}")


if __name__ == "__main__":
    sys.exit(main())
