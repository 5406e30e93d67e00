#!/usr/bin/env python3
"""End-to-end benchmark of the oolong checker (``repro.api.check_program``).

    python3 e2ebench/run.py --workload prove-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; the checker is imported from
``src/``. One client drives ``check_program`` in a closed loop from this
process: the next scope goes in only when the previous verdicts are
back, the way a user running ``oolong-check`` or an editor re-check
waits. Inputs are generated from ``--seed`` before anything is timed
(:mod:`inputs`), and every verdict is checked against its known answer.

A run checks whole rounds of a workload's scopes. ``--seconds`` fixes how
many: as many as take that long on the reference machine (the nominal
round times in ``WORKLOADS``). Every run of a workload so does the same
work, and a faster checker finishes sooner rather than checking more; a
run that takes more than ``TIME_CAP`` times ``--seconds`` stops early.
The cap is checked between rounds, and a run checks at least one round.

``--trace 0`` reports the end-to-end metrics. A shared host's speed
drifts, by up to ~1.8x for tens of seconds at a time, and a run is too
short to wait that out. So a fixed pure-Python reference workload that
runs no checker code (:mod:`reference`) is timed between checks, at
least every ``REFERENCE_EVERY`` seconds of checking, and inside each
set-up probe just before and after its set-up. Every time is scaled to
the speed at which that workload takes ``REFERENCE_S``, from the median
of the reference runs within ``REFERENCE_WINDOW`` of it (for a probe,
the runs just before and after it).
Each scope is checked once per round, so its checks are spread over the
run, and it is taken at the median of its scaled checks: ``scope_p50_ms``
and ``scope_tail_ms`` are percentiles over all checks of the run with
each check at its scope's median, and ``impls_per_s`` is the decided
implementations over the sum of those. ``setup_s`` is the median of
``SETUP_PROBES`` scaled set-ups spread over the run. The readable table
also shows the raw, unscaled figures and the host speed the reference
runs measured.

``--trace 1`` checks each
scope twice, once with ``check_program`` and once through the traced
stage-by-stage replay of :mod:`staged` (half as many rounds, so the run
takes as long), requires identical verdicts from the two,
and reports per-layer self times and counts plus ``trace.overhead_ms``,
the traced minus the untraced wall-clock per scope. The spans are written
to ``.e2ebench-out/`` as a Chrome trace.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
``# e2ebench`` header (workload, seed, environment) and a readable table
with units and sample counts. A scope check fails when it raises, has
``fatal`` diagnostics or pivot violations, leaves an implementation
undecided, or gives a verdict other than the known answer; the command
then exits 1.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from reference import REFERENCE_S, host_reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench-work")
OUT = os.path.join(ROOT, ".e2ebench-out")

#: Set-up probes per run, spread over it; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A run stops early, between rounds, once it has taken this many times
#: ``--seconds``, so that on a machine far slower than the reference it
#: still ends in bounded time, with fewer samples.
TIME_CAP = 1.2
DECIDED = ("VERIFIED", "NOT_PROVED")
#: Checking seconds between two reference runs, at least.
REFERENCE_EVERY = 0.05
#: Seconds on either side of a check whose reference runs measure the
#: host's speed for it: short beside the host's drift, long enough to
#: hold several runs.
REFERENCE_WINDOW = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    #: Nominal seconds of one round on the reference machine (see
    #: ``layers.json``).
    round_s: float
    static_discharge: str = "off"
    parallel: Optional[int] = None
    #: Check with a result cache and a run ledger.
    cached: bool = False
    #: ``scope_tail_ms`` percentile: the highest with at least ten checks
    #: beyond it at 20 s, the run length ``BENCHMARK.json`` fixes.
    tail: int = 75

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def check_kwargs(self, directory: str) -> dict:
        """``check_program`` keyword arguments, with per-run directories."""
        kwargs = {"static_discharge": self.static_discharge, "parallel": self.parallel}
        if self.cached:
            kwargs["cache_dir"] = os.path.join(directory, "cache")
            kwargs["run_dir"] = os.path.join(directory, "run")
        return kwargs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prove-corpus", round_s=5.6, tail=92),
        Workload("discharge-farm", round_s=2.7, static_discharge="on", tail=79),
        Workload("edit-recheck", round_s=0.7, cached=True, tail=88),
        Workload("jobs-j2", round_s=4.15, parallel=2, tail=71),
    )
}


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: ``name -> (value, unit, note)``, every metric the run measured.
    metrics: Dict[str, Tuple[float, str, str]]
    #: The metrics the result line carries.
    reported: Tuple[str, ...]
    notes: List[str] = field(default_factory=list)


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def environment(nproc: int) -> dict:
    from repro.parallel.cache import code_version

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "code_version": code_version(),
    }


def status_errors(case, statuses: Dict[Tuple[str, int], str]) -> List[str]:
    errors = []
    for key in sorted(set(case.expected) | set(statuses)):
        want, got = case.expected.get(key), statuses.get(key)
        if want != got:
            errors.append(f"{key[0]}#{key[1]}: expected {want}, got {got}")
    return errors


class Rounds:
    """A workload's scopes, one whole round at a time."""

    def __init__(self, workload: Workload, seed: int):
        import inputs

        self.session = self.base = None
        self.fixed: list = []
        if workload.name == "edit-recheck":
            self.session = inputs.EditSession(seed)
            self.base = self.session.case("base")
        elif workload.name == "prove-corpus":
            self.fixed = inputs.prove_corpus(seed, ROOT)
        elif workload.name == "discharge-farm":
            self.fixed = inputs.discharge_farm(seed)
        else:
            self.fixed = inputs.jobs_j2(seed)
        self.warmup = inputs.warmup()

    def next(self) -> list:
        if self.session is not None:
            return self.session.block()
        return self.fixed


def scheduled(rounds: Rounds, count: int, seconds: float):
    """The next ``count`` rounds' scopes, or fewer past the time cap."""
    start = time.perf_counter()
    for _ in range(count):
        yield rounds.next()
        if time.perf_counter() - start >= TIME_CAP * seconds:
            return


def timed_check(case, kwargs: dict):
    """One closed-loop ``check_program`` call.

    Returns the seconds it took, the statuses it gave (None if it
    raised), everything wrong with the report, and how many
    implementations it decided.
    """
    from repro.api import check_program

    start = time.perf_counter()
    try:
        report = check_program(case.source, **kwargs)
    except Exception as exc:  # a crash fails this scope check, not the run
        return time.perf_counter() - start, None, [f"raised {exc!r}"], 0
    elapsed = time.perf_counter() - start
    statuses = {(v.impl.name, v.index): v.status.name for v in report.verdicts}
    errors = [f"fatal: {d.message}" for d in report.fatal]
    if report.pivot_violations:
        errors.append(f"{len(report.pivot_violations)} pivot violation(s)")
    errors += status_errors(case, statuses)
    decided = sum(1 for status in statuses.values() if status in DECIDED)
    return elapsed, statuses, errors, decided


def prepare(workload: Workload, rounds: Rounds, directories: List[str]) -> None:
    """In-process warm-up, and ``edit-recheck``'s cold populating check
    for each directory set."""
    checks = [(rounds.warmup, directories[0])]
    if rounds.base is not None:
        checks += [(rounds.base, directory) for directory in directories]
    for case, directory in checks:
        _, _, errors, _ = timed_check(case, workload.check_kwargs(directory))
        if errors:
            raise RuntimeError(f"set-up check {case.name} failed: {errors}")


class HostSpeed:
    """Reference runs over a run, and the host speed around a moment."""

    def __init__(self) -> None:
        #: (when it started, seconds), in time order.
        self.runs: List[Tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        self.runs.append((time.perf_counter(), host_reference_s()))

    def around(self, begin: float, end: float) -> float:
        """Median seconds of the reference runs within ``REFERENCE_WINDOW``
        of ``begin``..``end``, and at least of the last one before it and
        the first one after it."""
        starts = [when for when, _ in self.runs]
        low = bisect.bisect_left(starts, begin - REFERENCE_WINDOW)
        high = bisect.bisect_right(starts, end + REFERENCE_WINDOW)
        low = min(low, max(bisect.bisect_right(starts, begin) - 1, 0))
        high = max(high, min(bisect.bisect_left(starts, end) + 1, len(starts)))
        return statistics.median(seconds for _, seconds in self.runs[low:high])


def probe_setup(workload: Workload, rounds: Rounds, directory: str) -> Tuple[float, float]:
    """One cold set-up in a fresh interpreter: its seconds at reference
    speed, and raw."""
    checks = [[rounds.warmup.source, workload.check_kwargs(directory + "-warm")]]
    if rounds.base is not None:
        checks.append([rounds.base.source, workload.check_kwargs(directory)])
    spec_path = directory + ".json"
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"src": SRC, "checks": checks}, handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), spec_path],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    steady, raw = done.stdout.strip().splitlines()[-1].split()
    return float(steady), float(raw)


def probe_schedule(count: int) -> List[int]:
    """After which rounds (1..count) the ``SETUP_PROBES`` probes run:
    spread evenly over the run, none before the first round."""
    return [
        1 + round(probe * (count - 1) / (SETUP_PROBES - 1))
        for probe in range(SETUP_PROBES)
    ]


def run_untraced(workload: Workload, rounds: Rounds, seconds: float, work: str) -> Outcome:
    directory = os.path.join(work, "main")
    prepare(workload, rounds, [directory])
    kwargs = workload.check_kwargs(directory)
    count = workload.rounds(seconds)
    pending = probe_schedule(count)
    #: Set-up probes: seconds at reference speed, and raw.
    probes: List[Tuple[float, float]] = []
    children_kb = 0
    #: Reference runs, between checks at least ``REFERENCE_EVERY`` apart:
    #: when each started, and its seconds.
    references = HostSpeed()
    #: Every scope check: scope name, when it started, and its seconds.
    checks: List[Tuple[str, float, float]] = []
    impls = decided = failed = 0
    since = 0.0
    start = time.perf_counter()
    for number in range(1, count + 1):
        if time.perf_counter() - start >= TIME_CAP * seconds:
            break
        for case in rounds.next():
            began = time.perf_counter()
            elapsed, _, errors, done = timed_check(case, kwargs)
            checks.append((case.name, began, elapsed))
            impls += case.impls
            decided += done
            if errors:
                failed += 1
                report_failure(case, errors)
            since += elapsed
            if since >= REFERENCE_EVERY:
                references.sample()
                since = 0.0
        if not probes:
            # The probes are children too; every round starts the same
            # workers, so their peak is reached in the first round.
            children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if pending and pending[0] <= number:
            begin = time.perf_counter()
            references.sample()
            while pending and pending[0] <= number:
                pending.pop(0)
                probes.append(probe_setup(workload, rounds, os.path.join(work, f"probe{len(probes)}")))
            references.sample()
            since = 0.0
            start += time.perf_counter() - begin  # probes are not checking time
    wall = time.perf_counter() - start
    references.sample()
    for _ in pending:  # the run stopped at the time cap
        probes.append(probe_setup(workload, rounds, os.path.join(work, f"probe{len(probes)}")))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.parallel is not None:
        peak_kb = max(peak_kb, children_kb)

    # Scaled to reference speed, then each scope at its median (see the
    # module docstring).
    by_scope: Dict[str, List[float]] = {}
    for name, began, elapsed in checks:
        by_scope.setdefault(name, []).append(
            elapsed * 1000.0 * REFERENCE_S / references.around(began, began + elapsed)
        )
    typical = {name: statistics.median(values) for name, values in by_scope.items()}
    costs = [typical[name] for name, _, _ in checks]
    raw = [elapsed * 1000.0 for _, _, elapsed in checks]
    speed = statistics.median(REFERENCE_S / ref for _, ref in references.runs)
    n = len(checks)
    busy_s = sum(costs) / 1000.0
    metrics = {
        "scope_p50_ms": (
            statistics.median(costs),
            "ms",
            f"n={n} checks of {len(typical)} scopes; raw median "
            f"{statistics.median(raw):.2f}",
        ),
        "scope_tail_ms": (
            percentile(costs, workload.tail),
            "ms",
            f"p{workload.tail}, n={n}; raw p{workload.tail} "
            f"{percentile(raw, workload.tail):.2f}",
        ),
        "impls_per_s": (
            decided / busy_s,
            "1/s",
            f"{decided} decided in {busy_s:.2f} s; raw {decided / wall:.2f} "
            f"over {wall:.2f} s of wall-clock",
        ),
        "decided_ratio": (decided / impls, "ratio", f"{decided}/{impls} impls"),
        "failed_ratio": (failed / n, "ratio", f"{failed}/{n} scope checks"),
        "setup_s": (
            statistics.median(steady for steady, _ in probes),
            "s",
            f"median of {len(probes)}; raw "
            + " ".join(f"{raw_s:.3f}" for _, raw_s in probes),
        ),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "max resident set"),
        "host_speed": (
            speed,
            "ratio",
            f"median of {len(references.runs)} reference runs, "
            f"{REFERENCE_S * 1000:.1f} ms at speed 1",
        ),
    }
    # failed_ratio is 0 on every correct run, so it is no metric to
    # bound; the result line carries it as failed / attempted.
    reported = tuple(name for name in metrics if name not in ("failed_ratio", "host_speed"))
    return Outcome(n, failed, metrics, reported)


def run_traced(
    workload: Workload, rounds: Rounds, seconds: float, work: str, spans_path: str
) -> Outcome:
    from staged import LayerCounts, SpanRecorder, layer_metrics, staged_check

    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    prepare(workload, rounds, [plain_dir, traced_dir])
    plain, traced = workload.check_kwargs(plain_dir), workload.check_kwargs(traced_dir)
    recorder, counts = SpanRecorder(), LayerCounts()
    plain_s = traced_s = 0.0
    scopes = failed = 0
    # Each scope is checked twice, so half the rounds take as long.
    for cases in scheduled(rounds, workload.rounds(seconds / 2), seconds):
        for case in cases:
            elapsed, untraced, errors, _ = timed_check(case, plain)
            plain_s += elapsed
            begin = time.perf_counter()
            try:
                staged = staged_check(case.source, traced, recorder, counts)
            except Exception as exc:
                errors.append(f"traced run raised {exc!r}")
            else:
                if staged != untraced:
                    errors.append("traced verdicts differ from check_program's")
                errors += [f"traced: {e}" for e in status_errors(case, staged)]
            traced_s += time.perf_counter() - begin
            scopes += 1
            if errors:
                failed += 1
                report_failure(case, errors)
    os.makedirs(OUT, exist_ok=True)
    recorder.write_chrome_trace(spans_path)
    metrics = {
        name: (value, unit, "per scope" if unit in ("ms", "count") else "")
        for name, (value, unit) in layer_metrics(recorder, counts, scopes).items()
    }
    metrics["trace.overhead_ms"] = (
        (traced_s - plain_s) * 1000.0 / scopes,
        "ms",
        f"traced {traced_s:.2f} s vs untraced {plain_s:.2f} s",
    )
    metrics["trace.scopes"] = (float(scopes), "count", spans_path)
    return Outcome(scopes, failed, metrics, tuple(metrics), shares(recorder, scopes))


def shares(recorder, scopes: int) -> List[str]:
    from staged import LAYERS, ROOT as ROOT_SPAN

    layer_s = recorder.layer_self_seconds()
    total = sum(layer_s.values()) or 1.0
    lines = [f"layer self time per scope over {scopes} scopes, and share of all layers:"]
    for layer in LAYERS:
        per_scope = layer_s[layer] * 1000 / scopes
        lines.append(f"  {layer:22s} {per_scope:10.2f} ms {layer_s[layer] / total:6.1%}")
    glue = recorder.self_seconds().get(ROOT_SPAN, 0.0) * 1000 / scopes
    lines.append(f"  (benchmark code between the layers: {glue:.2f} ms)")
    return lines


def report_failure(case, errors: List[str]) -> None:
    print(f"FAILED {case.name}: " + "; ".join(errors[:5]), file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        print(f"e2ebench: no checker sources in {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if workload.parallel is None:
        # Serial checks and their reference runs on one CPU (see reference).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rounds = Rounds(workload, args.seed)  # inputs exist before any timing

    work = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        import repro.api  # noqa: F401 -- the imports check_program needs
        import repro.cli  # noqa: F401

        if args.trace:
            spans = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.json")
            outcome = run_traced(workload, rounds, args.seconds, work, spans)
        else:
            outcome = run_untraced(workload, rounds, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    header = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(nproc),
    }
    print("# e2ebench " + json.dumps(header, sort_keys=True))
    for name, (value, unit, note) in outcome.metrics.items():
        print(f"# {name:36s} {value:14.4f} {unit:6s} {note}")
    for line in outcome.notes:
        print(f"# {line}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in outcome.reported
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
