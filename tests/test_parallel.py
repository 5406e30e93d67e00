"""Supervised parallel checking: determinism, faults, budgets, crashes.

Four layers:

* **Differential** — for every program in the examples corpus, the
  parallel backend's ``CheckReport.to_dict()`` is byte-identical to the
  serial driver's (modulo wall-clock fields). Scheduling, worker count,
  and completion order must be invisible in the report.
* **Direct supervision** — each failure mode produces exactly the
  promised degradation: a killed worker is retried and the job still
  verifies; with retries exhausted the job (and only that job) is
  quarantined as ``OL902``; a frozen worker loses its heartbeat and is
  retried; a hard job timeout SIGKILLs the worker and records
  ``OL901``/``TIMED_OUT``.
* **Fuzzed fault matrix** — seeded plans over the supervisor fault
  kinds (``worker-kill``/``worker-hang``/``cache-corrupt``; CI sweeps
  seed offsets via ``FAULT_SEED_OFFSET``) never change final verdicts:
  every recoverable fault is absorbed by supervision.
* **Crash safety** — SIGKILLing the whole supervisor process mid-run
  leaves a usable cache: the rerun recomputes only what was lost, and a
  corrupted entry is rejected (``OL903``) and recomputed, never trusted.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import check_program_resilient
from repro.corpus.generators import generate_impl_farm
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel import ParallelOptions, run_parallel_checks
from repro.parallel.jobs import build_jobs
from repro.parallel.supervisor import WorkerSupervisor
from repro.prover.core import Limits
from repro.testing.faults import (
    SUPERVISOR_STAGES,
    Fault,
    FaultPlan,
    inject,
)
from repro.vcgen.checker import ImplStatus, check_scope

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
LIMITS = Limits(time_budget=60.0)

SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))
SEEDS = range(SEED_OFFSET, SEED_OFFSET + 10)


def _example_paths():
    paths = []
    for subdir in ("", "failing"):
        directory = os.path.join(EXAMPLES_DIR, subdir)
        for name in sorted(os.listdir(directory)):
            if name.endswith(".oolong"):
                paths.append(os.path.join(directory, name))
    assert paths
    return paths


def _strip_timing(value):
    """Drop wall-clock fields; everything else must match exactly."""
    if isinstance(value, dict):
        return {
            key: _strip_timing(item)
            for key, item in value.items()
            if key != "elapsed"
        }
    if isinstance(value, list):
        return [_strip_timing(item) for item in value]
    return value


def _canonical(report) -> str:
    return json.dumps(_strip_timing(report.to_dict()), sort_keys=True)


def _farm_scope(impls=4, fields=4):
    scope = Scope.from_source(generate_impl_farm(impls, fields))
    check_well_formed(scope)
    return scope


# Tight-but-tolerant supervision for tests: quick hang detection and
# cheap backoff, yet enough heartbeat slack and retry budget that a
# loaded single-core CI runner starving a worker's beat thread for a
# moment cannot fake a worker death all the way into quarantine.
FAST = ParallelOptions(
    jobs=2,
    heartbeat_timeout=1.0,
    backoff_base=0.01,
    poll_interval=0.02,
    max_retries=4,
)


class TestDifferential:
    @pytest.mark.parametrize(
        "path", _example_paths(), ids=lambda p: os.path.basename(p)
    )
    def test_parallel_report_matches_serial(self, path):
        with open(path) as handle:
            source = handle.read()
        serial = check_program_resilient(source, LIMITS, filename=path)
        parallel = check_program_resilient(
            source, LIMITS, filename=path, parallel=2
        )
        assert _canonical(parallel) == _canonical(serial)

    def test_worker_count_is_invisible(self):
        scope = _farm_scope(5, 4)
        reports = [
            check_scope(scope, LIMITS, parallel=jobs) for jobs in (1, 3)
        ]
        assert _canonical(reports[0]) == _canonical(reports[1])


class TestSupervision:
    def test_killed_worker_is_retried_and_verifies(self):
        scope = _farm_scope()
        plan = FaultPlan((Fault("worker-kill", "raise", hit=1),))
        with inject(plan) as injector:
            report = check_scope(scope, LIMITS, parallel=2)
        assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)
        assert ("worker-kill", 1, "raise") in injector.fired

    def test_exhausted_retries_quarantine_only_that_job(self):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        plan = FaultPlan((Fault("worker-kill", "raise", hit=1),))
        with inject(plan):
            report = check_scope(scope, LIMITS, parallel=2, max_retries=0)
        assert len(report.verdicts) == len(serial.verdicts)
        for index, verdict in enumerate(report.verdicts):
            if index == 1:
                assert verdict.status is ImplStatus.INTERNAL_ERROR
                assert verdict.error is not None
                assert verdict.error.code == "OL902"
                assert "quarantined" in verdict.error.message
            else:
                assert verdict.status is serial.verdicts[index].status

    def test_lost_heartbeat_triggers_retry(self):
        scope = _farm_scope()
        plan = FaultPlan((Fault("worker-hang", "raise", hit=0),))
        with inject(plan):
            outcome = run_parallel_checks(scope, LIMITS, options=FAST)
        assert all(
            job.verdict.status is ImplStatus.VERIFIED
            for job in outcome.jobs
        )
        hung = outcome.jobs[0]
        assert any("heartbeat" in reason for reason in hung.death_reasons)

    def test_hard_timeout_kills_and_reports_ol901(self):
        scope = _farm_scope()
        # A frozen worker with a generous heartbeat window: the hard job
        # timeout must fire first and classify the job as TIMED_OUT (a
        # slow-but-alive job), not as a worker death.
        options = ParallelOptions(
            jobs=2,
            job_timeout=0.3,
            heartbeat_timeout=30.0,
            poll_interval=0.02,
        )
        plan = FaultPlan((Fault("worker-hang", "raise", hit=0),))
        with inject(plan):
            outcome = run_parallel_checks(scope, LIMITS, options=options)
        timed_out = outcome.jobs[0]
        assert timed_out.verdict.status is ImplStatus.TIMED_OUT
        assert timed_out.verdict.error.code == "OL901"
        assert "hard job timeout" in timed_out.verdict.error.message
        for job in outcome.jobs[1:]:
            assert job.verdict.status is ImplStatus.VERIFIED


    @pytest.mark.parametrize(
        "stage, expected",
        [
            ("worker-kill", "exit code 113"),
            ("worker-hang", f"killed by signal {signal.SIGKILL.value}"),
        ],
    )
    def test_death_reason_does_not_depend_on_who_notices(self, stage, expected):
        # The loop may read a dead worker's closed pipe (``_drain``)
        # before it polices the exit status (``_police``); the death is
        # worded from the reaped exit status either way.
        scope = _farm_scope(1, 2)
        with inject(FaultPlan((Fault(stage, "raise", hit=0),))):
            supervisor = WorkerSupervisor(
                scope, LIMITS, options=FAST, book=build_jobs(scope)
            )
            try:
                supervisor._ensure_workers(1)
                worker = supervisor.workers[0]
                job = supervisor.queue.pop(0)
                supervisor._assign(worker, job, time.monotonic())
                if stage == "worker-hang":
                    os.kill(worker.process.pid, signal.SIGKILL)
                assert worker.conn.poll(30.0)
                supervisor._drain(worker)
            finally:
                supervisor._shutdown_workers()
        assert job.death_reasons == [expected]


class TestScopeBudget:
    BUDGET = 0.25

    def _farm_outlasting(self, serial_seconds, fields=12):
        """A farm whose serial check takes at least about
        ``serial_seconds``, sized from a measured serial check (best of
        two) of a 4-impl farm of the same shape, so the work keeps up
        with prover speedups instead of assuming a fixed time per impl."""
        probe = _farm_scope(4, fields)
        per_impl = float("inf")
        for _ in range(2):
            start = time.monotonic()
            check_scope(probe, LIMITS)
            per_impl = min(per_impl, (time.monotonic() - start) / 4)
        impls = min(200, max(8, math.ceil(serial_seconds / per_impl)))
        return _farm_scope(impls, fields)

    def test_budget_expiry_cancels_promptly(self):
        # Ten budgets' worth of serial proof work, so even two workers
        # need several budgets: the supervisor must kill in-flight workers
        # and cancel the queue within a poll interval or two, not run the
        # farm to completion.
        scope = self._farm_outlasting(10 * self.BUDGET)
        limits = Limits(time_budget=60.0, scope_time_budget=self.BUDGET)
        start = time.monotonic()
        report = check_scope(scope, limits, parallel=2)
        elapsed = time.monotonic() - start
        assert elapsed < self.BUDGET + 0.6, f"overshoot: {elapsed:.2f}s"
        assert len(report.verdicts) == sum(map(len, scope.impls.values()))
        statuses = {v.status for v in report.verdicts}
        assert ImplStatus.TIMED_OUT in statuses
        for verdict in report.verdicts:
            if verdict.status is ImplStatus.TIMED_OUT:
                assert verdict.error.code == "OL901"


class TestFaultMatrix:
    """Seeded supervisor fault plans, driven through ``check_scope`` with
    a result cache: the cold run absorbs worker kills and hangs, and the
    warm rerun rejects (``OL903``) and recomputes every entry the
    ``cache-corrupt`` fault damaged — verdicts never change."""

    def _assert_faults_never_change_verdicts(self, seed, tmp_path, **backend):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        plan = FaultPlan.fuzz(seed, stages=SUPERVISOR_STAGES, max_hit=2)
        cache_dir = str(tmp_path / f"cache-{seed}")
        with inject(plan) as injector:
            cold = check_scope(
                scope, LIMITS, cache_dir=cache_dir, max_retries=4, **backend
            )
        warm = check_scope(scope, LIMITS, cache_dir=cache_dir, **backend)
        for report in (cold, warm):
            assert len(report.verdicts) == len(serial.verdicts)
            for verdict, baseline in zip(report.verdicts, serial.verdicts):
                detail = (
                    f"{plan.describe()}: {verdict.describe()} != "
                    f"{baseline.describe()}"
                )
                assert verdict.status is baseline.status, detail
                assert verdict.impl is baseline.impl
        corrupted = {
            hit for stage, hit, _ in injector.fired if stage == "cache-corrupt"
        }
        assert warm.cache_summary["rejections"] == len(corrupted)
        assert warm.cache_summary["hits"] == len(serial.verdicts) - len(
            corrupted
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_supervised_faults_never_change_verdicts(self, seed, tmp_path):
        self._assert_faults_never_change_verdicts(seed, tmp_path, parallel=2)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serial_cache_faults_never_change_verdicts(self, seed, tmp_path):
        # Worker faults have no worker to hit serially; the cache-corrupt
        # fault point lives in the checker's shared cache store.
        self._assert_faults_never_change_verdicts(seed, tmp_path)


def _processes_mentioning(needle: str):
    """Pids (other than ours) whose command line contains ``needle``.

    Forked workers keep the supervisor's command line, so the unique
    temp-file path identifies the whole process tree. /proc scanning is
    Linux-only; elsewhere report nothing (the orphan assertion becomes
    vacuous, the cache assertions still run).
    """
    pids = []
    if not os.path.isdir("/proc"):
        return pids
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        if needle in cmdline:
            pids.append(int(entry))
    return pids


class TestCrashSafety:
    def _write_farm(self, tmp_path, impls=8, fields=12):
        source = generate_impl_farm(impls, fields)
        path = tmp_path / "farm.oolong"
        path.write_text(source)
        return path, Scope.from_source(source)

    def test_rerun_is_served_from_cache(self, tmp_path):
        scope = _farm_scope()
        cache_dir = str(tmp_path / "cache")
        first = check_scope(scope, LIMITS, cache_dir=cache_dir)
        second = check_scope(scope, LIMITS, cache_dir=cache_dir)
        assert _canonical(first) == _canonical(second)
        assert first.cache_summary["stores"] == len(first.verdicts)
        assert second.cache_summary["hits"] == len(second.verdicts)

    def test_corrupted_entry_is_rejected_and_recomputed(self, tmp_path):
        scope = _farm_scope()
        cache_dir = tmp_path / "cache"
        check_scope(scope, LIMITS, cache_dir=str(cache_dir))
        victim = sorted(cache_dir.glob("*.json"))[0]
        data = victim.read_bytes()
        victim.write_bytes(
            data[: len(data) // 2] + b"\x00GARBAGE\x00" + data[len(data) // 2 :]
        )
        report = check_scope(scope, LIMITS, cache_dir=str(cache_dir))
        assert report.ok
        rejections = [d for d in report.diagnostics if d.code == "OL903"]
        assert len(rejections) == 1
        assert "rejected" in rejections[0].message
        assert report.cache_summary["hits"] == len(report.verdicts) - 1
        # The rejected entry was recomputed and republished: a third run
        # is all hits again.
        third = check_scope(scope, LIMITS, cache_dir=str(cache_dir))
        assert third.cache_summary["hits"] == len(third.verdicts)

    def test_cache_corrupt_fault_kind_round_trips(self, tmp_path):
        scope = _farm_scope()
        cache_dir = str(tmp_path / "cache")
        plan = FaultPlan((Fault("cache-corrupt", "corrupt", hit=0),))
        with inject(plan) as injector:
            first = check_scope(scope, LIMITS, parallel=2, cache_dir=cache_dir)
        assert first.ok
        assert ("cache-corrupt", 0, "corrupt") in injector.fired
        second = check_scope(scope, LIMITS, cache_dir=cache_dir)
        assert second.ok
        assert any(d.code == "OL903" for d in second.diagnostics)

    def test_sigkill_mid_run_leaves_usable_cache(self, tmp_path):
        path, scope = self._write_farm(tmp_path)
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src_dir), env.get("PYTHONPATH", "")]
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                str(path),
                "-j",
                "2",
                "--cache-dir",
                str(cache_dir),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(1.0)
        process.send_signal(signal.SIGKILL)
        process.wait()
        # SIGKILL bypasses every cleanup hook in the supervisor, so the
        # workers must notice the orphaning themselves (the heartbeat
        # thread watches the parent pid) and exit promptly.
        deadline = time.monotonic() + 10.0
        while _processes_mentioning(str(path)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _processes_mentioning(str(path)), "orphaned workers"
        # Whatever the kill left behind must be either absent or valid:
        # the rerun recomputes the lost entries and trusts the rest.
        report = check_scope(scope, LIMITS, cache_dir=str(cache_dir))
        assert report.ok
        assert all(
            v.status is ImplStatus.VERIFIED for v in report.verdicts
        )
        assert not any(d.code == "OL903" for d in report.diagnostics)
        summary = report.cache_summary
        assert summary["hits"] + summary["stores"] >= len(report.verdicts)
