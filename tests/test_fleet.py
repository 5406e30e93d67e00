"""Distributed fleet checking: determinism, leases, faults, degradation.

Mirrors :mod:`tests.test_parallel` one transport up:

* **Differential** — the fleet backend's report is byte-identical to the
  serial driver's (modulo wall-clock fields) for every example program,
  and invisible to worker count.
* **Lease supervision** — a killed worker's lease is reclaimed and the
  job retried; exhausted retries quarantine exactly that job (``OL902``);
  a hung worker's lease expires and the job is reassigned; a hard job
  timeout reports ``OL901``.
* **Fuzzed fault matrix** — seeded plans over the supervisor *and* fleet
  stages (frame drop/delay/corruption, partitions, churn; CI sweeps
  ``FAULT_SEED_OFFSET``) never change final verdicts.
* **Degradation** — an unreachable fleet, and a fleet that collapses
  mid-run, both finish the run locally with an ``OL904`` warning and
  serial-identical verdicts. A SIGKILLed coordinator leaves no orphans.
"""

import contextlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.api import check_program_resilient
from repro.cli import main as cli_main
from repro.corpus.generators import generate_impl_farm
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel import FleetOptions, run_fleet_checks
from repro.parallel.fleet import WorkerPool
from repro.prover.core import Limits
from repro.testing.faults import (
    FLEET_STAGES,
    SUPERVISOR_STAGES,
    Fault,
    FaultPlan,
    inject,
)
from repro.vcgen.checker import ImplStatus, check_scope

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
LIMITS = Limits(time_budget=60.0)

SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))
SEEDS = range(SEED_OFFSET, SEED_OFFSET + 8)


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


def _fast(**overrides) -> FleetOptions:
    """Tight-but-tolerant coordination for tests: quick lease policing
    and cheap backoff, with enough retry budget that a loaded CI runner
    briefly starving a renewal thread cannot push a job into quarantine.
    """
    defaults = dict(
        workers=2,
        lease_duration=2.0,
        renew_interval=0.1,
        backoff_base=0.01,
        poll_interval=0.02,
        registration_wait=30.0,
        max_retries=4,
    )
    defaults.update(overrides)
    return FleetOptions(**defaults)


class TestDifferential:
    @pytest.mark.parametrize(
        "path", _example_paths(), ids=lambda p: os.path.basename(p)
    )
    def test_fleet_report_matches_serial(self, path):
        with open(path) as handle:
            source = handle.read()
        serial = check_program_resilient(source, LIMITS, filename=path)
        fleet = check_program_resilient(
            source, LIMITS, filename=path, fleet=_fast()
        )
        assert _canonical(fleet) == _canonical(serial)

    def test_worker_count_is_invisible(self):
        scope = _farm_scope(5, 4)
        reports = [
            check_scope(scope, LIMITS, fleet=_fast(workers=jobs))
            for jobs in (1, 3)
        ]
        assert _canonical(reports[0]) == _canonical(reports[1])

    def test_fleet_matches_pipe_parallel(self):
        scope = _farm_scope(5, 4)
        pipe = check_scope(scope, LIMITS, parallel=2)
        fleet = check_scope(scope, LIMITS, fleet=_fast())
        assert _canonical(fleet) == _canonical(pipe)


class TestLeases:
    def test_killed_worker_lease_reclaimed_and_verifies(self):
        scope = _farm_scope()
        plan = FaultPlan((Fault("worker-kill", "raise", hit=1),))
        with inject(plan) as injector:
            outcome = run_fleet_checks(scope, LIMITS, options=_fast())
        assert outcome.degraded is None
        assert all(
            job.verdict.status is ImplStatus.VERIFIED for job in outcome.jobs
        )
        assert ("worker-kill", 1, "raise") in injector.fired
        assert outcome.jobs[1].attempts >= 1
        assert outcome.jobs[1].death_reasons
        assert outcome.summary["fleet.requeues"] >= 1

    def test_exhausted_retries_quarantine_only_that_job(self):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        plan = FaultPlan((Fault("worker-kill", "raise", hit=1),))
        with inject(plan):
            outcome = run_fleet_checks(
                scope, LIMITS, options=_fast(max_retries=0)
            )
        assert len(outcome.jobs) == len(serial.verdicts)
        for index, job in enumerate(outcome.jobs):
            if index == 1:
                assert job.verdict.status is ImplStatus.INTERNAL_ERROR
                assert job.verdict.error.code == "OL902"
                assert "quarantined" in job.verdict.error.message
            else:
                assert job.verdict.status is serial.verdicts[index].status
        assert outcome.summary["fleet.quarantines"] == 1

    def test_hung_worker_lease_expires_and_is_reassigned(self):
        scope = _farm_scope()
        plan = FaultPlan((Fault("worker-hang", "raise", hit=0),))
        with inject(plan):
            outcome = run_fleet_checks(
                scope, LIMITS, options=_fast(lease_duration=0.4)
            )
        assert outcome.degraded is None
        assert all(
            job.verdict.status is ImplStatus.VERIFIED for job in outcome.jobs
        )
        hung = outcome.jobs[0]
        assert any("lease expired" in reason for reason in hung.death_reasons)
        assert outcome.summary["fleet.lease_expiries"] >= 1

    def test_hard_timeout_reports_ol901(self):
        scope = _farm_scope()
        # A hung worker with a *generous* lease clock: the hard job
        # deadline must fire first and classify the job as TIMED_OUT (a
        # slow-but-alive job), not as a lease failure.
        plan = FaultPlan((Fault("worker-hang", "raise", hit=0),))
        with inject(plan):
            outcome = run_fleet_checks(
                scope,
                LIMITS,
                options=_fast(job_timeout=0.4, lease_duration=30.0),
            )
        timed_out = outcome.jobs[0]
        assert timed_out.verdict.status is ImplStatus.TIMED_OUT
        assert timed_out.verdict.error.code == "OL901"
        assert "hard job timeout" in timed_out.verdict.error.message
        for job in outcome.jobs[1:]:
            assert job.verdict.status is ImplStatus.VERIFIED

    def test_counters_cover_the_lease_lifecycle(self):
        scope = _farm_scope()
        outcome = run_fleet_checks(scope, LIMITS, options=_fast())
        summary = outcome.summary
        assert summary["fleet.registrations"] >= 1
        assert summary["fleet.steals"] >= len(outcome.jobs)
        assert summary["fleet.leases"] == len(outcome.jobs)
        assert summary["fleet.requeues"] == 0
        assert summary["fleet.quarantines"] == 0


class TestFleetFaults:
    def test_partition_mid_job_is_absorbed(self):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        plan = FaultPlan((Fault("partition-worker", "raise", hit=0),))
        with inject(plan) as injector:
            report = check_scope(scope, LIMITS, fleet=_fast())
        assert [v.status for v in report.verdicts] == [
            v.status for v in serial.verdicts
        ]
        assert any(stage == "partition-worker" for stage, _, _ in injector.fired)

    def test_corrupt_lease_frame_is_absorbed(self):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        plan = FaultPlan((Fault("corrupt-frame", "corrupt", hit=2),))
        with inject(plan) as injector:
            report = check_scope(scope, LIMITS, fleet=_fast())
        assert [v.status for v in report.verdicts] == [
            v.status for v in serial.verdicts
        ]
        assert ("corrupt-frame", 2, "corrupt") in injector.fired

    def test_worker_churn_is_absorbed(self):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        plan = FaultPlan((Fault("worker-churn", "raise", hit=0),))
        with inject(plan) as injector:
            report = check_scope(scope, LIMITS, fleet=_fast())
        assert [v.status for v in report.verdicts] == [
            v.status for v in serial.verdicts
        ]
        assert any(stage == "worker-churn" for stage, _, _ in injector.fired)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzzed_faults_never_change_verdicts(self, seed):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        plan = FaultPlan.fuzz(
            seed, stages=SUPERVISOR_STAGES + FLEET_STAGES, max_hit=3
        )
        # Through check_scope, so a plan vicious enough to collapse the
        # fleet exercises the degradation path instead of failing: the
        # verdicts must be serial-identical either way.
        with inject(plan):
            report = check_scope(scope, LIMITS, fleet=_fast())
        detail = f"seed {seed}: {plan.describe()}"
        assert len(report.verdicts) == len(serial.verdicts), detail
        for verdict, baseline in zip(report.verdicts, serial.verdicts):
            assert verdict.status is baseline.status, (
                f"{detail}; {verdict.impl.name}: "
                f"{verdict.status} != {baseline.status} ({verdict.error})"
            )
            assert verdict.impl is baseline.impl


class TestDegradation:
    def test_unreachable_fleet_degrades_to_local(self):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        # Bind an ephemeral port, spawn nobody, and wait almost not at
        # all: the fleet never assembles.
        report = check_scope(
            scope,
            LIMITS,
            fleet=_fast(workers=0, registration_wait=0.2),
        )
        assert report.ok == serial.ok
        assert [v.status for v in report.verdicts] == [
            v.status for v in serial.verdicts
        ]
        degraded = [d for d in report.diagnostics if d.code == "OL904"]
        assert len(degraded) == 1
        assert "degraded to local checking" in degraded[0].message
        assert report.fleet_summary is not None
        assert "degraded" in report.fleet_summary

    def test_mid_run_collapse_finishes_locally(self):
        scope = _farm_scope()
        serial = check_scope(scope, LIMITS)
        # One worker, no respawn budget: the injected kill removes the
        # fleet's only capacity, the stall clock runs out, and the
        # remaining jobs must finish on the local supervisor.
        plan = FaultPlan((Fault("worker-kill", "raise", hit=0),))
        with inject(plan):
            report = check_scope(
                scope,
                LIMITS,
                fleet=_fast(workers=1, respawn_budget=0, stall_timeout=0.3),
            )
        assert [v.status for v in report.verdicts] == [
            v.status for v in serial.verdicts
        ]
        assert any(d.code == "OL904" for d in report.diagnostics)
        assert report.fleet_summary is not None
        assert "degraded" in report.fleet_summary


def _cli(argv):
    """``oolong-check argv``'s exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


class TestStandingPool:
    def test_pool_serves_successive_coordinators(self):
        """One ``workers serve`` pool, two ``--fleet ADDR`` runs: the
        pool's workers rejoin the second run, whose report is serial's."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        path = os.path.join(EXAMPLES_DIR, "stack.oolong")
        serial = _cli([path])
        pool = WorkerPool(("127.0.0.1", port), jobs=2).start()
        served = 0
        try:
            for run in (1, 2):
                fleet = _cli(
                    [path, "--fleet", f"127.0.0.1:{port}", "--fleet-wait", "30"]
                )
                assert fleet == serial, run
                status = pool.status()
                assert status["workers"]["alive"] == 2, run
                assert status["jobs_served"] > served, run
                served = status["jobs_served"]
        finally:
            pool.stop()


def _processes_mentioning(needle: str):
    """Pids (other than ours) whose command line contains ``needle``."""
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
    def test_sigkill_coordinator_leaves_no_orphans(self, tmp_path):
        source = generate_impl_farm(8, 12)
        path = tmp_path / "farm.oolong"
        path.write_text(source)
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
                "--fleet",
                "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(1.2)
        process.send_signal(signal.SIGKILL)
        process.wait()
        # SIGKILL bypasses every coordinator cleanup hook, so the fleet
        # workers must notice the orphaning themselves (the parent-pid
        # watchdog) and exit promptly.
        deadline = time.monotonic() + 10.0
        while _processes_mentioning(str(path)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _processes_mentioning(str(path)), "orphaned fleet workers"


class TestMetricsParity:
    """Worker metrics merged at the coordinator equal a serial run's.

    Workers run the instrumented pipeline under their own registry and
    ship ``to_dict()`` home with each result; the coordinator merges it
    exactly once per decided job (stale results from reclaimed leases
    are dropped first) and records verdict/prover accounting only on its
    own side. So every counter that is not ``fleet.*`` bookkeeping — and
    every labelled counter — must agree exactly with a serial run of the
    same scope, even when injected frame corruption forces resyncs and
    lease reclaims. Timers are excluded: their counts agree but their
    wall-clock totals cannot.
    """

    @staticmethod
    def _measured(scope, **kwargs):
        from repro import obs

        tracer = obs.Tracer()
        with obs.tracing(tracer):
            report = check_scope(scope, LIMITS, **kwargs)
        counters = {
            name: value
            for name, value in tracer.metrics.counters.items()
            if not name.startswith("fleet.")
        }
        return report, counters, tracer.metrics.labelled

    def test_fleet_metrics_match_serial(self):
        scope = _farm_scope(5, 4)
        serial_report, serial_counts, serial_labels = self._measured(scope)
        fleet_report, fleet_counts, fleet_labels = self._measured(
            scope, fleet=_fast()
        )
        assert _canonical(fleet_report) == _canonical(serial_report)
        assert fleet_counts == serial_counts
        assert fleet_labels == serial_labels

    @pytest.mark.parametrize("seed", list(SEEDS)[:4])
    def test_fleet_metrics_survive_frame_corruption(self, seed):
        scope = _farm_scope()
        _, serial_counts, serial_labels = self._measured(scope)
        plan = FaultPlan.fuzz(seed, stages=("corrupt-frame",), max_hit=3)
        with inject(plan):
            report, fleet_counts, fleet_labels = self._measured(
                scope, fleet=_fast()
            )
        detail = f"seed {seed}: {plan.describe()}"
        assert all(
            job.status is ImplStatus.VERIFIED for job in report.verdicts
        ), detail
        assert fleet_counts == serial_counts, detail
        assert fleet_labels == serial_labels, detail

    def test_timer_counts_match_serial(self):
        scope = _farm_scope()
        _, serial_counts, _ = self._measured(scope)
        from repro import obs

        tracer = obs.Tracer()
        with obs.tracing(tracer):
            check_scope(scope, LIMITS, fleet=_fast())
        timer = tracer.metrics.timers.get("prover.check_seconds")
        assert timer is not None
        assert timer.count == serial_counts["prover.checks"]
