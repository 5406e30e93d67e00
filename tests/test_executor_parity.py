"""The ``-j`` executor's job lifecycle under faults.

The supervisor (:mod:`repro.parallel.supervisor`) decides every job's
outcome, so a fault must play out the same way every time:

* **Scope-budget expiry** — a job still running when the budget runs out
  reports the serial driver's mid-check ``OL901`` wording and a
  ``job-deadline`` record, never a hard job timeout; every
  ``job-deadline`` record names the implementation it cancelled.
* **Seeded worker faults** — for fuzzed ``worker-kill``/``worker-hang``
  plans (CI sweeps seed windows via ``FAULT_SEED_OFFSET``), each job
  gets the retry, quarantine, hard-timeout and deadline record counts,
  the final status and the OL9xx code that
  ``tests/data/supervisor_lifecycle.json`` records. That golden was
  written when a second executor, a socket fleet, still existed and
  produced the same lifecycle for every plan in it. Quarantine messages
  embed death reasons ("exit code 113"), so codes are compared, not
  text.
"""

import json
import os
import sys
import time
from collections import Counter

import pytest

from repro import obs
from repro.corpus.generators import generate_impl_farm
from repro.obs.analyze import analyze_journal, render_report_text
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel import ParallelOptions, run_parallel_checks
from repro.prover.core import Limits
from repro.testing.faults import Fault, FaultPlan, inject
from repro.vcgen.checker import ImplStatus, _deadline_diagnostic

LIMITS = Limits(time_budget=60.0)

SEED_OFFSET = int(os.environ.get("FAULT_SEED_OFFSET", "0"))
SEEDS = range(SEED_OFFSET, SEED_OFFSET + 6)

#: The job-lifecycle records whose per-job counts are compared.
LIFECYCLE = ("job-retry", "job-quarantined", "job-hard-timeout", "job-deadline")

#: The supervisor's lifecycle per fuzzed plan, over every CI
#: ``FAULT_SEED_OFFSET`` window; regenerate with
#: ``PYTHONPATH=src python tests/test_executor_parity.py --write``.
GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "supervisor_lifecycle.json"
)
GOLDEN_SEEDS = (*range(0, 6), *range(100, 106), *range(200, 206))
GOLDEN_RETRIES = (0, 2)


def _farm_scope(impls=4, fields=4):
    scope = Scope.from_source(generate_impl_farm(impls, fields))
    check_well_formed(scope)
    return scope


def _run(scope, plan, *, patience, max_retries=2, budget=None):
    """Run ``scope`` on ``-j 2`` under ``plan``; return its jobs and
    journal records.

    ``patience`` is the supervisor's heartbeat timeout: how long a
    silent worker may go unnoticed. ``budget`` (seconds from now) sets a
    scope deadline.
    """
    deadline = None if budget is None else time.monotonic() + budget
    journal = obs.EventJournal()
    with obs.journaling(journal), inject(plan):
        outcome = run_parallel_checks(
            scope,
            LIMITS,
            options=ParallelOptions(
                jobs=2,
                max_retries=max_retries,
                heartbeat_timeout=patience,
                backoff_base=0.01,
                poll_interval=0.02,
            ),
            scope_deadline=deadline,
        )
    assert obs.validate_event_journal(journal.records) == []
    return outcome.jobs, journal.records


def _hang(*jobs):
    return FaultPlan(tuple(Fault("worker-hang", "raise", hit=j) for j in jobs))


class TestScopeBudget:
    BUDGET = 0.5

    def test_running_job_gets_the_serial_mid_check_wording(self):
        # Job 0 freezes; a heartbeat clock far beyond the budget leaves
        # the scope deadline as the only thing that can stop it.
        scope = _farm_scope()
        jobs, records = _run(
            scope, _hang(0), patience=30.0, budget=self.BUDGET
        )
        hung = jobs[0]
        assert hung.verdict.status is ImplStatus.TIMED_OUT
        assert hung.verdict.error.code == "OL901"
        assert hung.verdict.error.message == (
            _deadline_diagnostic(hung.impl, before=False).message
        )
        kinds = Counter(record["event"] for record in records)
        assert kinds["job-hard-timeout"] == 0
        assert any(
            record["event"] == "job-deadline" and record["job"] == 0
            for record in records
        )

    def test_cancelled_job_is_journaled_with_its_worker(self):
        # Job 0 freezes and is still running when the budget runs out:
        # its deadline and verdict records name the worker and attempt
        # it was assigned, so the report closes that worker's interval
        # with the verdict.
        scope = _farm_scope()
        jobs, records = _run(
            scope, _hang(0), patience=30.0, budget=self.BUDGET
        )
        hung = jobs[0]
        (assigned,) = [
            r for r in records if r["event"] == "job-assigned" and r["job"] == 0
        ]
        for kind in ("job-deadline", "impl-checked"):
            (record,) = [
                r
                for r in records
                if r["event"] == kind
                and (r["impl"], r["index"]) == (hung.impl.name, hung.impl_index)
            ]
            assert record["worker"] == assigned["worker"], kind
            assert record["attempt"] == assigned["attempt"], kind
        chain = analyze_journal(records)["critical_path"]["chain"]
        (link,) = [link for link in chain if link["impl"] == hung.impl.name]
        assert (link["worker"], link["status"], link["code"]) == (
            assigned["worker"],
            "timed_out",
            "OL901",
        )

    def test_every_deadline_record_names_its_implementation(self):
        # Both workers freeze, so jobs 2 and 3 are still queued when the
        # budget runs out: the before-check and the mid-check records.
        scope = _farm_scope()
        jobs, records = _run(
            scope, _hang(0, 1), patience=30.0, budget=self.BUDGET
        )
        for job in jobs:
            assert job.verdict.status is ImplStatus.TIMED_OUT
            # Jobs 0 and 1 froze mid-check, unless a worker had not taken
            # one yet; 2 and 3 never started.
            phases = (True,) if job.job_id >= 2 else (True, False)
            assert job.verdict.error.message in {
                _deadline_diagnostic(job.impl, before=b).message
                for b in phases
            }
        report = analyze_journal(records)
        incidents = [
            incident
            for incident in report["faults"]["incidents"]
            if incident["event"] == "job-deadline"
        ]
        assert {(i["impl"], i["index"]) for i in incidents} == {
            (job.impl.name, job.impl_index) for job in jobs
        }
        assert "job-deadline  -" not in render_report_text(report)


def _lifecycle(jobs, records):
    """Per job: its lifecycle record counts, final status and OL9xx code."""
    counts = Counter(
        (record["job"], record["event"])
        for record in records
        if record["event"] in LIFECYCLE
    )
    return [
        (
            tuple(counts[(job.job_id, kind)] for kind in LIFECYCLE),
            job.verdict.status.name,
            job.verdict.error.code if job.verdict.error is not None else None,
        )
        for job in jobs
    ]


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


class TestFaultParity:
    @pytest.mark.parametrize("max_retries", GOLDEN_RETRIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_worker_faults_play_out_alike(self, seed, max_retries):
        expected = _golden()[f"{seed}-{max_retries}"]
        assert _golden_record(seed, max_retries) == expected, expected["plan"]


def _golden_record(seed, max_retries):
    plan = FaultPlan.fuzz(seed, stages=("worker-kill", "worker-hang"))
    jobs, records = _run(
        _farm_scope(), plan, patience=1.0, max_retries=max_retries
    )
    return {
        "plan": plan.describe(),
        "jobs": json.loads(json.dumps(_lifecycle(jobs, records))),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_executor_parity.py --write")
    lines = [
        f'"{seed}-{retries}": '
        + json.dumps(_golden_record(seed, retries), separators=(",", ":"))
        for seed in GOLDEN_SEEDS
        for retries in GOLDEN_RETRIES
    ]
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {os.path.relpath(GOLDEN)}")
