"""Compare the ``-j 2`` event journals of two source trees.

Repeats the run behind ``tests/test_executor_parity.py``'s lifecycle
golden (a 4 × 4 farm on two workers) under each fuzzed supervisor fault plan
(``FaultPlan.fuzz`` seeds 0–5, ``worker-kill``/``worker-hang``) at
``max_retries`` 0 and 2, in each tree, and compares the journals record
by record: the same kinds, fields and values in the same order,
ignoring times, pids and run ids. Two workers interleave their jobs'
records in whatever order they finish, so each run is compared job by
job: every job's records must match in kind, fields, values and order.
Usage::

    python tests/journal_identity.py OLD_SRC NEW_SRC

where each argument is a tree's ``src`` directory. It exits 1 and prints
each job whose records differ.
"""

import json
import os
import re
import subprocess
import sys

SEEDS = range(0, 6)
RETRIES = (0, 2)

#: Record fields that vary from run to run of the same code: times,
#: pids and run ids, and the journal position and worker, which depend
#: on which of the two workers finishes first.
VOLATILE = ("t_mono", "t_wall", "run_id", "pid", "seq", "worker")

#: Death reasons carry the staleness a lost heartbeat was noticed at,
#: and a killed worker's death reads ``exit code 113`` or ``connection
#: lost (exit code 113)`` (or ``None``, before it is reaped) depending
#: on whether the loop polices it or reads its closed pipe first.
REASONS = (
    (re.compile(r"\(\d+\.\d+s stale\)"), "(Ns stale)"),
    (re.compile(r"^(connection lost \()?exit code \w+\)?$"), "exit code N"),
)


def _canonical(records):
    """``records`` grouped per job, each job's records in journal order.

    Jobs run side by side, so only the order within a job is fixed; a
    settled verdict's ``impl-checked`` record is grouped with its job by
    implementation. Records of no job (worker spawns, an idle worker's
    death) are left out: whether a dead worker is replaced depends on
    whether a job is still queued when its death is noticed.
    """
    jobs = {
        (r["impl"], r["index"]): r["job"]
        for r in records
        if r["event"] == "job-assigned"
    }
    streams = {}
    for record in records:
        key = (record.get("impl"), record.get("index"))
        job = record.get("job", jobs.get(key))
        if job is None:
            continue
        record = {k: v for k, v in record.items() if k not in VOLATILE}
        if isinstance(record.get("reason"), str):
            for pattern, text in REASONS:
                record["reason"] = pattern.sub(text, record["reason"])
        streams.setdefault(str(job), []).append(record)
    return streams


def _journal(seed, max_retries):
    # The lifecycle golden's run: a 4 × 4 farm, a one-second heartbeat
    # timeout, short backoffs and polls, every journal schema-checked.
    from test_executor_parity import _farm_scope, _run

    from repro.testing.faults import FaultPlan

    plan = FaultPlan.fuzz(seed, stages=("worker-kill", "worker-hang"))
    _, records = _run(
        _farm_scope(), plan, patience=1.0, max_retries=max_retries
    )
    return _canonical(records)


def _dump():
    runs = {
        f"{seed}-{retries}": _journal(seed, retries)
        for seed in SEEDS
        for retries in RETRIES
    }
    json.dump(runs, sys.stdout)


def _runs_of(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump"],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    return json.loads(out)


def main(argv):
    if argv == ["--dump"]:
        _dump()
        return 0
    if len(argv) != 2:
        sys.exit("usage: journal_identity.py OLD_SRC NEW_SRC")
    old, new = (_runs_of(src) for src in argv)
    differ = 0
    for run, streams in old.items():
        count = sum(len(records) for records in streams.values())
        if new.get(run) == streams:
            print(f"{run}: {count} records in {len(streams)} streams, identical")
            continue
        differ += 1
        for job in sorted(set(streams) | set(new.get(run, {}))):
            a, b = streams.get(job, []), new.get(run, {}).get(job, [])
            if a != b:
                print(f"{run}: job {job} differs")
                print("  old:", a)
                print("  new:", b)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
