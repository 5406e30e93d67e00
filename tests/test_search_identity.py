"""Search identity: the prover's work on a fixed corpus is pinned exactly.

A prover refactor that claims to leave the search unchanged must
reproduce, for every implementation below, the verdict and every
:meth:`ProverStats.to_dict` counter except ``elapsed`` — merges,
matches, instantiations, rounds, branches, conflicts and the
per-quantifier tallies. The corpus is the ``examples/`` programs, the
paper's programs (without ``EX-3.0-client``, the slowest), 1-impl farms
at 12 and 24 fields, and one scope of each remaining generator kind of
the end-to-end ``prove-corpus`` workload.

It must also reproduce the ``--explain --explain-format json`` report of
every ``examples/*.oolong`` and ``examples/failing/*.oolong`` file, which
pins the countermodels of failed proofs and the proof logs (and their
replay) of successful ones.

The golden files were written by the code *before* such a refactor; when
a change deliberately alters the search, regenerate them and say why::

    PYTHONPATH=src python tests/test_search_identity.py --write
"""

import contextlib
import glob
import io
import json
import os
import sys
import tempfile

from repro.api import check_program
from repro.cli import main as cli_main
from repro.corpus.generators import (
    generate_call_chain,
    generate_deep_groups,
    generate_impl_farm,
    generate_pivot_tower,
    generate_wide_scope,
)
from repro.corpus.programs import PAPER_PROGRAMS
from repro.prover.core import Limits

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "search_identity.json")
EXPLAIN_GOLDEN = os.path.join(ROOT, "tests", "data", "explain_identity.json")

#: Generous enough that no budget is hit: a timeout would make the
#: counters depend on machine speed.
LIMITS = Limits(time_budget=300.0)


def corpus():
    """``(name, source)`` pairs, in a fixed order."""
    pattern = os.path.join(ROOT, "examples", "**", "*.oolong")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            yield os.path.relpath(path, ROOT), handle.read()
    for name, source in PAPER_PROGRAMS.items():
        if name != "EX-3.0-client":
            yield name, source
    yield "farm-1x12", generate_impl_farm(1, 12)
    yield "farm-1x24", generate_impl_farm(1, 24)
    yield "farm2-8", generate_impl_farm(2, 8)
    yield "wide-8", generate_wide_scope(8)
    yield "tower-3", generate_pivot_tower(3)
    yield "deep-12", generate_deep_groups(12)
    yield "chain-6", generate_call_chain(6)


def search_record(source):
    """Verdict and search counters of every implementation in ``source``."""
    report = check_program(source, LIMITS)
    rows = []
    for verdict in report.verdicts:
        stats = verdict.stats.to_dict()
        del stats["elapsed"]
        rows.append(
            {
                "impl": f"{verdict.impl.name}#{verdict.index}",
                "status": verdict.status.value,
                "stats": stats,
            }
        )
    return rows


def collect():
    return {name: search_record(source) for name, source in corpus()}


def explain_files():
    """The files whose ``--explain`` JSON is pinned, relative to the root."""
    paths = glob.glob(os.path.join(ROOT, "examples", "*.oolong"))
    paths += glob.glob(os.path.join(ROOT, "examples", "failing", "*.oolong"))
    return sorted(os.path.relpath(path, ROOT) for path in paths)


def explain_record(path):
    """The ``--explain --explain-format json`` report of one file.

    The report carries no timing fields, so it is compared whole.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "explain.json")
        argv = [
            path,
            "--explain",
            "--explain-format",
            "json",
            "--explain-out",
            out,
            "--time-budget",
            str(LIMITS.time_budget),
        ]
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(argv)
        finally:
            os.chdir(cwd)
        with open(out) as handle:
            return json.load(handle)


def collect_explanations():
    return {path: explain_record(path) for path in explain_files()}


def test_search_is_identical_to_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    current = collect()
    assert sorted(current) == sorted(golden)
    for name in golden:
        assert current[name] == golden[name], name


def test_explain_reports_are_identical_to_golden():
    with open(EXPLAIN_GOLDEN) as handle:
        golden = json.load(handle)
    current = collect_explanations()
    assert sorted(current) == sorted(golden)
    for path in golden:
        assert current[path] == golden[path], path
        for explanation in current[path]["explanations"]:
            if explanation["kind"] == "proof":
                assert explanation["proof"]["replay_ok"], path


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_search_identity.py --write")
    for target, payload in (
        (GOLDEN, collect()),
        (EXPLAIN_GOLDEN, collect_explanations()),
    ):
        with open(target, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(target, ROOT)}")
