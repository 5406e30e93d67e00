"""Search identity: the prover's work on a fixed corpus is pinned exactly.

A prover refactor that claims to leave the search unchanged must
reproduce, for every implementation below, the verdict and every
:meth:`ProverStats.to_dict` counter except ``elapsed`` — merges,
matches, instantiations, rounds, branches, conflicts and the
per-quantifier tallies. The corpus is the ``examples/`` programs, the
paper's programs (without ``EX-3.0-client``, the slowest) and a 1-impl
x 12-field farm.

The golden file was written by the code *before* such a refactor; when a
change deliberately alters the search, regenerate it and say why::

    PYTHONPATH=src python tests/test_search_identity.py --write
"""

import glob
import json
import os
import sys

from repro.api import check_program
from repro.corpus.generators import generate_impl_farm
from repro.corpus.programs import PAPER_PROGRAMS
from repro.prover.core import Limits

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "search_identity.json")

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


def test_search_is_identical_to_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    current = collect()
    assert sorted(current) == sorted(golden)
    for name in golden:
        assert current[name] == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_search_identity.py --write")
    with open(GOLDEN, "w") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN, ROOT)}")
