"""Cache-key identity: every ``cache_key`` digest is pinned exactly.

Result-cache entries and run-ledger records are both addressed by
:func:`repro.parallel.cache.cache_key`. A change to how keys are
computed that claims to leave them unchanged must reproduce, byte for
byte, the key of every implementation of every scope below — with the
default limits and with one non-default :class:`Limits` — or existing
caches stop hitting and existing ledgers stop replaying.

The corpus is the static-identity corpus (every ``examples/**/*.oolong``
file, the paper's programs, one scope per generator, and the
end-to-end benchmark's planted farm and chain) plus the 100-impl scope
of the benchmark's ``edit-recheck`` session
(``e2ebench/inputs.py``'s ``EditSession``). The static corpus's scope
of ``[]`` chains is left out: a key hashes the printed body, and its
chains of three or more arms printed one pair of parentheses per binary
node before ``Choice`` was one flat node.

The golden file was written by the code *before* such a change. Keys
embed the code version, so a deliberate version bump (or any change
meant to invalidate old entries) regenerates it, and says why::

    PYTHONPATH=src:. python tests/test_cache_keys.py --write
"""

import json
import os
import sys

from repro.oolong.program import Scope
from repro.parallel.cache import cache_key
from repro.prover.core import Limits
from tests.test_static_identity import ROOT, corpus, e2ebench_inputs

GOLDEN = os.path.join(ROOT, "tests", "data", "cache_keys.json")

#: Every verdict-relevant field off its default.
LIMITS = Limits(
    max_instances=1234,
    max_rounds=9,
    max_depth=77,
    max_branches=4321,
    max_matches_per_round=321,
    time_budget=7.5,
    max_instance_width=2,
    escalation_bonus=1,
)


def key_corpus():
    """``(name, filename, source)`` triples, in a fixed order."""
    for name, filename, source in corpus():
        if name != "choice-chains":
            yield name, filename, source
    yield "edit-session-1", None, e2ebench_inputs().EditSession(1).case("base").source


def scope_keys(filename, source):
    """Every implementation's key, with default and non-default limits."""
    scope = Scope.from_source(source, filename)
    record = {}
    for label, limits in (("default", None), ("limits", LIMITS)):
        record[label] = {
            f"{proc_name}#{index}": cache_key(scope, impl, index, limits)
            for proc_name, impls in scope.impls.items()
            for index, impl in enumerate(impls)
        }
    return record


def collect():
    return {
        name: scope_keys(filename, source)
        for name, filename, source in key_corpus()
    }


def test_cache_keys_are_identical_to_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    current = collect()
    assert sorted(current) == sorted(golden)
    for name in golden:
        assert current[name] == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cache_keys.py --write")
    lines = [
        f"{json.dumps(name)}: "
        + json.dumps(record, sort_keys=True, separators=(",", ":"))
        for name, record in sorted(collect().items())
    ]
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {os.path.relpath(GOLDEN, ROOT)}")
