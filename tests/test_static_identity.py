"""Static-path identity: lint and discharge results are pinned exactly.

A refactor of the static analyses (``lint_scope`` and
``discharge_scope``) that claims to leave their results unchanged must
reproduce, for every scope below:

* every ``lint_scope`` diagnostic, rendered as JSON (code, severity,
  message, position, notes), and the inferred modifies lists;
* every implementation's ``discharge_scope`` outcome, per-obligation
  decisions, blame and blame notes, in both discharge modes, plus the
  effect summaries and the scope's interface hash.

The corpus is every ``examples/**/*.oolong`` file, the paper's programs,
one scope per generator, and a 100-impl farm and a 150-link call chain
carrying the end-to-end benchmark's planted mutants
(``e2ebench/inputs.py``'s ``plant``).

The golden file was written by the code *before* such a refactor; when
a change deliberately alters a static result, regenerate it and say
why::

    PYTHONPATH=src python tests/test_static_identity.py --write
"""

import glob
import importlib.util
import json
import os
import sys

from repro.analysis.effects import (
    discharge_scope,
    scope_interface_hash,
    violation_diagnostic,
)
from repro.analysis.engine import lint_scope
from repro.corpus.generators import (
    generate_benign_copies,
    generate_call_chain,
    generate_deep_groups,
    generate_impl_farm,
    generate_pivot_tower,
    generate_wide_scope,
)
from repro.corpus.programs import PAPER_PROGRAMS, RATIONAL_OVERBROAD
from repro.oolong.program import Scope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "static_identity.json")


def _plant():
    """The benchmark's mutant planter, loaded from its file (the bench
    directory is not a package)."""
    path = os.path.join(ROOT, "e2ebench", "inputs.py")
    name = "_e2ebench_inputs"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module.plant


def corpus():
    """``(name, filename, source)`` triples, in a fixed order."""
    pattern = os.path.join(ROOT, "examples", "**", "*.oolong")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            name = os.path.relpath(path, ROOT)
            yield name, name, handle.read()
    for name, source in PAPER_PROGRAMS.items():
        yield name, None, source
    yield "RATIONAL_OVERBROAD", None, RATIONAL_OVERBROAD
    yield "wide-8", None, generate_wide_scope(8)
    yield "deep-12", None, generate_deep_groups(12)
    yield "tower-4", None, generate_pivot_tower(4)
    yield "benign-5", None, generate_benign_copies(5)
    yield "farm-3x4", None, generate_impl_farm(3, 4)
    yield "chain-6", None, generate_call_chain(6)

    plant = _plant()
    source = generate_impl_farm(100, 8)
    for target in ("job7", "job63"):
        source, _ = plant(source, {}, target)
    yield "farm-100x8-mutants", None, source
    source = generate_call_chain(150)
    for target, opaque in (("p17", True), ("p88", False)):
        source, _ = plant(source, {}, target, opaque_assume=opaque)
    yield "chain-150-mutants", None, source


def _discharge_record(scope, mode):
    try:
        result = discharge_scope(scope, mode=mode)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    impls = []
    for (proc_name, index), entry in result.impls.items():
        row = {
            "impl": f"{proc_name}#{index}",
            "outcome": entry.outcome.value,
            "decisions": [decision.to_dict() for decision in entry.decisions],
        }
        if entry.reason:
            row["reason"] = entry.reason
        if entry.error is not None:
            row["error"] = entry.error
        if entry.blame is not None:
            row["blame"] = entry.blame.to_dict()
            row["blame_diagnostic"] = violation_diagnostic(
                scope, entry, entry.blame
            ).to_dict()
        impls.append(row)
    return {
        "impls": impls,
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "summaries": {
            name: {"opaque": summary.opaque, "writes": list(summary.render())}
            for name, summary in sorted(result.summaries.items())
        },
        "summary": result.summary_dict(),
    }


def static_record(filename, source):
    """Lint and discharge results of one scope, as plain JSON data."""
    scope = Scope.from_source(source, filename)
    lint = lint_scope(scope)
    record = {
        "lint": [d.to_dict() for d in lint.diagnostics],
        "inferred_modifies": {
            name: list(designators)
            for name, designators in sorted(lint.inferred_modifies.items())
        },
        "discharge": _discharge_record(scope, "on"),
        "discharge_strict": _discharge_record(scope, "strict"),
    }
    try:
        record["interface_hash"] = scope_interface_hash(scope)
    except Exception as exc:
        record["interface_hash"] = f"{type(exc).__name__}: {exc}"
    return record


def collect():
    return {
        name: static_record(filename, source)
        for name, filename, source in corpus()
    }


def test_static_results_are_identical_to_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    current = json.loads(json.dumps(collect()))
    assert sorted(current) == sorted(golden)
    for name in golden:
        assert current[name] == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_static_identity.py --write")
    # One compact line per scope: the farm and chain records are large.
    lines = [
        f"{json.dumps(name)}: "
        + json.dumps(record, sort_keys=True, separators=(",", ":"))
        for name, record in sorted(collect().items())
    ]
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {os.path.relpath(GOLDEN, ROOT)}")
