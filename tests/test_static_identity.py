"""Static-path identity: lint and discharge results are pinned exactly.

A refactor of the static analyses (``lint_scope`` and
``discharge_scope``) that claims to leave their results unchanged must
reproduce, for every scope below:

* every ``lint_scope`` diagnostic, rendered as JSON (code, severity,
  message, position, notes), and the inferred modifies lists;
* every implementation's ``discharge_scope`` outcome, per-obligation
  decisions, blame and blame notes;
* every implementation's verification condition (after the contract
  desugaring): the sha256 of its goal's printed text, and its
  obligation list.

The corpus is every ``examples/**/*.oolong`` file, the paper's programs,
one scope per generator, a scope of ``[]`` chains, write-heavy scopes (a
24-field wide scope, a 1 × 48 farm, and writes around calls and ``var``
blocks), and a 100-impl farm and a 150-link call chain carrying the
end-to-end benchmark's planted mutants (``e2ebench/inputs.py``'s
``plant``).

The golden file was written by the code *before* such a refactor; when
a change deliberately alters a static result, regenerate it and say
why::

    PYTHONPATH=src python tests/test_static_identity.py --write
"""

import dataclasses
import glob
import hashlib
import importlib.util
import json
import os
import sys

from repro.analysis.effects import discharge_scope, violation_diagnostic
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
from repro.logic.printer import format_formula
from repro.oolong.contracts import desugar_contracts
from repro.oolong.program import Scope
from repro.vcgen.vc import vc_for_impl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "static_identity.json")

#: ``[]`` chains of three and eight arms, both nestings, chains inside
#: ``var`` and ``if``, arms that write through different access paths
#: or call a procedure with a contract, and arms that read pivot fields
#: into one local before a heap store (the join picks the leak path).
CHOICE_CHAINS = """\
group contents
group elems
field cnt in elems
field data in elems
field vec in contents maps elems into contents
field aux in contents maps elems into contents
field obj
field f
field g
field next
proc vec_add(v) modifies v.elems
impl vec_add(v) {
  assume v != null ;
  v.cnt := v.cnt + 1 ;
  v.data := 0
}
proc bump(t) modifies t.f requires t != null ensures t.f > 0
impl bump(t) {
  t.f := 1
}
proc three(s) modifies s.contents
impl three(s) {
  assume s != null ;
  ( s.vec := new() [] assume s.vec != null ; vec_add(s.vec) [] skip )
}
proc eight(t) modifies t.f
impl eight(t) {
  assume t != null ;
  t.f := 0 [] t.f := 1 [] t.f := 2 [] t.f := 3 []
  t.f := 4 [] t.f := 5 [] bump(t) [] t.f := 7 ;
  assert t.f >= 0
}
proc left_nested(t) modifies t.f, t.g
impl left_nested(t) {
  assume t != null ;
  ( t.f := 1 [] t.g := 2 ) [] t.f := 3
}
proc right_nested(t) modifies t.f
impl right_nested(t) {
  assume t != null ;
  t.f := 1 [] ( t.g := 2 [] t.f := 3 )
}
proc in_var(t) modifies t.f
impl in_var(t) {
  assume t != null ;
  var u in
    ( u := t [] u := t.next [] u := new() ) ;
    assume u != null ;
    u.f := 1
  end
}
proc in_if(t, b) modifies t.f, t.g
impl in_if(t, b) {
  assume t != null ;
  if b = 1 then t.f := 1 [] t.g := 2 [] bump(t) else t.g := 0 end
}
proc leak(s, r) modifies r.obj
impl leak(s, r) {
  assume s != null ;
  assume r != null ;
  var tmp in
    ( tmp := 0
      [] var u in u := s.vec ; tmp := u end
      [] tmp := s.vec
      [] tmp := r.vec
      [] tmp := s.aux ) ;
    r.obj := tmp
  end
}
"""

#: Writes before and after calls and ``var`` blocks, so the store
#: substitution of each write crosses call frame quantifiers and local
#: binders: two sequential blocks bind the same local, and a write that
#: stores it crosses the later block (capture-avoiding renaming).
WRITES_AROUND_CALLS = """\
group data
field f in data
field g in data
field h in data
proc touch(t) modifies t.data
impl touch(t) {
  assume t != null ;
  t.f := 1
}
proc mixed(t, u) modifies t.data, u.data
impl mixed(t, u) {
  assume t != null ;
  assume u != null ;
  t.f := 1 ;
  t.g := 2 ;
  touch(t) ;
  var x in
    x := t.f ;
    u.f := x ;
    var y in
      y := new() ;
      y.g := 3 ;
      t.h := y.g ;
      touch(u)
    end ;
    u.g := x
  end ;
  t.f := 4 ;
  var x in
    x := u.g ;
    touch(t) ;
    t.g := x ;
    u.h := x + 1
  end ;
  touch(u) ;
  u.h := 5 ;
  assert t.g = u.g
}
"""


def e2ebench_inputs():
    """The end-to-end benchmark's input module, loaded from its file (the
    bench directory is not a package)."""
    path = os.path.join(ROOT, "e2ebench", "inputs.py")
    name = "_e2ebench_inputs"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def _plant():
    """The benchmark's mutant planter."""
    return e2ebench_inputs().plant


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
    yield "choice-chains", None, CHOICE_CHAINS
    yield "wide-24", None, generate_wide_scope(24)
    yield "farm-1x48", None, generate_impl_farm(1, 48)
    yield "writes-around-calls", None, WRITES_AROUND_CALLS

    plant = _plant()
    source = generate_impl_farm(100, 8)
    for target in ("job7", "job63"):
        source, _ = plant(source, {}, target)
    yield "farm-100x8-mutants", None, source
    source = generate_call_chain(150)
    for target, opaque in (("p17", True), ("p88", False)):
        source, _ = plant(source, {}, target, opaque_assume=opaque)
    yield "chain-150-mutants", None, source


def _discharge_record(scope):
    try:
        result = discharge_scope(scope)
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
        "summary": result.summary_dict(),
    }


def _vc_record(scope):
    try:
        scope = desugar_contracts(scope)
        impls = []
        for proc_name, bodies in scope.impls.items():
            for index, impl in enumerate(bodies):
                bundle = vc_for_impl(scope, impl)
                goal = format_formula(bundle.goal).encode("utf-8")
                impls.append(
                    {
                        "impl": f"{proc_name}#{index}",
                        "goal": hashlib.sha256(goal).hexdigest(),
                        "obligations": [
                            dataclasses.asdict(info) for info in bundle.obligations
                        ],
                    }
                )
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return impls


def static_record(filename, source):
    """Lint, discharge and VC results of one scope, as plain JSON data."""
    scope = Scope.from_source(source, filename)
    lint = lint_scope(scope)
    return {
        "lint": [d.to_dict() for d in lint.diagnostics],
        "inferred_modifies": {
            name: list(designators)
            for name, designators in sorted(lint.inferred_modifies.items())
        },
        "discharge": _discharge_record(scope),
        "vc": _vc_record(scope),
    }


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
