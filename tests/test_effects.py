"""Tests for the interprocedural effect analyzer (``repro.analysis.effects``
and ``repro.analysis.inclusion``).

Covers the static-discharge PR's analysis layer:

* the obligation enumerator is a faithful mirror of wlp — same
  obligations, same order, same descriptions — on every example and on
  the generator corpora (the soundness cornerstone: a misaligned index
  would discharge the wrong obligation);
* the precomputed inclusion lattice — the only ``covers`` decision
  procedure in the checker — decides ``covers`` exactly like the
  scanning procedure it replaced, kept here as the reference oracle;
* cyclic rep inclusions (``field next maps g into g``) terminate and
  agree with the runtime inclusion monitor;
* SCC condensation order, self/mutual recursion, and missing (opaque)
  implementations in the summary fixpoint;
* per-declaration interface hashes: stable across recomputation,
  sensitive to interface changes.
"""

import glob
import os

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.effects import (
    Outcome,
    compute_summaries,
    discharge_scope,
    enumerate_obligations,
    interface_hashes,
    scope_interface_hash,
)
from repro.analysis.inclusion import InclusionLattice
from repro.analysis.modifies import covers
from repro.corpus.generators import (
    generate_call_chain,
    generate_deep_groups,
    generate_impl_farm,
    generate_pivot_tower,
)
from repro.corpus.programs import STACK_VECTOR
from repro.oolong.ast import Designator
from repro.oolong.contracts import desugar_contracts
from repro.oolong.program import Scope
from repro.semantics.inclusion import included_locations
from repro.semantics.store import RuntimeStore
from repro.vcgen.vc import vc_for_impl

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def example_sources():
    paths = sorted(
        glob.glob(os.path.join(EXAMPLES_DIR, "*.oolong"))
    ) + sorted(glob.glob(os.path.join(EXAMPLES_DIR, "failing", "*.oolong")))
    assert paths, "example corpus is empty"
    return [(os.path.basename(p), open(p).read()) for p in paths]


CORPUS = example_sources() + [
    ("impl_farm", generate_impl_farm(6, fields=4)),
    ("call_chain", generate_call_chain(5)),
    ("pivot_tower", generate_pivot_tower(4)),
]


# ----------------------------------------------------------------------
# Obligation enumeration mirrors wlp
# ----------------------------------------------------------------------


class TestObligationMirror:
    @pytest.mark.parametrize("name,source", CORPUS)
    def test_same_obligations_same_order(self, name, source):
        """For every implementation, the static enumerator must produce
        the exact ObligationInfo sequence vcgen registers — idents,
        kinds, descriptions, positions, everything."""
        scope = desugar_contracts(Scope.from_source(source))
        checked = 0
        for impls in scope.impls.values():
            for impl in impls:
                proc = scope.proc(impl.name)
                bundle = vc_for_impl(scope, impl)
                assert (
                    enumerate_obligations(scope, proc, impl)
                    == bundle.obligations
                ), f"obligation mismatch for {impl.name} in {name}"
                checked += 1
        assert checked, f"{name} has no implementations"


# ----------------------------------------------------------------------
# The inclusion lattice agrees with a scanning reference
# ----------------------------------------------------------------------


SCOPES = {
    "stack": """
group contents
group elems
field cnt in elems
field data in elems
field vec in contents maps elems into contents
field other
""",
    "nested": """
group outer
group inner in outer
field f in inner
field g
""",
    "cyclic": """
group g
field val in g
field next in g maps g into g
""",
    "diamond": """
group a
group b in a
group c in a
field f in b
field f2 in c
field p in a maps b into a
field q in a maps c into b
""",
}


#: Scopes the differential runs on: the hand-written ones above, a deep
#: local-inclusion tower, a pivot tower and the paper's stack/vector.
DIFFERENTIAL_SCOPES = dict(
    SCOPES,
    **{
        "deep-12": generate_deep_groups(12),
        "tower-4": generate_pivot_tower(4),
        "STACK_VECTOR": STACK_VECTOR,
    },
)


def _scan_closure(scope, groups):
    """All attributes locally included (``≽``) in any of ``groups``, by a
    scan of every declared attribute."""
    covered = set()
    for attr in scope.attribute_names():
        for group in groups:
            if scope.local_includes(group, attr):
                covered.add(attr)
                break
    return covered


def _scan_covers(scope, declared, required):
    """Reference oracle: ``declared = r.p1...pk.a`` covers ``required =
    r.p1...pk.q1...qm.b`` when stepping the attribute set from ``a``
    through the rep inclusions of the pivots ``q1...qm`` still locally
    includes ``b``, every closure recomputed by a scan (the checker's
    decision procedure before the inclusion lattice)."""
    if declared.root != required.root:
        return False
    if len(declared.path) > len(required.path):
        return False
    if tuple(required.path[: len(declared.path)]) != tuple(declared.path):
        return False
    attrs = _scan_closure(scope, {declared.attr})
    for field_name in required.path[len(declared.path):]:
        stepped = {
            mapped
            for group, mapped in scope.rep_pairs(field_name)
            if group in attrs
        }
        if not stepped:
            return False
        attrs = _scan_closure(scope, stepped)
    return required.attr in attrs


def all_designators(scope, max_path=2):
    attrs = list(scope.attribute_names())
    fields = [a for a in attrs if scope.is_field(a)]
    out = []
    for root in ("x", "y"):
        for attr in attrs:
            out.append(Designator(root, (), attr))
            for f1 in fields:
                out.append(Designator(root, (f1,), attr))
                if max_path >= 2:
                    for f2 in fields:
                        out.append(Designator(root, (f1, f2), attr))
    return out


class TestLatticeCovers:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SCOPES))
    def test_covers_matches_reference(self, name):
        """Every pair of designators up to path length 2 — the lattice,
        and ``modifies.covers`` over it, against the scanning oracle."""
        scope = Scope.from_source(DIFFERENTIAL_SCOPES[name])
        lattice = InclusionLattice(scope)
        designators = all_designators(scope)
        covered = 0
        for declared in designators:
            for required in designators:
                expected = _scan_covers(scope, declared, required)
                assert lattice.covers(declared, required) == expected, (
                    f"{declared} vs {required} in {name}"
                )
                assert covers(scope, declared, required) == expected
                covered += expected
        # Not vacuous: some pairs are covered, most are not.
        assert 0 < covered < len(designators) ** 2

    def test_downward_is_reflexive(self):
        scope = Scope.from_source(SCOPES["stack"])
        lattice = InclusionLattice(scope)
        for attr in scope.attribute_names():
            assert attr in lattice.downward(attr)

    def test_writable_fields_follow_pivots(self):
        scope = Scope.from_source(SCOPES["stack"])
        lattice = InclusionLattice(scope)
        writable = lattice.writable_fields([Designator("s", (), "contents")])
        # contents ≽ vec, and vec pivots into elems ≽ {cnt, data}.
        assert writable == frozenset({"vec", "cnt", "data"})
        assert "other" not in writable


# ----------------------------------------------------------------------
# Cyclic rep inclusions (the Simplify-divergence scope family)
# ----------------------------------------------------------------------


class TestCyclicRepInclusion:
    def test_reachability_terminates_and_is_closed(self):
        scope = Scope.from_source(SCOPES["cyclic"])
        lattice = InclusionLattice(scope)
        reach = lattice.reachable("g")
        # The cycle g -next-> g keeps folding back onto the same finite set.
        assert reach == frozenset({"g", "val", "next"})

    def test_static_closure_matches_runtime_monitor(self):
        """On a store where the pivot cycles back to its own holder, the
        runtime monitor's attribute projection must equal the static
        closure — the analyzer may not under- or over-shoot the monitor
        on the scope family the paper reports divergence for."""
        scope = Scope.from_source(SCOPES["cyclic"])
        lattice = InclusionLattice(scope)
        store = RuntimeStore()
        obj = store.allocate()
        store.write(obj, "next", obj)
        runtime = included_locations(scope, store, obj, "g")
        assert {attr for _, attr in runtime} == set(lattice.reachable("g"))
        # Every runtime location stays on the single object of the cycle.
        assert {holder for holder, _ in runtime} == {obj}

    def test_static_overapproximates_chain_store(self):
        """On an acyclic two-object chain, the runtime attrs are a subset
        of the static closure (the static side ignores the store)."""
        scope = Scope.from_source(SCOPES["cyclic"])
        lattice = InclusionLattice(scope)
        store = RuntimeStore()
        first, second = store.allocate(), store.allocate()
        store.write(first, "next", second)
        runtime = included_locations(scope, store, first, "g")
        assert {attr for _, attr in runtime} <= set(lattice.reachable("g"))

    def test_cyclic_scope_discharges_without_divergence(self):
        """The whole discharge pipeline runs on a cyclic-rep scope — the
        in-frame write is statically valid, no fixpoint spins."""
        scope = Scope.from_source(
            SCOPES["cyclic"]
            + """
proc touch(o) modifies o.g
impl touch(o) {
  assume o != null ;
  o.val := 1
}
"""
        )
        result = discharge_scope(scope)
        assert result.outcome_of("touch", 0) is Outcome.STATIC_VALID


# ----------------------------------------------------------------------
# SCC condensation and the summary fixpoint
# ----------------------------------------------------------------------


def graph_of(edges):
    graph = CallGraph.__new__(CallGraph)
    graph.edges = {name: frozenset(succ) for name, succ in edges.items()}
    return graph


class TestSccs:
    def test_singletons_emitted_callees_first(self):
        graph = graph_of({"a": ("b",), "b": ("c",), "c": ()})
        order = graph.sccs()
        assert order == [("c",), ("b",), ("a",)]

    def test_mutual_recursion_is_one_component(self):
        graph = graph_of({"a": ("b",), "b": ("a",), "c": ("a",)})
        order = graph.sccs()
        assert ("a", "b") in order
        assert order.index(("a", "b")) < order.index(("c",))

    def test_cycles_unchanged_by_generalization(self):
        graph = graph_of({"a": ("b",), "b": ("a",), "c": ("c",), "d": ()})
        assert graph.cycles() == [("a", "b"), ("c",)]


RECURSIVE = """
group g
field f in g
proc self_rec(o) modifies o.g
impl self_rec(o) {
  assume o != null ;
  o.f := 1 ;
  self_rec(o)
}
"""

MUTUAL = """
group g
field f in g
proc ping(o) modifies o.g
proc pong(o) modifies o.g
impl ping(o) {
  assume o != null ;
  o.f := 1 ;
  pong(o)
}
impl pong(o) {
  assume o != null ;
  ping(o)
}
"""

OPAQUE_CALLEE = """
group g
field f in g
proc helper(o) modifies o.g
proc driver(o) modifies o.g
impl driver(o) {
  assume o != null ;
  helper(o)
}
"""


class TestSummaries:
    def test_self_recursion_reaches_fixpoint(self):
        scope = desugar_contracts(Scope.from_source(RECURSIVE))
        summaries = compute_summaries(scope, CallGraph(scope))
        summary = summaries["self_rec"]
        assert not summary.opaque
        assert Designator("o", (), "f") in summary.writes

    def test_mutual_recursion_reaches_fixpoint(self):
        scope = desugar_contracts(Scope.from_source(MUTUAL))
        summaries = compute_summaries(scope, CallGraph(scope))
        for name in ("ping", "pong"):
            assert not summaries[name].opaque
            assert Designator("o", (), "f") in summaries[name].writes

    def test_recursive_impls_still_discharge(self):
        """Recursion is not a soundness cliff: the write and the
        recursive call are both within the declared frame."""
        for source in (RECURSIVE, MUTUAL):
            scope = Scope.from_source(source)
            result = discharge_scope(scope)
            for (name, index), entry in result.impls.items():
                assert entry.outcome in (
                    Outcome.STATIC_VALID,
                    Outcome.UNKNOWN,
                ), (name, index, entry.reason)

    def test_missing_impl_is_opaque(self):
        scope = desugar_contracts(Scope.from_source(OPAQUE_CALLEE))
        summaries = compute_summaries(scope, CallGraph(scope))
        assert summaries["helper"].opaque

    def test_strict_never_validates_through_opaque_callee(self):
        """Under strict mode a caller of an implementation-less procedure
        must not be STATIC_VALID — there is no summary to trust."""
        scope = Scope.from_source(OPAQUE_CALLEE)
        result = discharge_scope(scope, mode="strict")
        assert result.outcome_of("driver", 0) is not Outcome.STATIC_VALID


# ----------------------------------------------------------------------
# Interface hashes
# ----------------------------------------------------------------------


class TestInterfaceHashes:
    SOURCE = """
group g
field f in g
proc bump(o) modifies o.g
impl bump(o) {
  assume o != null ;
  o.f := 1
}
"""

    def test_stable_across_recomputation(self):
        scope = desugar_contracts(Scope.from_source(self.SOURCE))
        graph = CallGraph(scope)
        first = interface_hashes(scope, compute_summaries(scope, graph))
        second = interface_hashes(scope, compute_summaries(scope, graph))
        assert first == second
        assert scope_interface_hash(scope) == scope_interface_hash(scope)

    def test_sensitive_to_interface_change(self):
        base = desugar_contracts(Scope.from_source(self.SOURCE))
        widened = desugar_contracts(
            Scope.from_source(self.SOURCE.replace("field f in g", "field f"))
        )
        h1 = interface_hashes(base, compute_summaries(base, CallGraph(base)))
        h2 = interface_hashes(
            widened, compute_summaries(widened, CallGraph(widened))
        )
        assert h1["f"] != h2["f"]
        assert scope_interface_hash(base) != scope_interface_hash(widened)
