"""The scope-owned analysis cache (``repro.analysis.facts``).

Lint and static discharge share one inclusion lattice and one call graph
per scope, and one CFG and one access-path pass per implementation.
These tests hold that sharing to *exactly once* by counting, not by
timing, and check that the cache belongs to its scope: never pickled,
re-derived identically after unpickling, and not inherited by
``Scope.extend``. (That ``-j`` checks still match serial ones
is held by ``tests/test_pipeline.py``, which compares every backend's
report.)
"""

import gc
import pickle
import weakref

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG
from repro.analysis.effects import discharge_scope
from repro.analysis.engine import lint_scope
from repro.analysis.facts import (
    ImplFacts,
    impl_facts,
    scope_call_graph,
    scope_lattice,
)
from repro.analysis.escape import PivotEscapeAnalysis
from repro.analysis.inclusion import InclusionLattice
from repro.analysis.lints import ReachabilityAnalysis
from repro.analysis.modifies import AccessPathAnalysis, PathVal
from repro.api import check_program
from repro.corpus.generators import generate_impl_farm
from repro.oolong.ast import (
    Assign,
    Choice,
    FieldAccess,
    Id,
    ImplDecl,
    IntConst,
    Seq,
    VarCmd,
)
from repro.oolong.parser import parse_program_text
from repro.oolong.program import Scope
from tests.test_static_identity import _discharge_record, corpus


def _count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a function attribute)."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _static_results(scope):
    lint = lint_scope(scope)
    return (
        [d.to_dict() for d in lint.diagnostics],
        lint.inferred_modifies,
        _discharge_record(scope),
    )


@pytest.mark.parametrize("impls", [10, 100])
def test_each_fact_is_derived_once_per_check(monkeypatch, impls):
    source = generate_impl_farm(impls, 4)
    cfgs = _count_calls(monkeypatch, CFG, "__init__")
    passes = _count_calls(monkeypatch, AccessPathAnalysis, "initial_state")
    transfers = {
        analysis: _count_calls(monkeypatch, analysis, "transfer")
        for analysis in (
            AccessPathAnalysis,
            PivotEscapeAnalysis,
            ReachabilityAnalysis,
        )
    }
    graphs = _count_calls(monkeypatch, CallGraph, "__init__")
    lattices = _count_calls(monkeypatch, InclusionLattice, "__init__")
    site_lists = _count_calls(monkeypatch, ImplFacts, "_build_sites")
    covers = _count_calls(monkeypatch, InclusionLattice, "covers")

    report = check_program(source, static_discharge="on")

    assert report.ok
    assert report.discharge_summary["impls"]["static-valid"] == impls
    assert len(cfgs) == impls
    assert len(passes) == impls
    # Each analysis makes one forward pass over every body: one transfer
    # per statement, and the access-path states are kept, not recomputed.
    statements = sum(
        len(block.stmts)
        for (cfg, *_rest) in cfgs
        for block in cfg.blocks.values()
    )
    assert {
        analysis.__name__: len(calls) for analysis, calls in transfers.items()
    } == {
        "AccessPathAnalysis": statements,
        "PivotEscapeAnalysis": statements,
        "ReachabilityAnalysis": statements,
    }
    assert len(graphs) == 1
    assert len(lattices) == 1
    # Lint and discharge read one site list per implementation.
    assert len(site_lists) == impls
    # Coverage is decided once per named licence and frame designator,
    # on the site: OL301, OL302 and discharge all read that answer. Each
    # farm body writes t.f0 .. t.f3 under the one designator t.data.
    assert len(covers) == 4 * impls


class _NoWalk(tuple):
    def __iter__(self):
        raise AssertionError("attribute_names walked the declarations")


@pytest.mark.parametrize("impls", [10, 100])
def test_attribute_names_does_not_walk_declarations(impls):
    scope = Scope.from_source(generate_impl_farm(impls, 4))
    names = scope.attribute_names()
    assert names == ("data", "f0", "f1", "f2", "f3")
    scope._decls = _NoWalk(scope._decls)
    assert scope.attribute_names() is names


def _fill_cache(scope):
    scope_lattice(scope)
    scope_call_graph(scope)
    for impls in scope.impls.values():
        for impl in impls:
            impl_facts(scope, impl).sites
    return scope.analysis_facts


def test_pickled_scope_carries_no_analysis_cache():
    scope = Scope.from_source(generate_impl_farm(3, 2))
    facts = _fill_cache(scope)
    data = pickle.dumps(scope)
    for name in ("ScopeFacts", "ImplFacts", "InclusionLattice", "CallGraph", "CFG"):
        assert name.encode() not in data
    assert pickle.loads(data).analysis_facts is None
    assert scope.analysis_facts is facts  # pickling left the original alone


@pytest.mark.parametrize(
    "filename,source",
    [(filename, source) for _name, filename, source in corpus()],
    ids=[name for name, _filename, _source in corpus()],
)
def test_unpickled_scope_rederives_identical_results(filename, source):
    scope = Scope.from_source(source, filename)
    first = _static_results(scope)
    copied = pickle.loads(pickle.dumps(scope))
    assert copied.analysis_facts is None
    assert _static_results(copied) == first


def test_extended_scope_starts_with_an_empty_cache():
    scope = Scope.from_source(generate_impl_farm(2, 2))
    lattice = scope_lattice(scope)
    extra = parse_program_text(
        "field g in data\nproc more(t) modifies t.data\n"
        "impl more(t) { assume t != null ; t.g := 1 }"
    )
    extended = scope.extend(extra)
    assert extended.analysis_facts is None
    assert scope_lattice(extended) is not lattice
    assert scope_lattice(extended).locally_covers("data", "g")
    assert not lattice.locally_covers("data", "g")
    impl = extended.impls_of("more")[0]
    (write,) = [site.node for site in impl_facts(extended, impl).sites]
    assert impl_facts(extended, impl).state_at(write) is not None


def test_a_dropped_scope_is_freed_without_the_cycle_collector():
    """Nothing in the cache refers back to its scope, so dropping the
    scope frees scope and cache at once."""
    scope = Scope.from_source(generate_impl_farm(3, 2))
    gc.disable()
    try:
        lint_scope(scope)
        discharge_scope(scope)
        _fill_cache(scope)
        dropped = weakref.ref(scope)
        del scope
        assert dropped() is None
    finally:
        gc.enable()


def test_state_at_joins_a_node_reused_in_two_places():
    """A programmatic AST may put one node object on two paths; its state
    is the join of both in-states, not the last one replayed."""
    write = Assign(FieldAccess(Id("x"), "f"), IntConst(1))
    body = VarCmd(
        "x",
        Choice(
            (
                Seq((Assign(Id("x"), FieldAccess(Id("t"), "a")), write)),
                Seq((Assign(Id("x"), FieldAccess(Id("t"), "b")), write)),
            )
        ),
    )
    lattice = InclusionLattice(Scope.from_source("field a\nfield b\nfield f"))
    facts = ImplFacts(ImplDecl("p", ("t",), body), {}, lattice)
    state = facts.state_at(write)
    assert state.locals_map()["x"] == frozenset(
        {PathVal("t", ("a",)), PathVal("t", ("b",))}
    )
