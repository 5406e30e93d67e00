"""Tests for modifies-list inference and licence coverage."""

from repro.analysis.effects import Outcome, discharge_scope
from repro.analysis.facts import impl_facts, scope_lattice
from repro.analysis.modifies import PathVal, infer_modifies
from repro.corpus.programs import (
    LINKED_LIST,
    RATIONAL,
    RATIONAL_OVERBROAD,
    SECTION5_FIRST,
    STACK_VECTOR,
)
from repro.api import check_program
from repro.oolong.ast import Designator
from repro.oolong.program import Scope


def inference(source):
    return infer_modifies(Scope.from_source(source))


class TestInference:
    def test_rational_infers_exact_writes(self):
        result = inference(RATIONAL)
        assert result.inferred["normalize"] == ("r.num", "r.den") or set(
            result.inferred["normalize"]
        ) == {"r.num", "r.den"}
        assert result.diagnostics == []

    def test_stack_vector_threads_callee_licences(self):
        result = inference(STACK_VECTOR)
        # push writes its own pivot and calls vec_add(s.vec)
        assert set(result.inferred["push"]) == {"s.vec", "s.vec.elems"}
        assert set(result.inferred["vec_add"]) == {"v.cnt", "v.data"}
        assert result.diagnostics == []

    def test_section5_path_requirement(self):
        result = inference(SECTION5_FIRST)
        assert set(result.inferred["p"]) == {"t.c.d.g"}
        assert result.diagnostics == []

    def test_recursive_scope_converges(self):
        result = inference(LINKED_LIST)
        assert set(result.inferred["updateAll"]) == {"t.value", "t.next.g"}
        assert result.diagnostics == []


class TestMissingLicence:
    def test_unlicensed_write_is_ol301(self):
        source = """
        group g
        field f in g
        proc p(t)
        impl p(t) { assume t != null ; t.f := 1 }
        """
        result = inference(source)
        assert [d.code for d in result.diagnostics] == ["OL301"]
        (d,) = result.diagnostics
        assert d.severity.value == "error" and "t.f" in d.message

    def test_unlicensed_call_is_ol301(self):
        source = """
        group g
        field f in g
        proc callee(u) modifies u.g
        impl callee(u) { assume u != null ; u.f := 1 }
        proc caller(t)
        impl caller(t) { callee(t) }
        """
        result = inference(source)
        assert [d.code for d in result.diagnostics] == ["OL301"]
        assert "callee" in result.diagnostics[0].message

    def test_fresh_object_writes_need_no_licence(self):
        # t.c := new() makes t.c fresh: writing t.c.d afterwards is free
        source = """
        field c
        field d
        proc p(t) modifies t.c
        impl p(t) { assume t != null ; t.c := new() ; t.c.d := 1 }
        """
        result = inference(source)
        assert result.diagnostics == []

    def test_call_through_fresh_owner_needs_no_licence(self):
        # q's licence s.a.b lands on the object in t.a, which p has just
        # allocated: the prover verifies p and discharge finds it valid,
        # so lint must not ask for t.a.b either.
        source = """
        group g
        field a in g
        field b
        proc q(s) modifies s.a.b
        proc p(t) modifies t.a
        impl p(t) { assume t != null ; t.a := new() ; q(t) }
        """
        assert inference(source).diagnostics == []
        report = check_program(source)
        assert report.ok and [v.status.name for v in report.verdicts] == [
            "VERIFIED"
        ]
        scope = Scope.from_source(source)
        assert discharge_scope(scope).outcome_of("p", 0) is Outcome.STATIC_VALID

    def test_call_kills_freshness(self):
        source = """
        field c
        field d
        proc other(u) modifies u.c
        impl other(u) { assume u != null ; u.c := null }
        proc p(t) modifies t.c
        impl p(t) { assume t != null ; t.c := new() ; other(t) ; t.c.d := 1 }
        """
        result = inference(source)
        assert [d.code for d in result.diagnostics] == ["OL301"]


class TestOverBroad:
    def test_unused_group_in_modifies_is_ol302(self):
        result = inference(RATIONAL_OVERBROAD)
        overbroad = [d for d in result.diagnostics if d.code == "OL302"]
        assert len(overbroad) == 1
        (d,) = overbroad
        assert "cache" in d.message and d.severity.value == "warning"
        # r.value stays: it is exercised by the writes to num/den
        assert "value" not in d.message.split("cache")[0] or "r.cache" in d.message

    def test_exact_lists_raise_nothing(self):
        assert inference(RATIONAL).diagnostics == []
        assert inference(STACK_VECTOR).diagnostics == []

    def test_interface_only_procs_are_skipped(self):
        # no impls: nothing to compare the declared list against
        source = "group g\nproc p(t) modifies t.g"
        assert inference(source).diagnostics == []


class TestCovers:
    def scope(self):
        return Scope.from_source(STACK_VECTOR)

    def test_reflexive(self):
        d = Designator("s", (), "contents")
        assert scope_lattice(self.scope()).covers(d, d)

    def test_group_membership(self):
        lattice = scope_lattice(self.scope())
        declared = Designator("v", (), "elems")
        assert lattice.covers(declared, Designator("v", (), "cnt"))
        assert lattice.covers(declared, Designator("v", (), "data"))
        assert not lattice.covers(declared, Designator("v", (), "vec"))

    def test_pivot_chain_steps_through_rep_inclusion(self):
        lattice = scope_lattice(self.scope())
        declared = Designator("s", (), "contents")
        # s.contents licenses s.vec (pivot in contents) and s.vec.cnt
        assert lattice.covers(declared, Designator("s", (), "vec"))
        assert lattice.covers(declared, Designator("s", ("vec",), "cnt"))
        assert not lattice.covers(declared, Designator("t", (), "vec"))

    def test_requirements_extracted_per_impl(self):
        scope = self.scope()
        (impl,) = scope.impls_of("push")
        required = {
            ".".join([value.root, *value.path, site.info.attr])
            for site in impl_facts(scope, impl).sites
            for value in site.values or ()
            if isinstance(value, PathVal)
        }
        assert required == {"s.vec", "s.vec.elems"}
        assert all(
            site.info.position is not None
            for site in impl_facts(scope, impl).sites
        )
