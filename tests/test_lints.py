"""Tests for the lint passes, the call graph, and the lint engine."""

from repro.analysis.callgraph import CallGraph, check_recursion
from repro.analysis.engine import lint_program, lint_scope
from repro.analysis.lints import check_unreachable_code, check_unused_declarations
from repro.corpus.programs import (
    LINKED_LIST,
    ONCE_TWICE,
    RATIONAL,
    SECTION3_CLIENT,
    SECTION3_LEAKING_M,
    STACK_VECTOR,
)
from repro.oolong.program import Scope


def codes(diags):
    return [d.code for d in diags]


class TestUnusedDeclarations:
    def test_unused_group_and_field(self):
        source = """
        group used
        group dusty
        field f in used
        field ghost
        proc p(t) modifies t.used
        impl p(t) { assume t != null ; t.f := 1 }
        """
        diags = check_unused_declarations(Scope.from_source(source))
        assert sorted(codes(diags)) == ["OL201", "OL202"]
        messages = " ".join(d.message for d in diags)
        assert "dusty" in messages and "ghost" in messages

    def test_paper_programs_have_no_unused_decls(self):
        for source in (RATIONAL, STACK_VECTOR, LINKED_LIST):
            assert check_unused_declarations(Scope.from_source(source)) == []

    def test_group_used_only_in_modifies_counts(self):
        source = "group g\nproc p(t) modifies t.g"
        assert check_unused_declarations(Scope.from_source(source)) == []


class TestUnreachable:
    def test_code_after_assume_false(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g
        impl p(t) { assume false ; t.f := 1 }
        """
        diags = check_unreachable_code(Scope.from_source(source))
        assert codes(diags) == ["OL203"]

    def test_code_after_assert_false(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g
        impl p(t) { assert false ; t.f := 1 }
        """
        diags = check_unreachable_code(Scope.from_source(source))
        assert codes(diags) == ["OL203"]

    def test_one_live_branch_keeps_join_reachable(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g
        impl p(t) {
          ( assume false ; skip [] assume t != null ; skip ) ;
          t.f := 1
        }
        """
        assert check_unreachable_code(Scope.from_source(source)) == []

    def test_dead_region_entering_a_choice_is_reported_at_the_first_arm(self):
        source = (
            "group g\nfield f in g\nproc p(t) modifies t.g\n"
            "impl p(t) { assume t != null ; assume false ; "
            "( t.f := 1 [] t.f := 2 ) }"
        )
        diags = check_unreachable_code(Scope.from_source(source))
        assert codes(diags) == ["OL203"]
        # ``t.f := 1``, the first arm, in source order.
        assert str(diags[0].position) == "4:49"

    def test_paper_programs_fully_reachable(self):
        for source in (RATIONAL, STACK_VECTOR, LINKED_LIST):
            assert check_unreachable_code(Scope.from_source(source)) == []


class TestCallGraph:
    def test_edges_and_reachability(self):
        graph = CallGraph(Scope.from_source(STACK_VECTOR))
        assert graph.callees("push") == frozenset({"vec_add"})
        assert "vec_add" in graph.reachable_from("push")
        assert graph.call_site("push", "vec_add") is not None
        assert graph.callees("vec_add") == frozenset()

    def test_self_recursion_cycle(self):
        graph = CallGraph(Scope.from_source(LINKED_LIST))
        assert graph.cycles() == [("updateAll",)]

    def test_acyclic_scope_has_no_cycles(self):
        assert CallGraph(Scope.from_source(ONCE_TWICE)).cycles() == []

    def test_recursion_lint_is_info(self):
        diags = check_recursion(Scope.from_source(LINKED_LIST))
        assert codes(diags) == ["OL204"]
        assert diags[0].severity.value == "info"
        assert "updateAll" in diags[0].message

    def test_mutual_recursion_detected(self):
        source = """
        group g
        proc a(t) modifies t.g
        proc b(t) modifies t.g
        impl a(t) { assume t != null ; b(t) }
        impl b(t) { assume t != null ; a(t) }
        """
        diags = check_recursion(Scope.from_source(source))
        assert codes(diags) == ["OL204"]
        assert "a -> b -> a" in diags[0].message


class TestEngine:
    def test_clean_program(self):
        result = lint_program(RATIONAL)
        assert result.ok and result.diagnostics == []
        assert "normalize" in result.inferred_modifies

    def test_all_passes_compose(self):
        result = lint_program(SECTION3_CLIENT + SECTION3_LEAKING_M)
        got = set(codes(result.diagnostics))
        # syntactic pivot-read + flow escape at least
        assert {"OL102", "OL110"} <= got
        assert not result.ok
        assert result.errors and result.by_code("OL110")

    def test_passes_can_be_disabled(self):
        result = lint_program(
            SECTION3_CLIENT + SECTION3_LEAKING_M,
            include_restrictions=False,
            include_flow=False,
        )
        assert "OL102" not in codes(result.diagnostics)
        assert "OL110" not in codes(result.diagnostics)

    def test_ill_formed_short_circuits_to_ol100(self):
        result = lint_program("field f in nowhere")
        assert codes(result.diagnostics) == ["OL100"]
        assert not result.ok

    def test_diagnostics_come_back_sorted(self):
        result = lint_program(SECTION3_CLIENT + SECTION3_LEAKING_M)
        lines = [d.position.line for d in result.diagnostics if d.position]
        assert lines == sorted(lines)
