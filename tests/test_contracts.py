"""Tests for requires/ensures contracts and their paper-recipe desugaring."""

import pytest

from repro.api import check_program, parse_program
from repro.errors import WellFormednessError
from repro.oolong.ast import (
    Assert,
    Assign,
    Assume,
    BinOp,
    Call,
    Id,
    IntConst,
    NullConst,
    ProcDecl,
    Seq,
)
from repro.oolong.contracts import desugar_contracts, subst_expr
from repro.oolong.parser import parse_expression, parse_program_text
from repro.oolong.pretty import pretty_program
from repro.oolong.program import Scope
from repro.prover.core import Limits
from repro.semantics.interp import OutcomeKind, explore_program

LIMITS = Limits(time_budget=120.0)


class TestParsing:
    def test_requires_clause(self):
        (decl,) = parse_program_text("proc p(t) requires t != null")
        assert decl.requires == (parse_expression("t != null"),)
        assert decl.has_contract

    def test_ensures_clause(self):
        (decl,) = parse_program_text("proc p(t) ensures t != null")
        assert decl.ensures == (parse_expression("t != null"),)

    def test_all_clauses_in_any_order(self):
        (decl,) = parse_program_text(
            "group g\nproc p(t) requires t != null modifies t.g ensures true "
            "requires 1 < 2"
        )[1:]
        assert len(decl.requires) == 2
        assert len(decl.ensures) == 1
        assert len(decl.modifies) == 1

    def test_round_trip(self):
        source = (
            "group g\n"
            "proc p(t) modifies t.g requires t != null ensures t != null"
        )
        decls = parse_program_text(source)
        assert parse_program_text(pretty_program(decls)) == decls

    def test_plain_proc_has_no_contract(self):
        (decl,) = parse_program_text("proc p(t)")
        assert not decl.has_contract


class TestWellFormedness:
    def test_contract_may_use_params_and_fields(self):
        scope = parse_program(
            "field f\nproc p(t) requires t.f = 1 ensures t != null"
        )
        assert scope.proc("p").has_contract

    def test_contract_may_not_use_unknown_variable(self):
        with pytest.raises(WellFormednessError):
            parse_program("proc p(t) requires u != null")

    def test_contract_may_not_use_undeclared_field(self):
        with pytest.raises(WellFormednessError):
            parse_program("proc p(t) requires t.ghost = 1")


class TestSubstExpr:
    def test_substitutes_identifiers(self):
        expr = parse_expression("t.f = u + 1")
        result = subst_expr(expr, {"t": Id("a"), "u": IntConst(5)})
        assert result == parse_expression("a.f = 5 + 1")

    def test_leaves_unmapped_names(self):
        expr = parse_expression("t = v")
        assert subst_expr(expr, {"t": NullConst()}) == parse_expression("null = v")


class TestDesugaring:
    SOURCE = """
    field f
    proc p(t) requires t != null ensures t.f = 1
    impl p(t) { t.f := 1 }
    proc caller(u)
    impl caller(u) { p(u) ; assert u.f = 1 }
    """

    def test_impl_gains_assume_and_assert(self):
        scope = desugar_contracts(Scope.from_source(self.SOURCE))
        (impl,) = scope.impls_of("p")
        # assume t != null ; (body) ; assert t.f = 1
        assert isinstance(impl.body, Seq)
        pre, body, post = impl.body.cmds
        assert isinstance(pre, Assume) and isinstance(post, Assert)
        assert isinstance(body, Assign)

    def test_call_sites_gain_assert_and_assume_with_actuals(self):
        scope = desugar_contracts(Scope.from_source(self.SOURCE))
        (impl,) = scope.impls_of("caller")
        # assert u != null ; p(u) ; assume u.f = 1 ; assert u.f = 1: the
        # rewritten call leads the body, so it is spliced in.
        pre, call, post, check = impl.body.cmds
        assert isinstance(pre, Assert)
        assert pre.condition == parse_expression("u != null")
        assert isinstance(call, Call)
        assert isinstance(post, Assume)
        assert post.condition == parse_expression("u.f = 1")
        assert isinstance(check, Assert)

    def test_contracts_removed_from_procs(self):
        scope = desugar_contracts(Scope.from_source(self.SOURCE))
        assert not scope.proc("p").has_contract

    def test_contract_free_scope_returned_unchanged(self):
        scope = Scope.from_source("proc p(t)\nimpl p(t) { skip }")
        assert desugar_contracts(scope) is scope

    def test_desugared_scope_is_well_formed(self):
        from repro.oolong.wellformed import check_well_formed

        scope = desugar_contracts(Scope.from_source(self.SOURCE))
        check_well_formed(scope)


class TestStaticChecking:
    def test_postcondition_verified_from_body(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g requires t != null ensures t.f = 1
        impl p(t) { t.f := 1 }
        """
        report = check_program(source, LIMITS)
        assert report.ok, report.describe()

    def test_broken_postcondition_rejected(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g requires t != null ensures t.f = 1
        impl p(t) { t.f := 2 }
        """
        report = check_program(source, LIMITS)
        assert not report.ok

    def test_trivial_precondition_follows_from_init(self):
        # The paper's Init (5) assumes alive($0, t) for every formal, so a
        # bare non-nullness precondition is discharged automatically.
        source = """
        group g
        field f in g
        proc p(t) modifies t.g requires t != null
        impl p(t) { assume t != null ; t.f := 1 }
        proc caller(u) modifies u.g
        impl caller(u) { p(u) }
        """
        report = check_program(source, LIMITS)
        assert report.verdict_for("caller").ok

    def test_caller_must_establish_precondition(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g requires t.f = 1
        impl p(t) { assume t.f = 1 ; t.f := 1 }
        proc caller(u) modifies u.g
        impl caller(u) { p(u) }
        """
        report = check_program(source, LIMITS)
        # caller knows nothing about u.f, so `assert u.f = 1` is unprovable.
        assert not report.verdict_for("caller").ok

    def test_caller_may_rely_on_postcondition(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g requires t != null ensures t.f = 1
        impl p(t) { t.f := 1 }
        proc caller(u) modifies u.g requires u != null
        impl caller(u) { p(u) ; assert u.f = 1 }
        """
        report = check_program(source, LIMITS)
        assert report.verdict_for("caller").ok, report.describe()


class TestRuntimeChecking:
    def test_violated_precondition_fails_at_call_site(self):
        source = """
        field f
        proc p(t) requires t != null
        impl p(t) { skip }
        proc main()
        impl main() { p(null) }
        """
        outcomes = explore_program(parse_program(source), "main")
        assert [o.kind for o in outcomes] == [OutcomeKind.WRONG_ASSERT]

    def test_violated_postcondition_fails_in_impl(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g requires t != null ensures t.f = 1
        impl p(t) { t.f := 2 }
        proc main()
        impl main() { var a in a := new() ; p(a) end }
        """
        outcomes = explore_program(parse_program(source), "main")
        assert [o.kind for o in outcomes] == [OutcomeKind.WRONG_ASSERT]

    def test_honoured_contract_runs_normally(self):
        source = """
        group g
        field f in g
        proc p(t) modifies t.g requires t != null ensures t.f = 1
        impl p(t) { t.f := 1 }
        proc main()
        impl main() { var a in a := new() ; p(a) ; assert a.f = 1 end }
        """
        outcomes = explore_program(parse_program(source), "main")
        assert [o.kind for o in outcomes] == [OutcomeKind.NORMAL]
