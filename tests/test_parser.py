"""Unit tests for the oolong parser, including round-trips via the printer."""

import random

import pytest

from repro.errors import ParseError
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    BinOp,
    BoolConst,
    Call,
    Choice,
    Designator,
    FieldAccess,
    FieldDecl,
    GroupDecl,
    Id,
    ImplDecl,
    IntConst,
    MapsClause,
    NullConst,
    ProcDecl,
    Seq,
    Skip,
    UnOp,
    VarCmd,
    choice,
    sequence,
)
from repro.oolong.parser import parse_command, parse_expression, parse_program_text
from repro.oolong.pretty import pretty_cmd, pretty_expr, pretty_program


class TestDeclarations:
    def test_group_without_in(self):
        (decl,) = parse_program_text("group contents")
        assert decl == GroupDecl("contents")

    def test_group_with_in_list(self):
        (decl,) = parse_program_text("group g in h, k")
        assert decl == GroupDecl("g", ("h", "k"))

    def test_field_plain(self):
        (decl,) = parse_program_text("field cnt")
        assert decl == FieldDecl("cnt")
        assert not decl.is_pivot

    def test_field_with_in(self):
        (decl,) = parse_program_text("field num in value")
        assert decl == FieldDecl("num", ("value",))

    def test_field_with_maps_is_pivot(self):
        (decl,) = parse_program_text("field vec maps elems into contents")
        assert decl == FieldDecl("vec", (), (MapsClause("elems", ("contents",)),))
        assert decl.is_pivot

    def test_field_with_in_and_multiple_maps(self):
        (decl,) = parse_program_text(
            "field f in a, b maps x into g maps y into h, k"
        )
        assert decl.in_groups == ("a", "b")
        assert decl.maps == (
            MapsClause("x", ("g",)),
            MapsClause("y", ("h", "k")),
        )

    def test_proc_no_modifies(self):
        (decl,) = parse_program_text("proc q()")
        assert decl == ProcDecl("q", ())

    def test_proc_with_modifies(self):
        (decl,) = parse_program_text("proc push(st, o) modifies st.contents")
        assert decl == ProcDecl(
            "push", ("st", "o"), (Designator("st", (), "contents"),)
        )

    def test_proc_with_deep_designator(self):
        (decl,) = parse_program_text("proc p(t) modifies t.c.d.g")
        assert decl.modifies == (Designator("t", ("c", "d"), "g"),)

    def test_proc_with_multiple_designators(self):
        (decl,) = parse_program_text("proc m(a, b) modifies a.g, b.f.h")
        assert decl.modifies == (
            Designator("a", (), "g"),
            Designator("b", ("f",), "h"),
        )

    def test_designator_requires_selector(self):
        with pytest.raises(ParseError):
            parse_program_text("proc p(t) modifies t")

    def test_impl(self):
        (decl,) = parse_program_text("impl q() { skip }")
        assert decl == ImplDecl("q", (), Skip())

    def test_impl_with_params_and_body(self):
        (decl,) = parse_program_text("impl m(st, r) { r.obj := st.vec }")
        assert decl == ImplDecl(
            "m",
            ("st", "r"),
            Assign(FieldAccess(Id("r"), "obj"), FieldAccess(Id("st"), "vec")),
        )

    def test_unknown_declaration_keyword(self):
        with pytest.raises(ParseError):
            parse_program_text("module m")


class TestCommands:
    def test_assert(self):
        assert parse_command("assert x = y") == Assert(BinOp("=", Id("x"), Id("y")))

    def test_assume(self):
        assert parse_command("assume t != null") == Assume(
            BinOp("!=", Id("t"), NullConst())
        )

    def test_var(self):
        cmd = parse_command("var x in x := 1 end")
        assert cmd == VarCmd("x", Assign(Id("x"), IntConst(1)))

    def test_nested_var(self):
        cmd = parse_command("var x in var y in skip end end")
        assert cmd == VarCmd("x", VarCmd("y", Skip()))

    def test_assign_local(self):
        assert parse_command("x := 3") == Assign(Id("x"), IntConst(3))

    def test_assign_field(self):
        cmd = parse_command("t.value := t.value + 1")
        target = FieldAccess(Id("t"), "value")
        assert cmd == Assign(target, BinOp("+", target, IntConst(1)))

    def test_assign_new_local(self):
        assert parse_command("st := new()") == AssignNew(Id("st"))

    def test_assign_new_field(self):
        assert parse_command("s.vec := new()") == AssignNew(
            FieldAccess(Id("s"), "vec")
        )

    def test_seq_is_left_associative(self):
        # One flat node; a leading parenthesized sequence is spliced in,
        # a later one keeps its parentheses.
        cmd = parse_command("skip ; skip ; skip")
        assert cmd == Seq((Skip(), Skip(), Skip()))
        assert parse_command("(skip ; skip) ; skip") == cmd
        assert parse_command("skip ; (skip ; skip)") == Seq(
            (Skip(), Seq((Skip(), Skip())))
        )

    def test_choice_binds_looser_than_seq(self):
        cmd = parse_command("skip ; skip [] skip")
        assert cmd == Choice((Seq((Skip(), Skip())), Skip()))

    def test_parenthesized_command(self):
        cmd = parse_command("skip ; (skip [] skip)")
        assert cmd == Seq((Skip(), Choice((Skip(), Skip()))))

    def test_choice_chain_is_one_flat_node(self):
        # A leading parenthesized choice is spliced in, a later one
        # keeps its parentheses.
        chain = Choice((Skip(), Assume(Id("b")), Assert(Id("c"))))
        assert parse_command("skip [] assume b [] assert c") == chain
        assert parse_command("(skip [] assume b) [] assert c") == chain
        nested = parse_command("skip [] (assume b [] assert c)")
        assert nested == Choice((Skip(), Choice((Assume(Id("b")), Assert(Id("c"))))))
        assert parse_command(pretty_cmd(nested)) == nested
        assert parse_command(pretty_cmd(chain)) == chain

    def test_call_no_args(self):
        assert parse_command("q()") == Call("q", ())

    def test_call_with_args(self):
        assert parse_command("push(st, 3)") == Call("push", (Id("st"), IntConst(3)))

    def test_call_with_designator_arg(self):
        assert parse_command("w(st, st.vec)") == Call(
            "w", (Id("st"), FieldAccess(Id("st"), "vec"))
        )

    def test_if_desugars_to_paper_encoding(self):
        cmd = parse_command("if b then x := 1 else x := 2 end")
        expected = Choice(
            (
                Seq((Assume(UnOp("!", Id("b"))), Assign(Id("x"), IntConst(2)))),
                Seq((Assume(Id("b")), Assign(Id("x"), IntConst(1)))),
            )
        )
        assert cmd == expected

    def test_assignment_target_must_be_designator(self):
        with pytest.raises(ParseError):
            parse_command("1 := x")

    def test_assignment_target_parenthesized_rejected(self):
        with pytest.raises(ParseError):
            parse_command("(x) := y")


class TestExpressions:
    def test_constants(self):
        assert parse_expression("null") == NullConst()
        assert parse_expression("true") == BoolConst(True)
        assert parse_expression("false") == BoolConst(False)
        assert parse_expression("7") == IntConst(7)

    def test_field_access_chains_left(self):
        expr = parse_expression("t.c.d")
        assert expr == FieldAccess(FieldAccess(Id("t"), "c"), "d")

    def test_precedence_mul_over_add(self):
        expr = parse_expression("a + b * c")
        assert expr == BinOp("+", Id("a"), BinOp("*", Id("b"), Id("c")))

    def test_precedence_add_over_compare(self):
        expr = parse_expression("a + 1 = b")
        assert expr == BinOp("=", BinOp("+", Id("a"), IntConst(1)), Id("b"))

    def test_precedence_compare_over_and(self):
        expr = parse_expression("a = b && c != d")
        assert expr == BinOp(
            "&&", BinOp("=", Id("a"), Id("b")), BinOp("!=", Id("c"), Id("d"))
        )

    def test_precedence_and_over_or(self):
        expr = parse_expression("a && b || c")
        assert expr == BinOp("||", BinOp("&&", Id("a"), Id("b")), Id("c"))

    def test_unary_not(self):
        assert parse_expression("!x") == UnOp("!", Id("x"))

    def test_unary_minus(self):
        assert parse_expression("-x + y") == BinOp("+", UnOp("-", Id("x")), Id("y"))

    def test_parentheses_override(self):
        expr = parse_expression("(a + b) * c")
        assert expr == BinOp("*", BinOp("+", Id("a"), Id("b")), Id("c"))

    def test_comparison_non_associative(self):
        with pytest.raises(ParseError):
            parse_expression("a = b = c")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b c")


class TestRoundTrips:
    PROGRAMS = [
        "group value\nfield num in value\nfield den in value\n"
        "proc normalize(r) modifies r.value",
        "group contents\ngroup elems\n"
        "field vec maps elems into contents\n"
        "proc push(s, o) modifies s.contents",
        "group g\nfield value in g\nfield next maps g into g\n"
        "proc updateAll(t) modifies t.g\n"
        "impl updateAll(t) { assume t != null ; t.value := t.value + 1 }",
    ]

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_program_round_trip(self, source):
        decls = parse_program_text(source)
        printed = pretty_program(decls)
        assert parse_program_text(printed) == decls

    COMMANDS = [
        "assert n = v.cnt",
        "var st in st := new() ; push(st, 3) end",
        "skip ; (x := 1 [] x := 2) ; assert x < 3",
        "t.value := t.value + 1",
    ]

    @pytest.mark.parametrize("source", COMMANDS)
    def test_command_round_trip(self, source):
        cmd = parse_command(source)
        assert parse_command(pretty_cmd(cmd)) == cmd

    EXPRESSIONS = [
        "a + b * c",
        "(a + b) * c",
        "!(a = b) && c != null",
        "a - b - c",
        "a || b && !c",
        "x.f.g + 1 < y.h",
    ]

    @pytest.mark.parametrize("source", EXPRESSIONS)
    def test_expression_round_trip(self, source):
        expr = parse_expression(source)
        assert parse_expression(pretty_expr(expr)) == expr


_NAMES = ("a", "b", "t", "x", "_v", "é")
_BINARY_OPS = ("||", "&&", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*")


def random_expr(rng, depth=4):
    """A random expression tree over every operator and primary."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return rng.choice(
            (
                lambda: Id(rng.choice(_NAMES)),
                lambda: IntConst(rng.randrange(100)),
                lambda: BoolConst(rng.random() < 0.5),
                NullConst,
            )
        )()
    if roll < 0.4:
        return UnOp(rng.choice("!-"), random_expr(rng, depth - 1))
    if roll < 0.5:
        return FieldAccess(random_expr(rng, depth - 1), rng.choice(("f", "g")))
    return BinOp(
        rng.choice(_BINARY_OPS), random_expr(rng, depth - 1), random_expr(rng, depth - 1)
    )


def random_cmd(rng, depth=3):
    """A random command tree over every command form."""
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        target = Id(rng.choice(_NAMES))
        for _ in range(rng.randrange(3)):
            target = FieldAccess(target, rng.choice(("f", "g")))
        return rng.choice(
            (
                lambda: Assert(random_expr(rng, 2)),
                lambda: Assume(random_expr(rng, 2)),
                Skip,
                lambda: Assign(target, random_expr(rng, 2)),
                lambda: AssignNew(target),
                lambda: Call(
                    "p", tuple(random_expr(rng, 2) for _ in range(rng.randrange(3)))
                ),
            )
        )()
    if roll < 0.6:
        return VarCmd(rng.choice(_NAMES), random_cmd(rng, depth - 1))
    if roll < 0.8:
        return sequence(
            [random_cmd(rng, depth - 1) for _ in range(rng.randrange(2, 5))]
        )
    return choice([random_cmd(rng, depth - 1) for _ in range(rng.randrange(2, 6))])


class TestRandomRoundTrips:
    """``parse(pretty(tree)) == tree`` on seeded random trees: the
    printer's minimal parentheses pin the parser's precedence and
    associativity, and one comparison per ``Cmp`` operand."""

    def test_expressions(self):
        rng = random.Random(7)
        for _ in range(10000):
            expr = random_expr(rng)
            assert parse_expression(pretty_expr(expr)) == expr, pretty_expr(expr)

    def test_commands(self):
        rng = random.Random(11)
        for _ in range(3000):
            cmd = random_cmd(rng)
            assert parse_command(pretty_cmd(cmd)) == cmd, pretty_cmd(cmd)
