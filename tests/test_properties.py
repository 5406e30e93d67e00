"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.logic.nnf import FreshNames, negate, skolemize, to_nnf
from repro.logic.subst import formula_free_vars, subst_formula
from repro.logic.terms import (
    And,
    App,
    Const,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    IntLit,
    Not,
    Or,
    Pred,
    TrueF,
    Var,
)
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    BinOp,
    BoolConst,
    Call,
    FieldAccess,
    Id,
    IntConst,
    NullConst,
    Skip,
    UnOp,
    VarCmd,
    choice,
    sequence,
)
from repro.oolong.parser import parse_command, parse_expression, parse_program_text
from repro.oolong.pretty import pretty_cmd, pretty_expr, pretty_program
from repro.prover.egraph import EGraph

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4).filter(
    lambda s: s
    not in {
        "group", "field", "proc", "impl", "in", "maps", "into", "modifies",
        "assert", "assume", "var", "end", "new", "if", "then", "else",
        "skip", "null", "true", "false",
    }
)


def exprs(depth=3):
    base = st.one_of(
        st.builds(NullConst),
        st.builds(BoolConst, st.booleans()),
        st.builds(IntConst, st.integers(min_value=0, max_value=99)),
        st.builds(Id, names),
    )
    if depth == 0:
        return base
    sub = exprs(depth - 1)
    return st.one_of(
        base,
        st.builds(FieldAccess, sub, names),
        st.builds(
            BinOp,
            st.sampled_from(["+", "-", "*", "=", "!=", "<", "<=", ">", ">=", "&&", "||"]),
            sub,
            sub,
        ),
        st.builds(UnOp, st.sampled_from(["!", "-"]), sub),
    )


def commands(depth=3):
    base = st.one_of(
        st.builds(Skip),
        st.builds(Assert, exprs(1)),
        st.builds(Assume, exprs(1)),
        st.builds(Assign, st.builds(Id, names), exprs(1)),
        st.builds(AssignNew, st.builds(Id, names)),
        st.builds(
            Assign, st.builds(FieldAccess, st.builds(Id, names), names), exprs(1)
        ),
        st.builds(Call, names, st.lists(exprs(1), max_size=2).map(tuple)),
    )
    if depth == 0:
        return base
    sub = commands(depth - 1)
    return st.one_of(
        base,
        st.lists(sub, min_size=2, max_size=4).map(sequence),
        st.lists(sub, min_size=2, max_size=5).map(choice),
        st.builds(VarCmd, names, sub),
    )


def terms(depth=2):
    base = st.one_of(
        st.builds(Const, names),
        st.builds(IntLit, st.integers(min_value=-50, max_value=50)),
        st.builds(Var, names.map(lambda n: n.upper())),
    )
    if depth == 0:
        return base
    sub = terms(depth - 1)
    return st.one_of(
        base,
        st.builds(App, names, st.lists(sub, min_size=1, max_size=3).map(tuple)),
    )


def formulas(depth=2):
    atoms = st.one_of(
        st.builds(TrueF),
        st.builds(FalseF),
        st.builds(Eq, terms(1), terms(1)),
        st.builds(Pred, names, st.lists(terms(1), min_size=1, max_size=2).map(tuple)),
    )
    if depth == 0:
        return atoms
    sub = formulas(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Not, sub),
        st.builds(And, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(
            Forall, st.lists(names.map(str.upper), min_size=1, max_size=2).map(tuple), sub
        ),
        st.builds(
            Exists, st.lists(names.map(str.upper), min_size=1, max_size=2).map(tuple), sub
        ),
    )


# ---------------------------------------------------------------------------
# Frontend round-trips
# ---------------------------------------------------------------------------


class TestFrontendProperties:
    @given(exprs())
    @settings(max_examples=200)
    def test_expression_round_trip(self, expr):
        assert parse_expression(pretty_expr(expr)) == expr

    @given(commands())
    @settings(max_examples=200)
    def test_command_round_trip(self, cmd):
        assert parse_command(pretty_cmd(cmd)) == cmd

    @given(st.lists(commands(1), min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_program_round_trip(self, bodies):
        from repro.oolong.ast import ImplDecl, ProcDecl

        decls = []
        for index, body in enumerate(bodies):
            decls.append(ProcDecl(f"p{index}", ("t",)))
            decls.append(ImplDecl(f"p{index}", ("t",), body))
        text = pretty_program(decls)
        assert parse_program_text(text) == tuple(decls)


# ---------------------------------------------------------------------------
# Logic transforms
# ---------------------------------------------------------------------------


def assert_nnf(formula: Formula) -> None:
    """NNF: negation only on atoms; no Implies/Iff."""
    if isinstance(formula, Not):
        assert isinstance(formula.body, (Eq, Pred)), formula
        return
    assert not isinstance(formula, (Implies, Iff)), formula
    if isinstance(formula, And):
        for c in formula.conjuncts:
            assert_nnf(c)
    elif isinstance(formula, Or):
        for d in formula.disjuncts:
            assert_nnf(d)
    elif isinstance(formula, (Forall, Exists)):
        assert_nnf(formula.body)


def assert_no_exists(formula: Formula) -> None:
    assert not isinstance(formula, Exists), formula
    if isinstance(formula, And):
        for c in formula.conjuncts:
            assert_no_exists(c)
    elif isinstance(formula, Or):
        for d in formula.disjuncts:
            assert_no_exists(d)
    elif isinstance(formula, Forall):
        assert_no_exists(formula.body)
    elif isinstance(formula, Not):
        assert_no_exists(formula.body)


class TestLogicProperties:
    @given(formulas())
    @settings(max_examples=200)
    def test_nnf_shape(self, formula):
        assert_nnf(to_nnf(formula))

    @given(formulas())
    @settings(max_examples=200)
    def test_negate_shape(self, formula):
        assert_nnf(negate(formula))

    @given(formulas())
    @settings(max_examples=200)
    def test_nnf_never_invents_free_vars(self, formula):
        # Absorption (e.g. `false & P` ~> `false`) may legitimately *drop*
        # variables; it must never introduce new ones.
        assert formula_free_vars(to_nnf(formula)) <= formula_free_vars(formula)

    @given(formulas())
    @settings(max_examples=200)
    def test_skolemization_removes_exists_and_keeps_free_vars(self, formula):
        nnf = to_nnf(formula)
        skolemized = skolemize(nnf, FreshNames())
        assert_no_exists(skolemized)
        assert formula_free_vars(skolemized) <= formula_free_vars(nnf)

    @given(formulas(), terms(1))
    @settings(max_examples=200)
    def test_substitution_eliminates_target_variable(self, formula, value):
        from repro.logic.subst import term_free_vars

        free = formula_free_vars(formula)
        if not free:
            return
        target = sorted(free)[0]
        result = subst_formula(formula, {target: value})
        if target in term_free_vars(value):
            return  # the value itself reintroduces the name
        assert target not in formula_free_vars(result)

    @given(formulas())
    @settings(max_examples=100)
    def test_nnf_is_idempotent(self, formula):
        once = to_nnf(formula)
        assert to_nnf(once) == once


# ---------------------------------------------------------------------------
# E-graph invariants under random workloads
# ---------------------------------------------------------------------------

ground_terms = st.recursive(
    st.one_of(
        st.builds(Const, st.sampled_from("abcde")),
        st.builds(IntLit, st.integers(min_value=0, max_value=3)),
    ),
    lambda sub: st.builds(
        App,
        st.sampled_from(["f", "g"]),
        st.lists(sub, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=6,
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("eq"), ground_terms, ground_terms),
        st.tuples(st.just("diseq"), ground_terms, ground_terms),
        st.tuples(st.just("intern"), ground_terms, ground_terms),
    ),
    max_size=20,
)


class TestEGraphProperties:
    @given(operations)
    @settings(max_examples=150)
    def test_equality_is_equivalence_and_congruent(self, ops):
        eg = EGraph()
        for op, left, right in ops:
            a, b = eg.intern(left), eg.intern(right)
            if op == "eq":
                eg.assert_eq(a, b)
            elif op == "diseq":
                eg.assert_diseq(a, b)
            if eg.in_conflict:
                return
        # Reflexivity/symmetry via find; congruence: equal children =>
        # equal parents for freshly interned terms.
        for op, left, right in ops:
            a, b = eg.intern(left), eg.intern(right)
            if eg.are_equal(a, b):
                fa = eg.intern(App("f", (left,)))
                fb = eg.intern(App("f", (right,)))
                assert eg.are_equal(fa, fb)

    @given(operations, operations)
    @settings(max_examples=100)
    def test_push_pop_restores_state(self, prefix, scoped):
        eg = EGraph()
        for op, left, right in prefix:
            a, b = eg.intern(left), eg.intern(right)
            if op == "eq":
                eg.assert_eq(a, b)
            elif op == "diseq":
                eg.assert_diseq(a, b)
        before = {
            (l, r): eg.are_equal(eg.intern(l), eg.intern(r))
            for _, l, r in prefix + scoped
        }
        conflict_before = eg.in_conflict
        mark = eg.push()
        for op, left, right in scoped:
            a, b = eg.intern(left), eg.intern(right)
            if op == "eq":
                eg.assert_eq(a, b)
            elif op == "diseq":
                eg.assert_diseq(a, b)
        eg.pop(mark)
        after = {
            (l, r): eg.are_equal(eg.intern(l), eg.intern(r))
            for _, l, r in prefix + scoped
        }
        assert before == after
        assert eg.in_conflict == conflict_before

    @given(st.lists(ground_terms, min_size=1, max_size=10))
    @settings(max_examples=150)
    def test_interning_is_stable(self, term_list):
        eg = EGraph()
        first = [eg.intern(t) for t in term_list]
        second = [eg.intern(t) for t in term_list]
        assert first == second
