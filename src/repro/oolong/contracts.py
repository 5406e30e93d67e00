"""Pre/postcondition contracts, desugared per the paper's Section 2 recipe.

    "Our language does not provide special constructs for writing pre- and
    postconditions, but these can be achieved for any procedure p by the
    following disciplined use of our language: for a precondition P,
    precede every call to p with the command assert P and start every
    implementation of p with assume P; for a postcondition Q, end every
    implementation of p with the command assert Q and follow each call to
    p with assume Q (at call sites, one also needs to substitute the
    actual parameters for the formals in P and Q)."

We provide ``requires``/``ensures`` surface syntax on procedure
declarations and :func:`desugar_contracts`, which rewrites a scope into
the plain oolong discipline above. The result contains no contract
clauses, so the VC generator, interpreter, and restriction checkers all
operate on it unchanged — static checking *and* runtime monitoring of
contracts fall out for free.

oolong expressions are pure, so substituting actual argument expressions
for formals duplicates no side effects.
"""

from __future__ import annotations

from typing import Dict, List

from repro.oolong.ast import (
    Assert,
    Assume,
    BinOp,
    BoolConst,
    Call,
    Choice,
    Cmd,
    Decl,
    Expr,
    FieldAccess,
    Id,
    ImplDecl,
    IntConst,
    NullConst,
    ProcDecl,
    Seq,
    UnOp,
    VarCmd,
    choice,
    sequence,
)
from repro.oolong.program import Scope


def subst_expr(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Substitute expressions for identifier occurrences (formals→actuals)."""
    if isinstance(expr, (NullConst, BoolConst, IntConst)):
        return expr
    if isinstance(expr, Id):
        return mapping.get(expr.name, expr)
    if isinstance(expr, FieldAccess):
        return FieldAccess(subst_expr(expr.obj, mapping), expr.attr)
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op, subst_expr(expr.left, mapping), subst_expr(expr.right, mapping)
        )
    if isinstance(expr, UnOp):
        return UnOp(expr.op, subst_expr(expr.operand, mapping))
    raise TypeError(f"not an oolong expression: {expr!r}")


def _rewrite_cmd(cmd: Cmd, scope: Scope) -> Cmd:
    """Wrap every call with the caller-side contract commands."""
    if isinstance(cmd, Seq):
        return sequence([_rewrite_cmd(part, scope) for part in cmd.cmds])
    if isinstance(cmd, Choice):
        return choice([_rewrite_cmd(part, scope) for part in cmd.cmds])
    if isinstance(cmd, VarCmd):
        return VarCmd(cmd.name, _rewrite_cmd(cmd.body, scope), cmd.position)
    if isinstance(cmd, Call):
        proc = scope.proc(cmd.proc)
        if proc is None or not proc.has_contract:
            return cmd
        mapping = dict(zip(proc.params, cmd.args))
        parts: List[Cmd] = []
        for condition in proc.requires:
            parts.append(Assert(subst_expr(condition, mapping), cmd.position))
        parts.append(cmd)
        for condition in proc.ensures:
            parts.append(Assume(subst_expr(condition, mapping), cmd.position))
        return sequence(parts)
    return cmd


def _rewrite_impl(impl: ImplDecl, proc: ProcDecl, scope: Scope) -> ImplDecl:
    body = _rewrite_cmd(impl.body, scope)
    parts: List[Cmd] = []
    for condition in proc.requires:
        parts.append(Assume(condition, impl.position))
    parts.append(body)
    for condition in proc.ensures:
        parts.append(Assert(condition, impl.position))
    return ImplDecl(impl.name, impl.params, sequence(parts), impl.position)


def desugar_contracts(scope: Scope) -> Scope:
    """Rewrite ``scope`` into contract-free oolong per the paper's recipe.

    Idempotent on contract-free scopes (they are returned unchanged).
    """
    if not any(
        isinstance(decl, ProcDecl) and decl.has_contract for decl in scope.decls
    ):
        return scope
    rewritten: List[Decl] = []
    for decl in scope.decls:
        if isinstance(decl, ProcDecl):
            rewritten.append(
                ProcDecl(
                    decl.name,
                    decl.params,
                    decl.modifies,
                    (),
                    (),
                    decl.position,
                )
            )
        elif isinstance(decl, ImplDecl):
            proc = scope.proc(decl.name)
            if proc is not None and proc.has_contract:
                rewritten.append(_rewrite_impl(decl, proc, scope))
            else:
                rewritten.append(
                    ImplDecl(
                        decl.name,
                        decl.params,
                        _rewrite_cmd(decl.body, scope),
                        decl.position,
                    )
                )
        else:
            rewritten.append(decl)
    return Scope(rewritten)
