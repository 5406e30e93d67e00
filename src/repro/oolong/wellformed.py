"""Static well-formedness checking for oolong scopes.

Enforced rules (Section 2 of the paper):

1. **Self-contained names** — every group, field, attribute, and procedure
   referred to anywhere in the scope is declared in the scope.
2. **Acyclic local inclusions** — the ``in`` clauses of groups may not form
   a cycle.
3. **Modifies designators** are rooted at a formal parameter of their
   procedure, traverse declared fields, and end at a declared attribute.
4. **Implementations** match a declared procedure and repeat its parameter
   list verbatim; their bodies reference only declared fields (data groups
   are not allowed in commands), declared procedures with correct arity,
   and in-scope variables (formals or enclosing ``var`` binders).
5. ``var`` binders may not shadow a formal parameter or an enclosing binder
   (oolong names are unique, so shadowing is rejected rather than resolved).

These checks are pure name/shape checks; the pivot-uniqueness restriction is
a separate pass in :mod:`repro.restrictions.pivot`.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import SourcePosition, WellFormednessError
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    BinOp,
    BoolConst,
    Call,
    Choice,
    Cmd,
    Expr,
    FieldAccess,
    FieldDecl,
    GroupDecl,
    Id,
    ImplDecl,
    IntConst,
    NullConst,
    ProcDecl,
    Seq,
    Skip,
    UnOp,
    VarCmd,
)
from repro.oolong.program import Scope


def check_well_formed(scope: Scope) -> None:
    """Raise :class:`WellFormednessError` on the first violated rule."""
    from repro.obs import span
    from repro.testing.faults import fault_point

    with span("wellformed"):
        fault_point("wellformed")
        _check_group_acyclicity(scope)
        for decl in scope.decls:
            if isinstance(decl, GroupDecl):
                _check_in_targets(scope, decl.name, decl.in_groups, decl.position)
            elif isinstance(decl, FieldDecl):
                _check_field(scope, decl)
            elif isinstance(decl, ProcDecl):
                _check_proc(scope, decl)
            elif isinstance(decl, ImplDecl):
                _check_impl(scope, decl)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def _check_in_targets(
    scope: Scope,
    owner: str,
    in_groups,
    position: Optional[SourcePosition],
) -> None:
    for group_name in in_groups:
        if not scope.is_group(group_name):
            raise WellFormednessError(
                f"{owner!r} declared in {group_name!r}, which is not a declared group",
                position,
            )


def _check_field(scope: Scope, decl: FieldDecl) -> None:
    _check_in_targets(scope, decl.name, decl.in_groups, decl.position)
    for clause in decl.maps:
        if not scope.is_attribute(clause.mapped):
            raise WellFormednessError(
                f"field {decl.name!r} maps undeclared attribute {clause.mapped!r}",
                decl.position,
            )
        for group_name in clause.into:
            if not scope.is_group(group_name):
                raise WellFormednessError(
                    f"field {decl.name!r} maps {clause.mapped!r} into "
                    f"{group_name!r}, which is not a declared group",
                    decl.position,
                )


_WHITE, _GRAY, _BLACK = 0, 1, 2


def _check_group_acyclicity(scope: Scope) -> None:
    """Reject cycles among group ``in`` clauses via three-color DFS."""
    color = {name: _WHITE for name in scope.groups}
    for name in list(color):
        if color[name] == _WHITE:
            _visit_group(scope, color, name, [])


def _visit_group(scope: Scope, color, name: str, trail: List[str]) -> None:
    # A module-level function, not a closure over ``scope``: a recursive
    # closure would keep the scope in a reference cycle after the check.
    color[name] = _GRAY
    trail.append(name)
    decl = scope.group(name)
    assert decl is not None
    for parent in decl.in_groups:
        if parent not in color:
            continue  # undeclared parent is reported elsewhere
        if color[parent] == _GRAY:
            cycle = " -> ".join(trail + [parent])
            raise WellFormednessError(
                f"cyclic group inclusion: {cycle}", decl.position
            )
        if color[parent] == _WHITE:
            _visit_group(scope, color, parent, trail)
    trail.pop()
    color[name] = _BLACK


def _check_proc(scope: Scope, decl: ProcDecl) -> None:
    if len(set(decl.params)) != len(decl.params):
        raise WellFormednessError(
            f"procedure {decl.name!r} repeats a parameter name", decl.position
        )
    for condition in decl.requires + decl.ensures:
        _check_contract_expr(scope, condition, set(decl.params), decl)
    for designator in decl.modifies:
        if designator.root not in decl.params:
            raise WellFormednessError(
                f"modifies designator {designator} of {decl.name!r} is not rooted "
                "at a formal parameter",
                decl.position,
            )
        for field_name in designator.path:
            if not scope.is_field(field_name):
                raise WellFormednessError(
                    f"modifies designator {designator} of {decl.name!r} selects "
                    f"{field_name!r}, which is not a declared field",
                    decl.position,
                )
        if not scope.is_attribute(designator.attr):
            raise WellFormednessError(
                f"modifies designator {designator} of {decl.name!r} ends at "
                f"{designator.attr!r}, which is not a declared attribute",
                decl.position,
            )


def _check_contract_expr(scope: Scope, expr, params, decl: ProcDecl) -> None:
    """requires/ensures clauses reference only formals and declared fields."""
    from repro.oolong.ast import BinOp as _BinOp, UnOp as _UnOp

    if isinstance(expr, (NullConst, BoolConst, IntConst)):
        return
    if isinstance(expr, Id):
        if expr.name not in params:
            raise WellFormednessError(
                f"contract of {decl.name!r} references {expr.name!r}, which is "
                "not a formal parameter",
                decl.position,
            )
        return
    if isinstance(expr, FieldAccess):
        if not scope.is_field(expr.attr):
            raise WellFormednessError(
                f"contract of {decl.name!r} selects {expr.attr!r}, which is "
                "not a declared field",
                decl.position,
            )
        _check_contract_expr(scope, expr.obj, params, decl)
        return
    if isinstance(expr, _BinOp):
        _check_contract_expr(scope, expr.left, params, decl)
        _check_contract_expr(scope, expr.right, params, decl)
        return
    if isinstance(expr, _UnOp):
        _check_contract_expr(scope, expr.operand, params, decl)
        return
    raise TypeError(f"not an oolong expression: {expr!r}")


def _check_impl(scope: Scope, decl: ImplDecl) -> None:
    proc = scope.proc(decl.name)
    if proc is None:
        raise WellFormednessError(
            f"implementation of undeclared procedure {decl.name!r}", decl.position
        )
    if proc.params != decl.params:
        raise WellFormednessError(
            f"implementation of {decl.name!r} must repeat the parameter list "
            f"{list(proc.params)}, found {list(decl.params)}",
            decl.position,
        )
    _check_cmd(scope, decl.body, set(decl.params), set(decl.params), decl)


# ---------------------------------------------------------------------------
# Commands and expressions
# ---------------------------------------------------------------------------


def _check_cmd(
    scope: Scope,
    cmd: Cmd,
    bound: Set[str],
    formals: Set[str],
    impl: ImplDecl,
) -> None:
    if isinstance(cmd, (Assert, Assume)):
        _check_expr(scope, cmd.condition, bound, impl)
    elif isinstance(cmd, Skip):
        pass
    elif isinstance(cmd, VarCmd):
        if cmd.name in bound:
            raise WellFormednessError(
                f"'var {cmd.name}' shadows an existing variable in impl "
                f"{impl.name!r}",
                cmd.position,
            )
        _check_cmd(scope, cmd.body, bound | {cmd.name}, formals, impl)
    elif isinstance(cmd, Assign):
        _check_expr(scope, cmd.target, bound, impl)
        _check_expr(scope, cmd.rhs, bound, impl)
        _check_assign_target(cmd.target, formals, impl, cmd.position)
    elif isinstance(cmd, AssignNew):
        _check_expr(scope, cmd.target, bound, impl)
        _check_assign_target(cmd.target, formals, impl, cmd.position)
    elif isinstance(cmd, (Seq, Choice)):
        for part in cmd.cmds:
            _check_cmd(scope, part, bound, formals, impl)
    elif isinstance(cmd, Call):
        proc = scope.proc(cmd.proc)
        if proc is None:
            raise WellFormednessError(
                f"call to undeclared procedure {cmd.proc!r} in impl {impl.name!r}",
                cmd.position,
            )
        if len(proc.params) != len(cmd.args):
            raise WellFormednessError(
                f"call to {cmd.proc!r} passes {len(cmd.args)} arguments, "
                f"declared with {len(proc.params)}",
                cmd.position,
            )
        for arg in cmd.args:
            _check_expr(scope, arg, bound, impl)
    else:
        raise TypeError(f"not an oolong command: {cmd!r}")


def _check_assign_target(
    target: Expr,
    formals: Set[str],
    impl: ImplDecl,
    position: Optional[SourcePosition],
) -> None:
    """Targets are local variables or field designators — never formals."""
    if isinstance(target, Id):
        if target.name in formals:
            raise WellFormednessError(
                f"assignment to formal parameter {target.name!r} in impl "
                f"{impl.name!r} (formals are unchangeable once bound)",
                position,
            )
    elif not isinstance(target, FieldAccess):
        raise WellFormednessError(
            f"assignment target must be a variable or field designator in impl "
            f"{impl.name!r}",
            position,
        )


def _check_expr(scope: Scope, expr: Expr, bound: Set[str], impl: ImplDecl) -> None:
    if isinstance(expr, (NullConst, BoolConst, IntConst)):
        return
    if isinstance(expr, Id):
        if expr.name not in bound:
            raise WellFormednessError(
                f"unbound variable {expr.name!r} in impl {impl.name!r}",
                expr.position,
            )
        return
    if isinstance(expr, FieldAccess):
        if scope.is_group(expr.attr):
            raise WellFormednessError(
                f"data group {expr.attr!r} used in a command (groups are "
                "allowed only in modifies lists)",
                expr.position,
            )
        if not scope.is_field(expr.attr):
            raise WellFormednessError(
                f"access to undeclared field {expr.attr!r} in impl {impl.name!r}",
                expr.position,
            )
        _check_expr(scope, expr.obj, bound, impl)
        return
    if isinstance(expr, BinOp):
        _check_expr(scope, expr.left, bound, impl)
        _check_expr(scope, expr.right, bound, impl)
        return
    if isinstance(expr, UnOp):
        _check_expr(scope, expr.operand, bound, impl)
        return
    raise TypeError(f"not an oolong expression: {expr!r}")
