"""Declaration and reachability lints (codes ``OL201``–``OL203``).

* **OL201 / OL202** — a group or field that appears in no inclusion
  (``in`` clause or ``maps ... into``), no modifies list, no contract,
  and no implementation body is dead weight in the scope: it bloats the
  background predicate the prover instantiates for no benefit.
* **OL203** — code following ``assume false`` / ``assert false`` on every
  path never executes (``assume false`` blocks; ``assert false`` goes
  wrong). Found with a reachability instance of the dataflow engine whose
  transfer kills the state at literally-false conditions; one diagnostic
  per contiguous dead region.
"""

from __future__ import annotations

from typing import List, Set

from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    BinOp,
    BoolConst,
    Call,
    Expr,
    FieldAccess,
    FieldDecl,
    GroupDecl,
    ImplDecl,
    ProcDecl,
    UnOp,
)
from repro.oolong.program import Scope
from repro.analysis.cfg import ASSERT, ASSIGN, ASSIGN_NEW, ASSUME, CALL, Statement
from repro.analysis.dataflow import ForwardAnalysis, forward_states
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.facts import impl_facts


# ---------------------------------------------------------------------------
# Unused declarations
# ---------------------------------------------------------------------------


def _expr_fields(expr: Expr, out: Set[str]) -> None:
    if isinstance(expr, FieldAccess):
        out.add(expr.attr)
        _expr_fields(expr.obj, out)
    elif isinstance(expr, BinOp):
        _expr_fields(expr.left, out)
        _expr_fields(expr.right, out)
    elif isinstance(expr, UnOp):
        _expr_fields(expr.operand, out)


def _used_attributes(scope: Scope) -> Set[str]:
    """Every attribute name the scope mentions outside its own declaration."""
    used: Set[str] = set()
    for decl in scope.decls:
        if isinstance(decl, (GroupDecl, FieldDecl)):
            used.update(decl.in_groups)
        if isinstance(decl, FieldDecl):
            for clause in decl.maps:
                used.add(clause.mapped)
                used.update(clause.into)
        elif isinstance(decl, ProcDecl):
            for designator in decl.modifies:
                used.update(designator.path)
                used.add(designator.attr)
            for condition in decl.requires + decl.ensures:
                _expr_fields(condition, used)
        elif isinstance(decl, ImplDecl):
            for _block, stmt in impl_facts(scope, decl).cfg.statements():
                node = stmt.node
                if isinstance(node, (Assert, Assume)):
                    _expr_fields(node.condition, used)
                elif isinstance(node, Assign):
                    _expr_fields(node.target, used)
                    _expr_fields(node.rhs, used)
                elif isinstance(node, AssignNew):
                    _expr_fields(node.target, used)
                elif isinstance(node, Call):
                    for arg in node.args:
                        _expr_fields(arg, used)
    return used


def check_unused_declarations(scope: Scope) -> List[Diagnostic]:
    """OL201/OL202: attributes no inclusion, modifies list, or command uses."""
    used = _used_attributes(scope)
    diagnostics: List[Diagnostic] = []
    for name, group in scope.groups.items():
        if name not in used:
            diagnostics.append(
                Diagnostic(
                    code="OL201",
                    message=(
                        f"group {name!r} is never used in an inclusion or "
                        "modifies list; it can be removed"
                    ),
                    position=group.position,
                )
            )
    for name, field_decl in scope.fields.items():
        if name not in used:
            diagnostics.append(
                Diagnostic(
                    code="OL202",
                    message=(
                        f"field {name!r} is never read, written, or listed "
                        "in a modifies clause; it can be removed"
                    ),
                    position=field_decl.position,
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# Unreachable code
# ---------------------------------------------------------------------------

_REACHABLE = "reachable"
_DEAD = "dead"


def _is_false(expr: Expr) -> bool:
    return isinstance(expr, BoolConst) and not expr.value


class ReachabilityAnalysis(ForwardAnalysis):
    """Forward reachability; ``assume false``/``assert false`` kill it."""

    def initial_state(self, cfg) -> str:
        return _REACHABLE

    def join(self, states: List[str]) -> str:
        return _REACHABLE if _REACHABLE in states else _DEAD

    def transfer(self, stmt: Statement, state: str) -> str:
        if state is _DEAD:
            return _DEAD
        node = stmt.node
        if isinstance(node, (Assume, Assert)) and _is_false(node.condition):
            return _DEAD
        return state


def check_unreachable(scope: Scope, impl: ImplDecl) -> List[Diagnostic]:
    """OL203: the first statement of every contiguous dead region."""
    cfg = impl_facts(scope, impl).cfg
    analysis = ReachabilityAnalysis()
    diagnostics: List[Diagnostic] = []
    previous_dead = False
    for stmt, state in forward_states(cfg, analysis):
        dead = state is _DEAD
        # Report the entry into a dead region at an effectful statement
        # with a position (skip var brackets, which carry block structure).
        if dead and not previous_dead:
            if stmt.kind in (ASSERT, ASSUME, ASSIGN, ASSIGN_NEW, CALL):
                diagnostics.append(
                    Diagnostic(
                        code="OL203",
                        message=(
                            "unreachable code: every path to this point "
                            "passes through 'assume false' or 'assert false'"
                        ),
                        position=stmt.position,
                        impl=impl.name,
                    )
                )
                previous_dead = True
        elif not dead:
            previous_dead = False
    return diagnostics


def check_unreachable_code(scope: Scope) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for impls in scope.impls.values():
        for impl in impls:
            diagnostics.extend(check_unreachable(scope, impl))
    return diagnostics
