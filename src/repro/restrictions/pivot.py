"""The pivot uniqueness restriction (Section 3.0 of the paper).

The restriction confines the values of pivot fields so that, except for
copies in formal parameters on the call stack, a non-null pivot value is
stored nowhere else. Three syntactic rules on assignment commands:

1. If the assignment target is ``e.f`` with ``f`` a pivot field, the right
   operand must be ``new()`` or ``null``.
2. The right operand may not *extract* a pivot value:
   * ``e.f`` with ``f`` a pivot field is forbidden;
   * an operator expression must not return an object (none of oolong's
     predefined operators do);
   * an identifier right operand must be a local variable, never a formal
     parameter.
3. Assignments to formal parameters are not allowed (enforced by the
   well-formedness pass, and re-checked here for standalone use).

Passing a pivot value as a call argument remains legal; that case is
governed by owner exclusion at the call site.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import RestrictionError, SourcePosition
from repro.oolong.ast import (
    Assign,
    AssignNew,
    BinOp,
    Expr,
    FieldAccess,
    Id,
    ImplDecl,
    OBJECT_RETURNING_OPS,
    UnOp,
    walk_commands,
)
from repro.oolong.program import Scope
from repro.record import Record


class PivotViolation(Record, frozen=True):
    """One violation of the pivot uniqueness restriction."""

    impl: str
    rule: str
    detail: str
    position: Optional[SourcePosition] = None

    @property
    def code(self) -> str:
        """The stable ``OL1xx`` error code aliased by this rule tag."""
        from repro.analysis.diagnostics import code_for_rule

        return code_for_rule(self.rule)

    def to_diagnostic(self):
        """This violation as a record of the shared diagnostics engine."""
        from repro.analysis.diagnostics import Diagnostic

        return Diagnostic(
            code=self.code,
            message=self.detail,
            position=self.position,
            impl=self.impl,
        )

    def __str__(self) -> str:
        where = f" at {self.position}" if self.position else ""
        return f"[{self.rule}] impl {self.impl}{where}: {self.detail}"


#: Rule identifiers used in violation reports. Each tag aliases a stable
#: ``OL1xx`` diagnostic code (see :mod:`repro.analysis.diagnostics`); the
#: strings are kept because published transcripts match on them.
RULE_PIVOT_TARGET = "pivot-target"  # OL101
RULE_PIVOT_READ = "pivot-read"  # OL102
RULE_OBJECT_OP = "object-op"  # OL103
RULE_FORMAL_COPY = "formal-copy"  # OL104
RULE_FORMAL_TARGET = "formal-target"  # OL105


def check_pivot_uniqueness(scope: Scope) -> List[PivotViolation]:
    """Check every implementation in ``scope``; return all violations."""
    from repro.obs import span
    from repro.testing.faults import fault_point

    with span("pivot") as sp:
        violations: List[PivotViolation] = []
        for impls in scope.impls.values():
            for impl in impls:
                violations.extend(check_impl(scope, impl))
        sp.set(violations=len(violations))
        return fault_point("pivot", violations)


def enforce_pivot_uniqueness(scope: Scope) -> None:
    """Raise :class:`RestrictionError` on the first violation."""
    violations = check_pivot_uniqueness(scope)
    if violations:
        first = violations[0]
        raise RestrictionError(str(first), first.position)


def check_impl(scope: Scope, impl: ImplDecl) -> List[PivotViolation]:
    """Check a single implementation."""
    violations: List[PivotViolation] = []
    formals = set(impl.params)
    for cmd in walk_commands(impl.body):
        if isinstance(cmd, Assign):
            _check_assign(scope, impl, cmd, formals, violations)
        elif isinstance(cmd, AssignNew):
            _check_target_is_not_formal(
                impl, cmd.target, formals, cmd.position, violations
            )
        # assert/assume/skip/call never violate pivot uniqueness.
    return violations


def _check_assign(
    scope: Scope,
    impl: ImplDecl,
    cmd: Assign,
    formals: Set[str],
    out: List[PivotViolation],
) -> None:
    _check_target_is_not_formal(impl, cmd.target, formals, cmd.position, out)

    target_is_pivot = (
        isinstance(cmd.target, FieldAccess) and scope.is_pivot(cmd.target.attr)
    )
    if target_is_pivot and not _is_null(cmd.rhs):
        out.append(
            PivotViolation(
                impl.name,
                RULE_PIVOT_TARGET,
                f"pivot field {cmd.target.attr!r} may only be assigned "
                f"new() or null, not {cmd.rhs}",
                cmd.position,
            )
        )

    out.extend(_rhs_violations(scope, impl, cmd.rhs, formals, cmd.position))


def _check_target_is_not_formal(
    impl: ImplDecl,
    target: Expr,
    formals: Set[str],
    position: Optional[SourcePosition],
    out: List[PivotViolation],
) -> None:
    if isinstance(target, Id) and target.name in formals:
        out.append(
            PivotViolation(
                impl.name,
                RULE_FORMAL_TARGET,
                f"assignment to formal parameter {target.name!r}",
                position,
            )
        )


def _is_null(expr: Expr) -> bool:
    from repro.oolong.ast import NullConst

    return isinstance(expr, NullConst)


def _rhs_violations(
    scope: Scope,
    impl: ImplDecl,
    rhs: Expr,
    formals: Set[str],
    position: Optional[SourcePosition],
) -> List[PivotViolation]:
    """Rule 2 checks on a right operand (top-level form only).

    Only the outermost shape of the right operand is restricted: reading
    *through* a pivot (``x.vec.cnt``) consumes the value transiently and is
    legal; what is forbidden is storing a pivot value itself.
    """
    violations: List[PivotViolation] = []
    if isinstance(rhs, FieldAccess) and scope.is_pivot(rhs.attr):
        violations.append(
            PivotViolation(
                impl.name,
                RULE_PIVOT_READ,
                f"value of pivot field {rhs.attr!r} may not flow into a "
                "variable or field",
                position,
            )
        )
    elif isinstance(rhs, Id) and rhs.name in formals:
        violations.append(
            PivotViolation(
                impl.name,
                RULE_FORMAL_COPY,
                f"formal parameter {rhs.name!r} may not be copied "
                "(it may hold a pivot value)",
                position,
            )
        )
    elif isinstance(rhs, (BinOp, UnOp)) and rhs.op in OBJECT_RETURNING_OPS:
        violations.append(
            PivotViolation(
                impl.name,
                RULE_OBJECT_OP,
                f"operator {rhs.op!r} returns an object and may not appear "
                "as an assignment right operand",
                position,
            )
        )
    return violations
