"""The lint driver: run every static pass and collect diagnostics.

``lint_scope`` is the entry point the lint CLI and the API use: it
decides well-formedness, then runs the passes. ``check_scope`` decides
well-formedness itself and runs the passes through ``lint_well_formed``.
Linting is deliberately cheap — pure AST/CFG walks, no prover — so it
can run as a pre-filter in front of verification on every
``check_scope`` call. The passes read one inclusion lattice and call
graph per scope and one CFG per implementation from the scope's
analysis cache (:mod:`repro.analysis.facts`), which static discharge
then reuses. Each implementation gets at most three forward passes over
its CFG, one per analysis, and each visits every statement once: pivot
escape (only with ``include_flow``), reachability, and the access paths
behind modifies inference, which the cache keeps for discharge.
Measured by per-layer self time on 100-300-impl farms and 150/250-link
call chains with static discharge on, where the prover is bypassed
(2-core x86, Python 3.11): lint is ~35% of a check, static discharge
~26%, the parser ~20%, the lexer ~8%, well-formedness ~6% and the
prover ~3%.

Pass inventory:

========  =========================================================
family    passes
========  =========================================================
OL100     well-formedness (converted from :mod:`oolong.wellformed`)
OL10x     syntactic pivot uniqueness (:mod:`restrictions.pivot`)
OL110     flow-sensitive pivot escape (:mod:`analysis.escape`)
OL20x     unused declarations, unreachable code, recursion
OL30x     modifies-list inference (:mod:`analysis.modifies`)
========  =========================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import WellFormednessError
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.analysis.callgraph import check_recursion
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    diagnostic_from_error,
    sorted_diagnostics,
)
from repro.analysis.escape import check_pivot_escapes
from repro.analysis.lints import check_unreachable_code, check_unused_declarations
from repro.analysis.modifies import infer_modifies
from repro.record import Record, field


class LintResult(Record):
    """Everything the lint passes found."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: proc name -> inferred least modifies list (designator strings).
    inferred_modifies: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]


def lint_scope(
    scope: Scope,
    *,
    include_restrictions: bool = True,
    include_flow: bool = True,
) -> LintResult:
    """Decide ``scope``'s well-formedness, then run the static passes.

    This is the standalone linter's gate: a scope that is not
    well-formed short-circuits to a single ``OL100`` diagnostic, since
    the other passes assume resolvable names. ``check_scope`` decides
    well-formedness itself and calls :func:`lint_well_formed` directly.
    """
    try:
        check_well_formed(scope)
    except WellFormednessError as error:
        return LintResult(diagnostics=[diagnostic_from_error(error)])
    return lint_well_formed(
        scope,
        include_restrictions=include_restrictions,
        include_flow=include_flow,
    )


def lint_well_formed(
    scope: Scope,
    *,
    include_restrictions: bool = True,
    include_flow: bool = True,
) -> LintResult:
    """Run the static passes over a scope already known to be well-formed."""
    from repro.obs import span
    from repro.testing.faults import fault_point

    with span("lint") as sp:
        result = LintResult()
        if include_restrictions:
            from repro.restrictions.pivot import check_pivot_uniqueness

            result.diagnostics.extend(
                violation.to_diagnostic()
                for violation in check_pivot_uniqueness(scope)
            )
        if include_flow:
            result.diagnostics.extend(check_pivot_escapes(scope))
        inference = infer_modifies(scope)
        result.diagnostics.extend(inference.diagnostics)
        result.inferred_modifies = inference.inferred
        result.diagnostics.extend(check_unused_declarations(scope))
        result.diagnostics.extend(check_unreachable_code(scope))
        result.diagnostics.extend(check_recursion(scope))
        result.diagnostics = sorted_diagnostics(result.diagnostics)
        sp.set(diagnostics=len(result.diagnostics))
        return fault_point("lint", result)


def lint_program(source: str, filename: Optional[str] = None, **passes) -> LintResult:
    """Parse ``source`` and lint it (parse errors propagate as usual)."""
    return lint_scope(Scope.from_source(source, filename), **passes)
