"""Empirical scope-monotonicity checking.

``check_monotonicity(base, extension)`` verifies every implementation of
the *base* scope twice — once against BP_base, once against BP_(base ∪
extension) — and reports any implementation that was verified in the small
scope but fails in the large one. With the paper's system the report must
be empty; the Section 3 counter-scenarios (checked through the naive
baseline, which drops the alias-confinement restrictions) are exactly the
programs that witness violations without it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.oolong.ast import Decl, ImplDecl
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.prover.core import Limits, Verdict
from repro.record import Record, field
from repro.vcgen.vc import vc_for_impl


class MonotonicityResult(Record):
    """Verdict pair for one implementation."""

    impl_name: str
    impl_index: int
    base_verdict: Verdict
    extended_verdict: Verdict

    @property
    def violates(self) -> bool:
        """A monotonicity violation: valid in D, invalid in E ⊇ D."""
        return (
            self.base_verdict is Verdict.UNSAT
            and self.extended_verdict is Verdict.SAT
        )


class MonotonicityReport(Record):
    results: List[MonotonicityResult] = field(default_factory=list)

    @property
    def violations(self) -> List[MonotonicityResult]:
        return [r for r in self.results if r.violates]

    @property
    def monotone(self) -> bool:
        return not self.violations


def check_monotonicity(
    base: Scope,
    extension: Sequence[Decl],
    limits: Optional[Limits] = None,
) -> MonotonicityReport:
    """Compare verification of ``base``'s impls in D vs E = D + extension."""
    check_well_formed(base)
    extended = base.extend(extension)
    check_well_formed(extended)
    from repro.oolong.contracts import desugar_contracts

    base = desugar_contracts(base)
    extended = desugar_contracts(extended)
    report = MonotonicityReport()
    for impls in base.impls.values():
        for index, impl in enumerate(impls):
            base_result = vc_for_impl(base, impl).prove(limits)
            extended_result = vc_for_impl(extended, impl).prove(limits)
            report.results.append(
                MonotonicityResult(
                    impl_name=impl.name,
                    impl_index=index,
                    base_verdict=base_result.verdict,
                    extended_verdict=extended_result.verdict,
                )
            )
    return report
