"""The Greenhouse–Boyland abstract-regions restriction.

Their effects system is close to data groups, but "their regions ... don't
allow a field to be included in more than one region, which we view as a
severe limitation" (Section 1). This baseline implements that structural
restriction so the comparison can count the programs data groups accept
and regions reject.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SourcePosition
from repro.oolong.ast import FieldDecl, GroupDecl
from repro.oolong.program import Scope
from repro.record import Record


class RegionViolation(Record, frozen=True):
    """An attribute included in more than one region."""

    attribute: str
    regions: tuple
    position: Optional[SourcePosition] = None

    def __str__(self) -> str:
        rendered = ", ".join(self.regions)
        return f"{self.attribute!r} is included in multiple regions: {rendered}"


def check_single_region(scope: Scope) -> List[RegionViolation]:
    """Report every attribute with more than one *direct* region.

    Rep inclusions are counted alongside local ones: a field mapped into
    two groups also violates the single-region discipline.
    """
    violations: List[RegionViolation] = []
    for decl in scope.decls:
        if isinstance(decl, (GroupDecl, FieldDecl)):
            regions = list(decl.in_groups)
            if isinstance(decl, FieldDecl):
                for clause in decl.maps:
                    # A maps clause nests the mapped attribute's region
                    # under each target group; multiple targets multiply
                    # the regions of the mapped attribute.
                    if len(clause.into) > 1:
                        violations.append(
                            RegionViolation(
                                f"{decl.name}.{clause.mapped}",
                                tuple(clause.into),
                                decl.position,
                            )
                        )
            if len(regions) > 1:
                violations.append(
                    RegionViolation(decl.name, tuple(regions), decl.position)
                )
    return violations
