"""Static frame-obligation discharge.

The prover's front door. Before any VC is generated, this pass
classifies each proof obligation of every implementation — the entries
of its site list (:attr:`repro.analysis.facts.ImplFacts.sites`), which
carry the obligations :mod:`repro.vcgen.wlp` registers, in the same
order with the same descriptions — by pure lattice reasoning over the
scope's inclusion relation (:class:`~repro.analysis.inclusion.
InclusionLattice`) and the objects each site writes through, from the
access-path dataflow of :mod:`repro.analysis.modifies`. Which frame
designators license each written access path is decided once, on the
site (:attr:`repro.analysis.facts.Site.covering`); this pass reads it:

* ``STATIC_VALID`` — every value the written object may denote is either
  definitely fresh (``¬alive($0)`` holds) or an entry access path whose
  licence is subsumed in the lattice. The prover would prove it; skip it.
* ``STATIC_VIOLATION`` — the object is named by exactly one entry access
  path, its licence is *not* subsumed, and the path to it is refutation-
  safe (all assumptions on the way are trivial guards, no formal is
  reassigned, no field on the path is redirected). The prover would
  refute it; report OL401 with an inclusion-chain blame instead.
* ``UNKNOWN`` — anything else falls through to the prover unchanged.

Classification is deliberately conservative on the two places where the
static view and the wlp's store terms can drift apart:

* declared modifies prefixes are evaluated in the **entry** store while
  write targets are evaluated in the **current** store, so coverage
  through a non-empty access path is only claimed when every field on
  that path is *stable* — never heap-written in the body and not
  writable by any callee's frame (downward-closed through pivots);
* a ``STATIC_VIOLATION`` is only claimed when the obligation is provably
  reachable in some model — every ``assume`` in the body must be a
  trivial guard (``true``, ``e != null``, conjunctions thereof).

The pass is modular, like the paper's checking: a call is classified
against the callee's declared modifies list, never its body, so a
caller's decisions do not depend on how (or whether) its callees are
implemented.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.oolong.ast import (
    Assign,
    AssignNew,
    Assume,
    BinOp,
    BoolConst,
    Call,
    Designator,
    Expr,
    FieldAccess,
    Id,
    ImplDecl,
    NullConst,
    ProcDecl,
)
from repro.oolong.program import Scope
from repro.analysis.diagnostics import Diagnostic, Note
from repro.analysis.facts import ImplFacts, Site, impl_facts, scope_lattice
from repro.analysis.inclusion import InclusionLattice
from repro.analysis.modifies import FRESH, PathVal
from repro.vcgen.wlp import ObligationInfo

#: Version of the discharge pass; folded into the parallel result-cache
#: key (see :func:`repro.parallel.cache.code_version`) so cached verdicts
#: never outlive a change in discharge semantics.
DISCHARGE_VERSION = 1


class Outcome(enum.Enum):
    """The three-way verdict of the discharge pass."""

    STATIC_VALID = "static-valid"
    STATIC_VIOLATION = "static-violation"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Refutation-safety gates
# ---------------------------------------------------------------------------


def _is_access_path(expr: Expr) -> bool:
    if isinstance(expr, Id):
        return True
    if isinstance(expr, FieldAccess):
        return _is_access_path(expr.obj)
    return False


def _trivial_guard(expr: Expr) -> bool:
    """Assumptions that cannot make the obligation context unsatisfiable:
    ``true``, ``e != null`` over an access path, and ``&&`` of those."""
    if isinstance(expr, BoolConst):
        return expr.value is True
    if isinstance(expr, BinOp):
        if expr.op == "&&":
            return _trivial_guard(expr.left) and _trivial_guard(expr.right)
        if expr.op == "!=":
            if isinstance(expr.right, NullConst):
                return _is_access_path(expr.left)
            if isinstance(expr.left, NullConst):
                return _is_access_path(expr.right)
    return False


def _only_trivial_assumes(facts: ImplFacts) -> bool:
    for cmd in facts.commands:
        if isinstance(cmd, Assume) and not _trivial_guard(cmd.condition):
            return False
    return True


def _reassigns_formal(facts: ImplFacts) -> bool:
    formals = set(facts.impl.params)
    for cmd in facts.commands:
        if isinstance(cmd, (Assign, AssignNew)):
            if isinstance(cmd.target, Id) and cmd.target.name in formals:
                return True
    return False


def _unstable_fields(
    scope: Scope, lattice: InclusionLattice, facts: ImplFacts
) -> FrozenSet[str]:
    """Fields the body (or any callee) may redirect. Coverage through an
    access path mentioning one of these cannot be trusted, because the
    declared modifies prefix is evaluated in the entry store while the
    write target is evaluated in the current store."""
    unstable = set()
    for cmd in facts.commands:
        if isinstance(cmd, (Assign, AssignNew)) and isinstance(
            cmd.target, FieldAccess
        ):
            unstable.add(cmd.target.attr)
        elif isinstance(cmd, Call):
            callee = scope.proc(cmd.proc)
            if callee is None:
                return frozenset(scope.attribute_names())
            unstable |= lattice.writable_fields(callee.modifies)
    return frozenset(unstable)


# ---------------------------------------------------------------------------
# Per-obligation classification
# ---------------------------------------------------------------------------


_COVERED = "covered"
_UNCOVERED = "uncovered"
_UNDECIDED = "undecided"


@dataclass
class ObligationDecision:
    """How the discharge pass classified one obligation."""

    obligation: ObligationInfo
    outcome: Outcome
    #: For violations: the uncovered location (as a formal-rooted
    #: designator) and the frame it was checked against.
    required: Optional[Designator] = None
    frame: Tuple[Designator, ...] = ()
    reason: str = ""

    def to_dict(self) -> dict:
        data = {
            "obligation": self.obligation.to_dict(),
            "outcome": self.outcome.value,
        }
        if self.required is not None:
            data["required"] = str(self.required)
        if self.reason:
            data["reason"] = self.reason
        return data


def _value_verdict(
    value,
    attr: str,
    covering: Mapping[PathVal, Tuple[int, ...]],
    unstable: FrozenSet[str],
) -> Tuple[str, Optional[Designator]]:
    """Classify one abstract value a written object may denote."""
    if value is FRESH:
        # Definitely allocated after entry: ¬alive($0, X) discharges the
        # licence outright.
        return _COVERED, None
    if not isinstance(value, PathVal):
        return _UNDECIDED, None
    required = Designator(value.root, value.path, attr)
    if value.path and any(f in unstable for f in value.path):
        # The entry-store and current-store readings of this path may
        # diverge; neither coverage nor refutation is safe.
        return _UNDECIDED, required
    if covering[value]:
        return _COVERED, required
    return _UNCOVERED, required


def _classify_mod(
    site: Site, unstable: FrozenSet[str], refutation_safe: bool
) -> Tuple[Outcome, Optional[Designator], str]:
    """Classify a ``mod(X·A, w, $0)`` obligation from the abstract values
    ``X`` may denote."""
    if not site.values:
        return Outcome.UNKNOWN, None, "target has no abstract value"
    verdicts = [
        _value_verdict(value, site.attr, site.covering, unstable)
        for value in site.values
    ]
    if all(verdict == _COVERED for verdict, _ in verdicts):
        return Outcome.STATIC_VALID, None, "all targets covered"
    if (
        len(verdicts) == 1
        and verdicts[0][0] == _UNCOVERED
        and refutation_safe
    ):
        return (
            Outcome.STATIC_VIOLATION,
            verdicts[0][1],
            "single uncovered target",
        )
    return Outcome.UNKNOWN, None, "coverage undecided"


@dataclass
class ImplDischarge:
    """The discharge verdict for one implementation."""

    proc_name: str
    index: int
    outcome: Outcome
    decisions: List[ObligationDecision] = field(default_factory=list)
    #: The decision that refutes the implementation, for violations.
    blame: Optional[ObligationDecision] = None
    #: Why the pass could not decide (undeclared procedure, crash).
    reason: str = ""
    error: Optional[str] = None


def _discharge_impl(
    scope: Scope,
    lattice: InclusionLattice,
    proc: ProcDecl,
    impl: ImplDecl,
    index: int,
) -> ImplDischarge:
    facts = impl_facts(scope, impl)
    unstable = _unstable_fields(scope, lattice, facts)
    refutation_safe = _only_trivial_assumes(facts) and not _reassigns_formal(
        facts
    )
    has_pivots = bool(scope.all_rep_triples())
    frame = tuple(proc.modifies)

    decisions = [
        _classify_site(site, frame, unstable, refutation_safe, has_pivots)
        for site in facts.sites
    ]

    blame = next(
        (d for d in decisions if d.outcome is Outcome.STATIC_VIOLATION), None
    )
    if blame is not None:
        outcome = Outcome.STATIC_VIOLATION
    elif all(d.outcome is Outcome.STATIC_VALID for d in decisions):
        outcome = Outcome.STATIC_VALID
    else:
        outcome = Outcome.UNKNOWN
    return ImplDischarge(
        proc_name=impl.name,
        index=index,
        outcome=outcome,
        decisions=decisions,
        blame=blame,
    )


def _classify_site(
    site: Site,
    frame: Tuple[Designator, ...],
    unstable: FrozenSet[str],
    refutation_safe: bool,
    has_pivots: bool,
) -> ObligationDecision:
    info = site.info
    if site.kind == "assert":
        condition = site.node.condition
        if isinstance(condition, BoolConst) and condition.value:
            return ObligationDecision(info, Outcome.STATIC_VALID, frame=frame)
        return ObligationDecision(
            info, Outcome.UNKNOWN, frame=frame, reason="non-trivial assert"
        )
    if site.kind == "owner-exclusion":
        # ownExcl is trivially true when the scope declares no rep
        # inclusions (no pivot can place an argument inside a rep).
        if not has_pivots:
            return ObligationDecision(info, Outcome.STATIC_VALID, frame=frame)
        return ObligationDecision(
            info, Outcome.UNKNOWN, frame=frame, reason="scope has pivots"
        )
    if site.state is None:
        return ObligationDecision(
            info, Outcome.UNKNOWN, frame=frame, reason="no dataflow state"
        )
    if site.values is None:
        return ObligationDecision(
            info, Outcome.UNKNOWN, frame=frame, reason="unbound root"
        )
    # A write or call licence: mod(X·A, w, $0) over the objects X the
    # site writes through (for a call, the owner the callee's designator
    # denotes at the call site).
    outcome, required, reason = _classify_mod(site, unstable, refutation_safe)
    return ObligationDecision(info, outcome, required, frame, reason)


# ---------------------------------------------------------------------------
# The scope-level pass
# ---------------------------------------------------------------------------


@dataclass
class DischargeResult:
    """Everything the discharge pass computed for one scope."""

    mode: str
    scope: Scope
    impls: Dict[Tuple[str, int], ImplDischarge]

    def outcome_of(self, proc_name: str, index: int) -> Outcome:
        entry = self.impls.get((proc_name, index))
        return entry.outcome if entry is not None else Outcome.UNKNOWN

    def obligation_counts(self) -> Dict[str, int]:
        tally = {outcome.value: 0 for outcome in Outcome}
        for entry in self.impls.values():
            if entry.outcome is Outcome.UNKNOWN:
                # The whole implementation goes to the prover; none of
                # its obligations are discharged, whatever their
                # individual classification said.
                tally[Outcome.UNKNOWN.value] += len(entry.decisions)
            else:
                for decision in entry.decisions:
                    tally[decision.outcome.value] += 1
        return tally

    def impl_counts(self) -> Dict[str, int]:
        tally = {outcome.value: 0 for outcome in Outcome}
        for entry in self.impls.values():
            tally[entry.outcome.value] += 1
        return tally

    def summary_dict(self) -> dict:
        obligations = self.obligation_counts()
        impls = self.impl_counts()
        total = sum(obligations.values())
        discharged = (
            obligations[Outcome.STATIC_VALID.value]
            + obligations[Outcome.STATIC_VIOLATION.value]
        )
        return {
            "mode": self.mode,
            "obligations": obligations,
            "impls": impls,
            "obligations_total": total,
            "discharge_rate": (discharged / total) if total else 0.0,
        }


def _blame_notes(
    scope: Scope, decision: ObligationDecision
) -> Tuple[Note, ...]:
    """Why no declared designator licenses the required location — one
    note per modifies entry, with the inclusion chain that *does* exist
    from its attribute (via :func:`repro.obs.explain.inclusion_chain`)
    when the failure is a path/root mismatch rather than a missing
    chain."""
    from repro.obs.explain import inclusion_chain

    required = decision.required
    notes: List[Note] = []
    if not decision.frame:
        notes.append(Note("the declared modifies list is empty"))
        return tuple(notes)
    for declared in decision.frame:
        if declared.root != required.root:
            notes.append(
                Note(
                    f"modifies {declared} is rooted at {declared.root!r} "
                    f"and cannot license {required}"
                )
            )
            continue
        chain = inclusion_chain(scope, declared.attr, required.attr)
        if chain is None:
            notes.append(
                Note(
                    f"modifies {declared}: no declared inclusion chain "
                    f"from {declared.attr!r} down to {required.attr!r}"
                )
            )
        else:
            notes.append(
                Note(
                    f"modifies {declared}: the chain {chain} does not "
                    f"apply along the access path of {required}"
                )
            )
    return tuple(notes)


def violation_diagnostic(
    scope: Scope, entry: ImplDischarge, decision: ObligationDecision
) -> Diagnostic:
    """The OL401 finding for a statically refuted obligation."""
    info = decision.obligation
    return Diagnostic(
        code="OL401",
        message=(
            f"{info.description}: requires a licence on "
            f"{decision.required}, which the declared modifies list "
            f"({', '.join(str(d) for d in decision.frame) or 'empty'}) "
            f"does not grant"
        ),
        position=info.position,
        impl=entry.proc_name,
        notes=_blame_notes(scope, decision),
    )


def discharge_scope(scope: Scope, mode: str = "on") -> DischargeResult:
    """Classify every obligation of every implementation in ``scope``.

    ``mode`` is recorded in the result's summary; ``"on"`` is the only
    mode.
    """
    if mode != "on":
        raise ValueError(f"unknown discharge mode {mode!r}; expected 'on'")
    lattice = scope_lattice(scope)
    result = DischargeResult(mode=mode, scope=scope, impls={})
    for proc_name, impls in scope.impls.items():
        proc = scope.proc(proc_name)
        for index, impl in enumerate(impls):
            if proc is None:
                entry = ImplDischarge(
                    proc_name=impl.name,
                    index=index,
                    outcome=Outcome.UNKNOWN,
                    reason="undeclared procedure",
                )
            else:
                try:
                    entry = _discharge_impl(scope, lattice, proc, impl, index)
                except Exception as exc:  # never let the pass kill a check
                    entry = ImplDischarge(
                        proc_name=impl.name,
                        index=index,
                        outcome=Outcome.UNKNOWN,
                        reason="discharge failed",
                        error=f"{type(exc).__name__}: {exc}",
                    )
            result.impls[(proc_name, index)] = entry
    return result

