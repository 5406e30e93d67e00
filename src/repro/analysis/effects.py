"""Interprocedural effect summaries and static frame-obligation discharge.

The prover's front door. Before any VC is generated, this pass walks
every implementation and classifies each of its proof obligations — the
same five obligation sites :mod:`repro.vcgen.wlp` registers, enumerated
in the same order with the same descriptions — by pure lattice reasoning
over the scope's inclusion relation (:class:`~repro.analysis.inclusion.
InclusionLattice`) and the access-path dataflow of
:mod:`repro.analysis.modifies`:

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

On top of the per-obligation classification the module computes
SCC-condensed **interprocedural effect summaries** (each procedure's
transitive, downward-closed write effect, a fixpoint over
:meth:`~repro.analysis.callgraph.CallGraph.sccs` that is sound for self
and mutual recursion) and a per-declaration **interface hash** for
future incremental checking. Summaries degrade to *opaque* — and strict
mode then refuses to discharge — whenever a write cannot be named: a
callee without implementations, an unknown actual, or an access path
beyond the widening cap.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import VerificationError
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
    Designator,
    Expr,
    FieldAccess,
    Id,
    ImplDecl,
    NullConst,
    ProcDecl,
    Seq,
    Skip,
    VarCmd,
)
from repro.oolong.pretty import pretty_decl
from repro.oolong.program import Scope
from repro.analysis.callgraph import CallGraph
from repro.analysis.diagnostics import Diagnostic, Note
from repro.analysis.facts import (
    ImplFacts,
    impl_facts,
    scope_call_graph,
    scope_lattice,
)
from repro.analysis.inclusion import InclusionLattice
from repro.analysis.modifies import FRESH, PathVal, eval_expr
from repro.vcgen.wlp import ObligationInfo

#: Version of the discharge pass; folded into the parallel result-cache
#: key (see :func:`repro.parallel.cache.code_version`) so cached verdicts
#: never outlive a change in discharge semantics.
DISCHARGE_VERSION = 1

#: Access paths longer than this are widened to *opaque* during the
#: summary fixpoint — the cap that keeps recursive scopes finite.
MAX_SUMMARY_PATH = 4


class Outcome(enum.Enum):
    """The three-way verdict of the discharge pass."""

    STATIC_VALID = "static-valid"
    STATIC_VIOLATION = "static-violation"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Obligation enumeration (the static mirror of wlp registration)
# ---------------------------------------------------------------------------


@dataclass
class _Site:
    """One obligation plus the AST context needed to classify it."""

    info: ObligationInfo
    node: Cmd
    #: For call obligations: the callee declaration …
    callee: Optional[ProcDecl] = None
    #: … and the modifies-list entry being licensed (call-licence only).
    designator: Optional[Designator] = None


def _obligation_sites(
    scope: Scope, proc: ProcDecl, impl: ImplDecl
) -> List[_Site]:
    """Enumerate ``impl``'s obligations in wlp registration order.

    Must mirror :func:`repro.vcgen.wlp.wlp` exactly — same order, same
    kinds, same description strings — because ``--check-discharge``
    compares classifications against prover verdicts obligation by
    obligation. wlp registers while building the formula backwards, so a
    ``Seq`` registers its *second* command's obligations first.
    """
    sites: List[_Site] = []
    self_modifies = tuple(str(d) for d in proc.modifies)

    def add(kind: str, description: str, node: Cmd, **details) -> _Site:
        info = ObligationInfo(len(sites), kind, description, **details)
        site = _Site(info=info, node=node)
        sites.append(site)
        return site

    def emit(cmd: Cmd) -> None:
        """Register the obligations of one atomic command."""
        if isinstance(cmd, (Assume, Skip)):
            return
        if isinstance(cmd, Assert):
            where = f"assert {cmd.condition}" + (
                f" at {cmd.position}" if cmd.position else ""
            )
            add(
                "assert",
                where,
                cmd,
                position=cmd.position,
                target=str(cmd.condition),
            )
            return
        if isinstance(cmd, Assign):
            if isinstance(cmd.target, FieldAccess):
                add(
                    "write-licence",
                    f"write to {cmd.target}"
                    + (f" at {cmd.position}" if cmd.position else ""),
                    cmd,
                    position=cmd.position,
                    target=str(cmd.target),
                    attr=cmd.target.attr,
                    modifies=self_modifies,
                )
            return
        if isinstance(cmd, AssignNew):
            if isinstance(cmd.target, FieldAccess):
                add(
                    "write-licence",
                    f"allocation into {cmd.target}"
                    + (f" at {cmd.position}" if cmd.position else ""),
                    cmd,
                    position=cmd.position,
                    target=str(cmd.target),
                    attr=cmd.target.attr,
                    modifies=self_modifies,
                )
            return
        if isinstance(cmd, Call):
            callee = scope.proc(cmd.proc)
            if callee is None:
                raise VerificationError(
                    f"call to undeclared procedure {cmd.proc!r}"
                )
            where = f"call {cmd.proc}" + (
                f" at {cmd.position}" if cmd.position else ""
            )
            for designator in callee.modifies:
                site = add(
                    "call-licence",
                    f"{where}: callee may modify {designator}",
                    cmd,
                    position=cmd.position,
                    target=str(designator),
                    attr=designator.attr,
                    modifies=self_modifies,
                    callee=cmd.proc,
                )
                site.callee = callee
                site.designator = designator
            if callee.modifies:
                for index, arg in enumerate(cmd.args):
                    site = add(
                        "owner-exclusion",
                        f"{where}: argument #{index + 1} ({arg})",
                        cmd,
                        position=cmd.position,
                        target=str(arg),
                        modifies=tuple(str(d) for d in callee.modifies),
                        callee=cmd.proc,
                        arg_index=index + 1,
                    )
                    site.callee = callee
            return
        raise VerificationError(f"cannot enumerate obligations for {cmd!r}")

    # Depth-first with an explicit stack, children pushed in reverse of
    # wlp's order: a Seq's second command first, a Choice's left arm
    # first. (A self-recursive closure would keep the scope in a
    # reference cycle after the call.)
    stack = [impl.body]
    while stack:
        cmd = stack.pop()
        if isinstance(cmd, VarCmd):
            stack.append(cmd.body)
        elif isinstance(cmd, Seq):
            stack.extend((cmd.first, cmd.second))
        elif isinstance(cmd, Choice):
            stack.extend((cmd.right, cmd.left))
        else:
            emit(cmd)
    return sites


def enumerate_obligations(
    scope: Scope, proc: ProcDecl, impl: ImplDecl
) -> List[ObligationInfo]:
    """The obligations wlp would register for ``impl``, without building
    a single formula."""
    return [site.info for site in _obligation_sites(scope, proc, impl)]


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
    frame: Tuple[Designator, ...],
    lattice: InclusionLattice,
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
    if lattice.covered_by_frame(frame, required):
        return _COVERED, required
    return _UNCOVERED, required


def _classify_mod(
    values,
    attr: str,
    frame: Tuple[Designator, ...],
    lattice: InclusionLattice,
    unstable: FrozenSet[str],
    refutation_safe: bool,
) -> Tuple[Outcome, Optional[Designator], str]:
    """Classify a ``mod(X·A, w, $0)`` obligation from the abstract values
    ``X`` may denote."""
    if not values:
        return Outcome.UNKNOWN, None, "target has no abstract value"
    verdicts = [
        _value_verdict(value, attr, frame, lattice, unstable)
        for value in values
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
    #: Why a would-be discharge was withheld (strict mode, crash, ...).
    reason: str = ""
    error: Optional[str] = None

    def counts(self) -> Dict[str, int]:
        tally = {outcome.value: 0 for outcome in Outcome}
        for decision in self.decisions:
            tally[decision.outcome.value] += 1
        return tally


def _discharge_impl(
    scope: Scope,
    lattice: InclusionLattice,
    proc: ProcDecl,
    impl: ImplDecl,
    index: int,
) -> ImplDischarge:
    sites = _obligation_sites(scope, proc, impl)
    facts = impl_facts(scope, impl)
    unstable = _unstable_fields(scope, lattice, facts)
    refutation_safe = _only_trivial_assumes(facts) and not _reassigns_formal(
        facts
    )
    has_pivots = bool(scope.all_rep_triples())
    frame = tuple(proc.modifies)

    decisions: List[ObligationDecision] = []
    for site in sites:
        decisions.append(
            _classify_site(
                site, facts, lattice, frame, unstable,
                refutation_safe, has_pivots,
            )
        )

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
    site: _Site,
    facts: ImplFacts,
    lattice: InclusionLattice,
    frame: Tuple[Designator, ...],
    unstable: FrozenSet[str],
    refutation_safe: bool,
    has_pivots: bool,
) -> ObligationDecision:
    info = site.info
    node = site.node
    if info.kind == "assert":
        assert isinstance(node, Assert)
        if isinstance(node.condition, BoolConst) and node.condition.value:
            return ObligationDecision(info, Outcome.STATIC_VALID, frame=frame)
        return ObligationDecision(
            info, Outcome.UNKNOWN, frame=frame, reason="non-trivial assert"
        )
    if info.kind == "owner-exclusion":
        # ownExcl is trivially true when the scope declares no rep
        # inclusions (no pivot can place an argument inside a rep).
        if not has_pivots:
            return ObligationDecision(info, Outcome.STATIC_VALID, frame=frame)
        return ObligationDecision(
            info, Outcome.UNKNOWN, frame=frame, reason="scope has pivots"
        )
    state = facts.state_at(node)
    if state is None:
        return ObligationDecision(
            info, Outcome.UNKNOWN, frame=frame, reason="no dataflow state"
        )
    if info.kind == "write-licence":
        assert isinstance(node, (Assign, AssignNew))
        assert isinstance(node.target, FieldAccess)
        values = eval_expr(node.target.obj, state)
        outcome, required, reason = _classify_mod(
            values, node.target.attr, frame, lattice, unstable,
            refutation_safe,
        )
        return ObligationDecision(info, outcome, required, frame, reason)
    if info.kind == "call-licence":
        assert isinstance(node, Call)
        callee = site.callee
        designator = site.designator
        actuals = dict(zip(callee.params, node.args))
        actual = actuals.get(designator.root)
        if actual is None:
            return ObligationDecision(
                info, Outcome.UNKNOWN, frame=frame, reason="unbound root"
            )
        # The licence is on the *owner* the callee's designator denotes:
        # the actual extended by the designator's pivot path, evaluated
        # at the call site.
        owner: Expr = actual
        for field_name in designator.path:
            owner = FieldAccess(owner, field_name)
        values = eval_expr(owner, state)
        outcome, required, reason = _classify_mod(
            values, designator.attr, frame, lattice, unstable,
            refutation_safe,
        )
        return ObligationDecision(info, outcome, required, frame, reason)
    return ObligationDecision(
        info, Outcome.UNKNOWN, frame=frame, reason=f"kind {info.kind!r}"
    )


# ---------------------------------------------------------------------------
# Interprocedural effect summaries (SCC fixpoint)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectSummary:
    """A procedure's transitive write effect on entry-reachable state.

    ``writes`` are formal-rooted designators; ``opaque`` means some write
    could not be named (missing implementation, unknown target, widened
    path) and the true effect may be larger.
    """

    writes: FrozenSet[Designator] = frozenset()
    opaque: bool = False

    def render(self) -> Tuple[str, ...]:
        return tuple(sorted(str(d) for d in self.writes))


def _impl_effect(
    scope: Scope,
    facts: ImplFacts,
    summaries: Dict[str, EffectSummary],
) -> EffectSummary:
    writes = set()
    opaque = False

    def record(value, path_suffix: Tuple[str, ...], attr: str) -> None:
        nonlocal opaque
        if value is FRESH:
            return  # writes inside fresh objects are invisible at entry
        if not isinstance(value, PathVal):
            opaque = True
            return
        path = value.path + path_suffix
        if len(path) > MAX_SUMMARY_PATH:
            opaque = True  # widen instead of diverging on recursion
            return
        writes.add(Designator(value.root, path, attr))

    for cmd in facts.commands:
        state = facts.state_at(cmd)
        if isinstance(cmd, (Assign, AssignNew)) and isinstance(
            cmd.target, FieldAccess
        ):
            if state is None:
                opaque = True
                continue
            for value in eval_expr(cmd.target.obj, state):
                record(value, (), cmd.target.attr)
        elif isinstance(cmd, Call):
            callee = scope.proc(cmd.proc)
            summary = summaries.get(cmd.proc)
            if callee is None or summary is None or state is None:
                opaque = True
                continue
            if summary.opaque:
                opaque = True
            actuals = dict(zip(callee.params, cmd.args))
            for designator in summary.writes:
                actual = actuals.get(designator.root)
                if actual is None:
                    opaque = True
                    continue
                for value in eval_expr(actual, state):
                    record(value, designator.path, designator.attr)
    return EffectSummary(frozenset(writes), opaque)


def compute_summaries(
    scope: Scope, graph: Optional[CallGraph] = None
) -> Dict[str, EffectSummary]:
    """Every procedure's transitive write effect, by fixpoint over the
    condensed call graph (callees first; components iterate until their
    members stabilise, which self/mutual recursion needs)."""
    graph = graph or scope_call_graph(scope)
    summaries: Dict[str, EffectSummary] = {}
    for component in graph.sccs():
        for name in component:
            if not scope.impls_of(name):
                # No implementation to analyse: the effect is unknown.
                summaries[name] = EffectSummary(frozenset(), opaque=True)
            else:
                summaries[name] = EffectSummary()
        changed = True
        while changed:
            changed = False
            for name in component:
                if not scope.impls_of(name):
                    continue
                merged = set()
                opaque = False
                for impl in scope.impls_of(name):
                    effect = _impl_effect(
                        scope, impl_facts(scope, impl), summaries
                    )
                    merged |= effect.writes
                    opaque = opaque or effect.opaque
                candidate = EffectSummary(frozenset(merged), opaque)
                if candidate != summaries[name]:
                    summaries[name] = candidate
                    changed = True
            if not graph.is_recursive(component):
                break  # no member reads its own summary: one pass is final
    return summaries


# ---------------------------------------------------------------------------
# Interface hashes (for incremental checking)
# ---------------------------------------------------------------------------


def interface_hashes(
    scope: Scope, summaries: Optional[Dict[str, EffectSummary]] = None
) -> Dict[str, str]:
    """A stable per-declaration digest of everything a *caller* can
    observe: the pretty-printed declaration, its place in the inclusion
    relation, and (for procedures) the computed effect summary. Two
    scopes agreeing on a declaration's hash can reuse verdicts that only
    depend on that declaration's interface."""
    if summaries is None:
        summaries = compute_summaries(scope)
    lattice = scope_lattice(scope)
    hashes: Dict[str, str] = {}

    def digest(*parts: str) -> str:
        payload = "\x00".join(parts).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    for name, decl in scope.groups.items():
        hashes[name] = digest(
            "group", pretty_decl(decl), *sorted(lattice.downward(name))
        )
    for name, decl in scope.fields.items():
        reps = [f"{g}->{m}" for g, m in sorted(scope.rep_pairs(name))]
        hashes[name] = digest(
            "field",
            pretty_decl(decl),
            *(sorted(scope.enclosing_groups(name)) + reps),
        )
    for name, decl in scope.procs.items():
        summary = summaries.get(name, EffectSummary(opaque=True))
        hashes[name] = digest(
            "proc",
            pretty_decl(decl),
            "opaque" if summary.opaque else "exact",
            *summary.render(),
        )
    return hashes


def scope_interface_hash(
    scope: Scope, summaries: Optional[Dict[str, EffectSummary]] = None
) -> str:
    """One digest for the whole scope's interface."""
    hashes = interface_hashes(scope, summaries)
    payload = "\x00".join(
        f"{name}={value}" for name, value in sorted(hashes.items())
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The scope-level pass
# ---------------------------------------------------------------------------


@dataclass
class DischargeResult:
    """Everything the discharge pass computed for one scope."""

    mode: str
    scope: Scope
    impls: Dict[Tuple[str, int], ImplDischarge]
    summaries: Dict[str, EffectSummary]
    lattice: InclusionLattice
    diagnostics: List[Diagnostic] = field(default_factory=list)

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

    ``mode="strict"`` additionally withholds ``STATIC_VALID`` from any
    implementation whose own effect summary is opaque or exceeds its
    declared frame, and reports the deferral as OL403 (info).
    """
    if mode not in ("on", "strict"):
        raise ValueError(f"unknown discharge mode {mode!r}")
    lattice = scope_lattice(scope)
    summaries = compute_summaries(scope, scope_call_graph(scope))
    result = DischargeResult(
        mode=mode, scope=scope, impls={}, summaries=summaries, lattice=lattice
    )
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
            if mode == "strict" and entry.outcome is Outcome.STATIC_VALID:
                reason = _strict_block_reason(
                    scope, lattice, summaries, proc, impl
                )
                if reason is not None:
                    entry.outcome = Outcome.UNKNOWN
                    entry.reason = reason
                    result.diagnostics.append(
                        Diagnostic(
                            code="OL403",
                            message=(
                                f"{len(entry.decisions)} obligation(s) of "
                                f"{impl.name!r} deferred to the prover: "
                                f"{reason}"
                            ),
                            position=impl.position,
                            impl=impl.name,
                        )
                    )
            result.impls[(proc_name, index)] = entry
    return result


def _strict_block_reason(
    scope: Scope,
    lattice: InclusionLattice,
    summaries: Dict[str, EffectSummary],
    proc: ProcDecl,
    impl: ImplDecl,
) -> Optional[str]:
    """Strict mode: a discharged implementation must also have an exact
    effect summary contained in its declared frame."""
    summary = summaries.get(proc.name)
    if summary is None or summary.opaque:
        return "effect summary is opaque"
    for written in summary.writes:
        if not lattice.covered_by_frame(proc.modifies, written):
            return f"summary effect {written} exceeds the declared frame"
    return None
