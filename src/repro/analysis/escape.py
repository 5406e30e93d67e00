"""Flow-sensitive pivot escape analysis (code ``OL110``).

The syntactic restriction pass (:mod:`repro.restrictions.pivot`) flags
every *introduction* of a confined value into a local — each ``x := t``
formal copy and each ``x := e.p`` pivot read — but says nothing about
where the value goes, and flags copies whose value provably never reaches
the heap. This pass complements it with a taint analysis over the CFG:

* a local is *tainted* when it may hold a pivot value — seeded by formal
  parameters (which may carry pivots per the paper's stack-copy
  exemption) and by pivot-field reads, and propagated through local
  copies;
* a diagnostic is emitted only at a *heap sink* — an assignment that
  stores a tainted value (or a direct pivot read) into an object field —
  and carries the full flow path from source to sink as notes.

The sink sites (``r.obj := tmp`` after ``tmp := st.vec``) are exactly the
stores the syntactic pass cannot see, because a local on the right-hand
side is locally legal; conversely, a formal copied into a local that dies
locally is flagged syntactically but produces no diagnostic here. The
differential test suite checks both directions of that relationship.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import SourcePosition
from repro.oolong.ast import Assign, Expr, FieldAccess, Id, ImplDecl
from repro.oolong.program import Scope
from repro.analysis.cfg import ASSIGN, ASSIGN_NEW, VAR_ENTER, VAR_EXIT, Statement
from repro.analysis.dataflow import ForwardAnalysis, forward_states
from repro.analysis.diagnostics import Diagnostic, Note
from repro.analysis.facts import impl_facts


class TaintStep:
    """One assignment along a flow path."""

    __slots__ = ("description", "position")

    def __init__(self, description: str, position: Optional[SourcePosition]):
        self.description = description
        self.position = position

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TaintStep)
            and self.description == other.description
        )

    def __hash__(self) -> int:
        return hash(self.description)

    def __repr__(self) -> str:
        return f"TaintStep({self.description!r})"


class Taint:
    """Why a local may hold a confined value, with the path that got it
    there. ``kind`` is ``'pivot'`` (value read from a pivot field) or
    ``'formal'`` (value of a formal parameter, which may be a pivot copy)."""

    __slots__ = ("kind", "source", "steps")

    def __init__(self, kind: str, source: str, steps: Tuple[TaintStep, ...] = ()):
        self.kind = kind
        self.source = source
        self.steps = steps

    def extended(self, step: TaintStep) -> "Taint":
        return Taint(self.kind, self.source, self.steps + (step,))

    def describe_source(self) -> str:
        if self.kind == "pivot":
            return f"pivot field {self.source!r}"
        return f"formal parameter {self.source!r}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Taint)
            and self.kind == other.kind
            and self.source == other.source
            and self.steps == other.steps
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.source, self.steps))


#: The dataflow state: local name -> set of taints it may carry.
TaintState = Dict[str, FrozenSet[Taint]]


class PivotEscapeAnalysis(ForwardAnalysis):
    """The taint-propagation problem for one implementation."""

    def __init__(self, scope: Scope, impl: ImplDecl):
        self.scope = scope
        self.impl = impl

    # -- dataflow interface -------------------------------------------------

    def initial_state(self, cfg) -> TaintState:
        return {
            param: frozenset({Taint("formal", param)})
            for param in self.impl.params
        }

    def join(self, states: List[TaintState]) -> TaintState:
        merged: Dict[str, FrozenSet[Taint]] = {}
        for state in states:
            for var, taints in state.items():
                merged[var] = merged.get(var, frozenset()) | taints
        return merged

    def transfer(self, stmt: Statement, state: TaintState) -> TaintState:
        if stmt.kind == VAR_ENTER:
            new = dict(state)
            new[stmt.var] = frozenset()
            return new
        if stmt.kind == VAR_EXIT:
            new = dict(state)
            new.pop(stmt.var, None)
            return new
        if stmt.kind == ASSIGN_NEW:
            node = stmt.node
            if isinstance(node.target, Id):
                new = dict(state)
                new[node.target.name] = frozenset()
                return new
            return state
        if stmt.kind == ASSIGN:
            node = stmt.node
            if isinstance(node.target, Id):
                new = dict(state)
                new[node.target.name] = self._rhs_taints(
                    node.target.name, node.rhs, state, node.position
                )
                return new
            return state  # heap stores are sinks, not taint producers
        return state  # assert / assume / call leave locals unchanged

    # -- taint computation --------------------------------------------------

    def _rhs_taints(
        self,
        target: str,
        rhs: Expr,
        state: TaintState,
        position: Optional[SourcePosition],
    ) -> FrozenSet[Taint]:
        if isinstance(rhs, Id):
            step = TaintStep(f"{target} := {rhs.name}", position)
            return frozenset(t.extended(step) for t in state.get(rhs.name, frozenset()))
        if isinstance(rhs, FieldAccess) and self.scope.is_pivot(rhs.attr):
            step = TaintStep(f"{target} := {rhs} (pivot read)", position)
            return frozenset({Taint("pivot", rhs.attr, (step,))})
        # Constants, arithmetic, non-pivot field reads: no confined value.
        return frozenset()

    def sink_taints(self, stmt: Statement, state: TaintState) -> List[Taint]:
        """The taints stored to the heap by ``stmt``, if it is a sink."""
        if stmt.kind != ASSIGN:
            return []
        node = stmt.node
        if not isinstance(node.target, FieldAccess):
            return []
        rhs = node.rhs
        if isinstance(rhs, Id):
            # Shortest path first, ties by step text (not by hash order).
            return sorted(
                state.get(rhs.name, frozenset()),
                key=lambda t: (len(t.steps), t.kind, t.source)
                + tuple(step.description for step in t.steps),
            )
        if isinstance(rhs, FieldAccess) and self.scope.is_pivot(rhs.attr):
            step = TaintStep(f"{node.target} := {rhs} (pivot read)", node.position)
            return [Taint("pivot", rhs.attr, (step,))]
        return []


def check_impl_escapes(scope: Scope, impl: ImplDecl) -> List[Diagnostic]:
    """All OL110 escapes in one implementation, with flow paths."""
    cfg = impl_facts(scope, impl).cfg
    analysis = PivotEscapeAnalysis(scope, impl)
    diagnostics: List[Diagnostic] = []
    for stmt, state in forward_states(cfg, analysis):
        taints = analysis.sink_taints(stmt, state)
        if not taints:
            continue
        node = stmt.node
        assert isinstance(node, Assign) and isinstance(node.target, FieldAccess)
        seen_sources = set()
        for taint in taints:
            key = (taint.kind, taint.source)
            if key in seen_sources:
                continue  # one representative (shortest) path per source
            seen_sources.add(key)
            sink = TaintStep(
                f"{node.target} := {node.rhs} (heap store)", node.position
            )
            steps = taint.steps if taint.steps else ()
            notes = tuple(
                Note(step.description, step.position)
                for step in steps + (sink,)
            )
            diagnostics.append(
                Diagnostic(
                    code="OL110",
                    message=(
                        f"value of {taint.describe_source()} may escape into "
                        f"field {node.target.attr!r} "
                        f"(flow path of {len(notes)} step"
                        f"{'s' if len(notes) != 1 else ''})"
                    ),
                    position=node.position,
                    impl=impl.name,
                    notes=notes,
                )
            )
    return diagnostics


def check_pivot_escapes(scope: Scope) -> List[Diagnostic]:
    """Run the flow-sensitive escape analysis over every implementation."""
    diagnostics: List[Diagnostic] = []
    for impls in scope.impls.values():
        for impl in impls:
            diagnostics.extend(check_impl_escapes(scope, impl))
    return diagnostics
