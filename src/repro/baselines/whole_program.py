"""Whole-program side-effect inference (Jouvelot–Gifford style).

The comparison point from the paper's Related Work: instead of declared,
modularly-checked modifies lists, *infer* each procedure's write effects
from the implementations. The inference is a fixpoint over the call graph
and therefore needs every implementation — exactly the modularity cost the
paper's technique avoids — and its effects are field-*name* sets, blind to
which object is touched (object-insensitive), so frame queries are coarser
than data-group reasoning.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.oolong.ast import Assign, AssignNew, Call, FieldAccess, walk_commands
from repro.oolong.program import Scope
from repro.record import Record


class EffectTable(Record, frozen=True):
    """Per-procedure write effects (field names), plus provenance info."""

    effects: Dict[str, FrozenSet[str]]
    missing_impls: FrozenSet[str]

    def writes(self, proc_name: str) -> FrozenSet[str]:
        return self.effects.get(proc_name, frozenset())

    @property
    def whole_program(self) -> bool:
        """True iff every called procedure had an implementation."""
        return not self.missing_impls


def infer_effects(scope: Scope) -> EffectTable:
    """Fixpoint effect inference over the call graph.

    Procedures without any implementation contribute the *top* effect (all
    declared fields) — the analysis cannot see inside them, which is how
    the modularity comparison quantifies the cost of missing code.
    """
    all_fields = frozenset(scope.fields)
    direct: Dict[str, Set[str]] = {}
    callees: Dict[str, Set[str]] = {}
    missing: Set[str] = set()
    for proc_name in scope.procs:
        impls = scope.impls_of(proc_name)
        writes: Set[str] = set()
        calls: Set[str] = set()
        if not impls:
            missing.add(proc_name)
            writes = set(all_fields)
        for impl in impls:
            for cmd in walk_commands(impl.body):
                if isinstance(cmd, (Assign, AssignNew)):
                    if isinstance(cmd.target, FieldAccess):
                        writes.add(cmd.target.attr)
                elif isinstance(cmd, Call):
                    calls.add(cmd.proc)
        direct[proc_name] = writes
        callees[proc_name] = calls

    effects: Dict[str, Set[str]] = {name: set(ws) for name, ws in direct.items()}
    changed = True
    while changed:
        changed = False
        for proc_name, called in callees.items():
            for callee in called:
                before = len(effects[proc_name])
                effects[proc_name] |= effects.get(callee, set(all_fields))
                if len(effects[proc_name]) != before:
                    changed = True
    return EffectTable(
        effects={name: frozenset(ws) for name, ws in effects.items()},
        missing_impls=frozenset(missing),
    )


def frame_query(table: EffectTable, proc_name: str, field_name: str) -> bool:
    """Is ``field_name`` of *every* object preserved across a call?

    Object-insensitive: one write to ``cnt`` anywhere makes every ``x.cnt``
    unpreserved — the precision gap against data groups, which distinguish
    the objects a licence reaches.
    """
    return field_name not in table.writes(proc_name)
