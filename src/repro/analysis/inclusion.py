"""Precomputed inclusion lattice over a scope's data-group hierarchy.

The licence semantics of the paper rest on one relation: a licence on
``X.a`` covers a location ``(o, b)`` when ``b`` is reachable from ``a``
through the declared inclusions — local inclusions (``a ≽ b``, i.e. ``b``
declared ``in a``) plus rep inclusions through pivot fields (``g —f→ x``
from ``field f maps x into g``). This module precomputes the whole
lattice once per scope and is the checker's only decision procedure for
that relation: the scope's analysis cache (:mod:`repro.analysis.facts`)
holds one lattice that modifies inference (``OL301``/``OL302``, and
:func:`repro.analysis.modifies.covers`, a one-line call into it), the
discharge pass (:mod:`repro.analysis.effects`) and the interface hashes
all query. Subsumption queries take near-constant time, and static
``inc`` reachability is enumerated without touching a store.

Cyclic rep inclusions (``field next maps g into g`` — the scope family on
which the paper reports Simplify divergence, EX-5.3) are harmless here:
every closure is a fixpoint over the *finite* attribute set, so it
terminates regardless of cycles in the declared relation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.oolong.ast import Designator
from repro.oolong.program import Scope


class InclusionLattice:
    """Reflexive-transitive closure of a scope's inclusion relation.

    Keeps no reference to the scope, so a scope that caches its lattice
    forms no reference cycle and is freed as soon as it is dropped."""

    def __init__(self, scope: Scope):
        self._fields = frozenset(scope.fields)
        attrs = tuple(scope.attribute_names())
        # Local downward closure: down[a] = every attribute b with a ≽ b
        # (b == a, or b transitively declared ``in`` a). enclosing_groups
        # is the upward closure, so invert it.
        down: Dict[str, set] = {attr: {attr} for attr in attrs}
        for attr in attrs:
            for group in scope.enclosing_groups(attr):
                down.setdefault(group, set()).add(attr)
        self._down: Dict[str, FrozenSet[str]] = {
            name: frozenset(members) for name, members in down.items()
        }
        # Pivot steps: steps[f] = ((into_group, mapped), ...) from every
        # ``field f maps mapped into into_group`` clause.
        self._steps: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        for field_name, group, mapped in scope.all_rep_triples():
            self._steps.setdefault(field_name, ())
            self._steps[field_name] = self._steps[field_name] + ((group, mapped),)
        self._reachable: Dict[str, FrozenSet[str]] = {}

    # -- O(1)-ish primitive queries -----------------------------------------

    def downward(self, attr: str) -> FrozenSet[str]:
        """All attributes locally included in ``attr`` (reflexive)."""
        return self._down.get(attr, frozenset({attr}))

    def locally_covers(self, group: str, attr: str) -> bool:
        """``group ≽ attr`` — one hash lookup and one set membership."""
        return attr in self.downward(group)

    def step(self, field_name: str, attrs: FrozenSet[str]) -> FrozenSet[str]:
        """Cross one pivot field: the rep attributes reachable from any
        group in ``attrs`` through ``field_name``'s maps clauses."""
        stepped = set()
        for group, mapped in self._steps.get(field_name, ()):
            if group in attrs:
                stepped.add(mapped)
        return frozenset(stepped)

    # -- closures ------------------------------------------------------------

    def reachable(self, attr: str) -> FrozenSet[str]:
        """Static ``inc`` reachability: every attribute a licence on
        ``attr`` could ever cover, through any chain of local inclusions
        and pivot steps (over all fields). A fixpoint over the finite
        attribute set — terminates on cyclic rep inclusions."""
        cached = self._reachable.get(attr)
        if cached is not None:
            return cached
        closed = set(self.downward(attr))
        changed = True
        while changed:
            changed = False
            for field_name in self._steps:
                for mapped in self.step(field_name, frozenset(closed)):
                    members = self.downward(mapped)
                    if not members <= closed:
                        closed |= members
                        changed = True
        result = frozenset(closed)
        self._reachable[attr] = result
        return result

    def writable_fields(self, designators) -> FrozenSet[str]:
        """Every *field* a frame of ``designators`` could license a write
        to, downward-closed through pivots. Used to decide which fields a
        callee may redirect."""
        fields = set()
        for designator in designators:
            for attr in self.reachable(designator.attr):
                if attr in self._fields:
                    fields.add(attr)
        return frozenset(fields)

    # -- subsumption ---------------------------------------------------------

    def covers(self, declared: Designator, required: Designator) -> bool:
        """Does the licence ``declared`` imply the licence ``required``?

        ``declared = r.p1...pk.a`` covers ``required = r.p1...pk.q1...qm.b``
        when stepping ``a``'s downward closure through the rep inclusions
        of the pivots ``q1...qm`` still contains ``b``. Every closure is a
        precomputed set lookup. (``tests/test_effects.py`` holds this
        against a reference that rescans the declarations per closure.)
        """
        if declared.root != required.root:
            return False
        k = len(declared.path)
        if k > len(required.path):
            return False
        if tuple(required.path[:k]) != tuple(declared.path):
            return False
        attrs = self.downward(declared.attr)
        for field_name in required.path[k:]:
            stepped = self.step(field_name, attrs)
            if not stepped:
                return False
            merged = set()
            for mapped in stepped:
                merged |= self.downward(mapped)
            attrs = frozenset(merged)
        return required.attr in attrs

    def covered_by_frame(self, frame, required: Designator) -> bool:
        """Is ``required`` licensed by any designator of ``frame``?"""
        return any(self.covers(declared, required) for declared in frame)
