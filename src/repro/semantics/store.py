"""The runtime object store.

Objects are numbered in allocation order and wrapped in :class:`ObjRef` so
they cannot be confused with integer values. Every object possesses every
field (oolong is untyped); unwritten fields read as ``null`` (``None``),
which keeps the pivot-uniqueness store invariant true for fresh objects.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple, Union

from repro.record import Record

#: Runtime values: null is None; booleans and ints are themselves.
Value = Union[None, bool, int, "ObjRef"]


class ObjRef(Record, frozen=True):
    """A reference to an allocated object."""

    oid: int

    def __repr__(self) -> str:
        return f"obj#{self.oid}"


class RuntimeStore:
    """A mutable object store with allocation tracking and snapshots."""

    def __init__(self):
        self._next_oid = 0
        self._alive: Set[int] = set()
        self._fields: Dict[Tuple[int, str], Value] = {}

    def allocate(self) -> ObjRef:
        """Allocate a fresh object; all its fields read as null."""
        ref = ObjRef(self._next_oid)
        self._next_oid += 1
        self._alive.add(ref.oid)
        return ref

    def is_alive(self, value: Value) -> bool:
        return isinstance(value, ObjRef) and value.oid in self._alive

    def alive_objects(self) -> Tuple[ObjRef, ...]:
        return tuple(ObjRef(oid) for oid in sorted(self._alive))

    def read(self, obj: ObjRef, field: str) -> Value:
        return self._fields.get((obj.oid, field))

    def write(self, obj: ObjRef, field: str, value: Value) -> None:
        self._fields[(obj.oid, field)] = value

    def written_locations(self) -> Tuple[Tuple[ObjRef, str], ...]:
        return tuple(
            (ObjRef(oid), field) for (oid, field) in sorted(self._fields)
        )

    def snapshot(self) -> "RuntimeStore":
        """An independent copy (used for entry stores and branching)."""
        copy = RuntimeStore()
        copy._next_oid = self._next_oid
        copy._alive = set(self._alive)
        copy._fields = dict(self._fields)
        return copy

    def __repr__(self) -> str:
        return (
            f"RuntimeStore(alive={sorted(self._alive)}, "
            f"fields={len(self._fields)})"
        )
