"""Abstract syntax for oolong (Figures 0 and 1 of the paper).

All nodes are immutable dataclasses. Equality is structural, which the test
suite and the pretty-printer round-trip checks rely on. Source positions are
optional and excluded from equality so that programmatically built trees
compare equal to parsed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.errors import SourcePosition

# ---------------------------------------------------------------------------
# Expressions (Figure 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for oolong expressions."""


@dataclass(frozen=True)
class NullConst(Expr):
    """The literal ``null``."""

    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True)
class BoolConst(Expr):
    """``true`` or ``false``."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class IntConst(Expr):
    """A non-negative integer literal (``0 | 1 | 2 | ...``)."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Id(Expr):
    """A local variable or formal parameter occurrence."""

    name: str
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FieldAccess(Expr):
    """A designator expression ``obj.attr``.

    In commands ``attr`` must be a field; data groups may appear as the final
    selector only inside modifies lists.
    """

    obj: Expr
    attr: str
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.obj}.{self.attr}"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operator application, e.g. ``x + 1`` or ``v = null``."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operator application; only ``!`` (negation) is predefined."""

    op: str
    operand: Expr

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


#: Operators whose result is an object reference. The pivot uniqueness
#: restriction forbids object-returning operators on assignment right-hand
#: sides; none of the predefined operators return objects, which the
#: restriction checker relies on.
OBJECT_RETURNING_OPS: Tuple[str, ...] = ()

#: Every predefined binary operator and whether it is boolean-valued.
BINARY_OPS = {
    "=": True,
    "!=": True,
    "<": True,
    "<=": True,
    ">": True,
    ">=": True,
    "&&": True,
    "||": True,
    "+": False,
    "-": False,
    "*": False,
}


# ---------------------------------------------------------------------------
# Commands (Figure 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cmd:
    """Base class for oolong commands."""


@dataclass(frozen=True)
class Assert(Cmd):
    """``assert E`` — goes wrong unless E holds."""

    condition: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)


@dataclass(frozen=True)
class Assume(Cmd):
    """``assume E`` — blocks unless E holds."""

    condition: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)


@dataclass(frozen=True)
class VarCmd(Cmd):
    """``var x in C end`` — a fresh local with arbitrary initial value."""

    name: str
    body: Cmd
    position: Optional[SourcePosition] = field(default=None, compare=False)


@dataclass(frozen=True)
class Assign(Cmd):
    """``target := rhs`` where ``target`` is an Id or a FieldAccess."""

    target: Expr
    rhs: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)


@dataclass(frozen=True)
class AssignNew(Cmd):
    """``target := new()`` — allocate a fresh object."""

    target: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)


@dataclass(frozen=True)
class Seq(Cmd):
    """``C1 ; ... ; Cn`` — sequential composition, n >= 2, one flat node.

    ``cmds[0]`` is never a ``Seq`` (:func:`sequence` splices it in, so
    ``(a ; b) ; c`` is ``a ; b ; c``); a later ``Seq`` is a parenthesized
    ``a ; (b ; c)``.
    """

    cmds: Tuple[Cmd, ...]


@dataclass(frozen=True)
class Choice(Cmd):
    """``C1 [] ... [] Cn`` — demonic (arbitrary) choice, n >= 2, one flat
    node; ``cmds[0]`` is never a ``Choice`` (:func:`choice` splices it in)."""

    cmds: Tuple[Cmd, ...]


@dataclass(frozen=True)
class Call(Cmd):
    """``p(E1, ..., En)`` — dispatch to an arbitrary implementation of p."""

    proc: str
    args: Tuple[Expr, ...]
    position: Optional[SourcePosition] = field(default=None, compare=False)


@dataclass(frozen=True)
class Skip(Cmd):
    """``skip`` — parsing sugar for ``assume true``."""


def sequence(cmds: Sequence[Cmd]) -> Cmd:
    """``cmds[0] ; cmds[1] ; ...``, a leading ``Seq`` spliced in."""
    if len(cmds) == 1:
        return cmds[0]
    if isinstance(cmds[0], Seq):
        return Seq(cmds[0].cmds + tuple(cmds[1:]))
    return Seq(tuple(cmds))


def choice(cmds: Sequence[Cmd]) -> Cmd:
    """``cmds[0] [] cmds[1] [] ...``, a leading ``Choice`` spliced in."""
    if len(cmds) == 1:
        return cmds[0]
    if isinstance(cmds[0], Choice):
        return Choice(cmds[0].cmds + tuple(cmds[1:]))
    return Choice(tuple(cmds))


def walk_commands(cmd: Cmd) -> Iterator[Cmd]:
    """Every command of ``cmd``, composite ones included, in pre-order
    (parts left to right), without recursion."""
    stack = [cmd]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Seq, Choice)):
            stack.extend(reversed(node.cmds))
        elif isinstance(node, VarCmd):
            stack.append(node.body)


# ---------------------------------------------------------------------------
# Declarations (Figure 0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decl:
    """Base class for top-level declarations."""


@dataclass(frozen=True)
class GroupDecl(Decl):
    """``group g in h, k, ...`` — a data group with its local inclusions."""

    name: str
    in_groups: Tuple[str, ...] = ()
    position: Optional[SourcePosition] = field(default=None, compare=False)


@dataclass(frozen=True)
class MapsClause:
    """One ``maps x into g1, ..., gn`` clause of a field declaration.

    Declares the rep inclusions ``g_i —f→ x``: for any object ``t`` the
    licence to modify ``t.g_i`` implies the licence to modify ``t.f.x``.
    """

    mapped: str
    into: Tuple[str, ...]


@dataclass(frozen=True)
class FieldDecl(Decl):
    """``field f in h, ... maps x into g, ...`` — an object field.

    A field is a **pivot field** iff it has at least one maps clause.
    """

    name: str
    in_groups: Tuple[str, ...] = ()
    maps: Tuple[MapsClause, ...] = ()
    position: Optional[SourcePosition] = field(default=None, compare=False)

    @property
    def is_pivot(self) -> bool:
        return bool(self.maps)


@dataclass(frozen=True)
class Designator:
    """A modifies-list entry ``root.f1.f2...fn.attr``.

    ``root`` is a formal parameter of the enclosing procedure, the ``path``
    fields are ordinary field selectors, and ``attr`` is the attribute
    (field or group) whose location the procedure may modify.
    """

    root: str
    path: Tuple[str, ...]
    attr: str

    def __str__(self) -> str:
        parts = [self.root, *self.path, self.attr]
        return ".".join(parts)


@dataclass(frozen=True)
class ProcDecl(Decl):
    """``proc p(t, u, ...) modifies E.f, ... requires P ensures Q``.

    ``requires``/``ensures`` clauses are the paper's pre/postcondition
    encoding as surface syntax; :mod:`repro.oolong.contracts` desugars them
    into the assert/assume discipline of Section 2 before checking.
    """

    name: str
    params: Tuple[str, ...]
    modifies: Tuple[Designator, ...] = ()
    requires: Tuple[Expr, ...] = ()
    ensures: Tuple[Expr, ...] = ()
    position: Optional[SourcePosition] = field(default=None, compare=False)

    @property
    def has_contract(self) -> bool:
        return bool(self.requires or self.ensures)


@dataclass(frozen=True)
class ImplDecl(Decl):
    """``impl p(t, u, ...) { C }`` — one implementation of procedure p."""

    name: str
    params: Tuple[str, ...]
    body: Cmd
    position: Optional[SourcePosition] = field(default=None, compare=False)


Attribute = Union[GroupDecl, FieldDecl]
