"""Abstract syntax for oolong (Figures 0 and 1 of the paper).

All nodes are frozen records (:mod:`repro.record`). Equality is
structural, which the test suite and the pretty-printer round-trip checks
rely on. Source positions are optional and excluded from equality so that
programmatically built trees compare equal to parsed ones. The parser
builds these nodes per token, so their classes write their own
``__init__``; expression and command nodes also write ``__eq__`` and an
uncached ``__hash__``, as fast as generated ones.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.errors import SourcePosition
from repro.record import Record, field

_set = object.__setattr__


# ---------------------------------------------------------------------------
# Expressions (Figure 1)
# ---------------------------------------------------------------------------


class Expr(Record, frozen=True):
    """Base class for oolong expressions."""


class NullConst(Expr):
    """The literal ``null``."""

    def __init__(self):
        pass

    def __str__(self) -> str:
        return "null"


class BoolConst(Expr):
    """``true`` or ``false``."""

    value: bool

    def __init__(self, value):
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __str__(self) -> str:
        return "true" if self.value else "false"


class IntConst(Expr):
    """A non-negative integer literal (``0 | 1 | 2 | ...``)."""

    value: int

    def __init__(self, value):
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __str__(self) -> str:
        return str(self.value)


class Id(Expr):
    """A local variable or formal parameter occurrence."""

    name: str
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, name, position=None):
        _set(self, "name", name)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class FieldAccess(Expr):
    """A designator expression ``obj.attr``.

    In commands ``attr`` must be a field; data groups may appear as the final
    selector only inside modifies lists.
    """

    obj: Expr
    attr: str
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, obj, attr, position=None):
        _set(self, "obj", obj)
        _set(self, "attr", attr)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.obj, self.attr) == (other.obj, other.attr)
        return NotImplemented

    def __hash__(self):
        return hash((self.obj, self.attr))

    def __str__(self) -> str:
        return f"{self.obj}.{self.attr}"


class BinOp(Expr):
    """A binary operator application, e.g. ``x + 1`` or ``v = null``."""

    op: str
    left: Expr
    right: Expr

    def __init__(self, op, left, right):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.op, self.left, self.right) == (
                other.op,
                other.left,
                other.right,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.op, self.left, self.right))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class UnOp(Expr):
    """A unary operator application; only ``!`` (negation) is predefined."""

    op: str
    operand: Expr

    def __init__(self, op, operand):
        _set(self, "op", op)
        _set(self, "operand", operand)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.op, self.operand) == (other.op, other.operand)
        return NotImplemented

    def __hash__(self):
        return hash((self.op, self.operand))

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


class Cmd(Record, frozen=True):
    """Base class for oolong commands."""


class Assert(Cmd):
    """``assert E`` — goes wrong unless E holds."""

    condition: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, condition, position=None):
        _set(self, "condition", condition)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.condition,) == (other.condition,)
        return NotImplemented

    def __hash__(self):
        return hash((self.condition,))


class Assume(Cmd):
    """``assume E`` — blocks unless E holds."""

    condition: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, condition, position=None):
        _set(self, "condition", condition)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.condition,) == (other.condition,)
        return NotImplemented

    def __hash__(self):
        return hash((self.condition,))


class VarCmd(Cmd):
    """``var x in C end`` — a fresh local with arbitrary initial value."""

    name: str
    body: Cmd
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, name, body, position=None):
        _set(self, "name", name)
        _set(self, "body", body)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.body) == (other.name, other.body)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.body))


class Assign(Cmd):
    """``target := rhs`` where ``target`` is an Id or a FieldAccess."""

    target: Expr
    rhs: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, target, rhs, position=None):
        _set(self, "target", target)
        _set(self, "rhs", rhs)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.target, self.rhs) == (other.target, other.rhs)
        return NotImplemented

    def __hash__(self):
        return hash((self.target, self.rhs))


class AssignNew(Cmd):
    """``target := new()`` — allocate a fresh object."""

    target: Expr
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, target, position=None):
        _set(self, "target", target)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.target,) == (other.target,)
        return NotImplemented

    def __hash__(self):
        return hash((self.target,))


class Seq(Cmd):
    """``C1 ; ... ; Cn`` — sequential composition, n >= 2, one flat node.

    ``cmds[0]`` is never a ``Seq`` (:func:`sequence` splices it in, so
    ``(a ; b) ; c`` is ``a ; b ; c``); a later ``Seq`` is a parenthesized
    ``a ; (b ; c)``.
    """

    cmds: Tuple[Cmd, ...]

    def __init__(self, cmds):
        _set(self, "cmds", cmds)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.cmds,) == (other.cmds,)
        return NotImplemented

    def __hash__(self):
        return hash((self.cmds,))


class Choice(Cmd):
    """``C1 [] ... [] Cn`` — demonic (arbitrary) choice, n >= 2, one flat
    node; ``cmds[0]`` is never a ``Choice`` (:func:`choice` splices it in)."""

    cmds: Tuple[Cmd, ...]

    def __init__(self, cmds):
        _set(self, "cmds", cmds)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.cmds,) == (other.cmds,)
        return NotImplemented

    def __hash__(self):
        return hash((self.cmds,))


class Call(Cmd):
    """``p(E1, ..., En)`` — dispatch to an arbitrary implementation of p."""

    proc: str
    args: Tuple[Expr, ...]
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, proc, args, position=None):
        _set(self, "proc", proc)
        _set(self, "args", args)
        _set(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.proc, self.args) == (other.proc, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.proc, self.args))


class Skip(Cmd):
    """``skip`` — parsing sugar for ``assume true``."""

    def __init__(self):
        pass


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


class Decl(Record, frozen=True):
    """Base class for top-level declarations."""


class GroupDecl(Decl):
    """``group g in h, k, ...`` — a data group with its local inclusions."""

    name: str
    in_groups: Tuple[str, ...] = ()
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, name, in_groups=(), position=None):
        _set(self, "name", name)
        _set(self, "in_groups", in_groups)
        _set(self, "position", position)


class MapsClause(Record, frozen=True):
    """One ``maps x into g1, ..., gn`` clause of a field declaration.

    Declares the rep inclusions ``g_i —f→ x``: for any object ``t`` the
    licence to modify ``t.g_i`` implies the licence to modify ``t.f.x``.
    """

    mapped: str
    into: Tuple[str, ...]

    def __init__(self, mapped, into):
        _set(self, "mapped", mapped)
        _set(self, "into", into)


class FieldDecl(Decl):
    """``field f in h, ... maps x into g, ...`` — an object field.

    A field is a **pivot field** iff it has at least one maps clause.
    """

    name: str
    in_groups: Tuple[str, ...] = ()
    maps: Tuple[MapsClause, ...] = ()
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, name, in_groups=(), maps=(), position=None):
        _set(self, "name", name)
        _set(self, "in_groups", in_groups)
        _set(self, "maps", maps)
        _set(self, "position", position)

    @property
    def is_pivot(self) -> bool:
        return bool(self.maps)


class Designator(Record, frozen=True):
    """A modifies-list entry ``root.f1.f2...fn.attr``.

    ``root`` is a formal parameter of the enclosing procedure, the ``path``
    fields are ordinary field selectors, and ``attr`` is the attribute
    (field or group) whose location the procedure may modify.
    """

    root: str
    path: Tuple[str, ...]
    attr: str

    def __init__(self, root, path, attr):
        _set(self, "root", root)
        _set(self, "path", path)
        _set(self, "attr", attr)

    def __str__(self) -> str:
        parts = [self.root, *self.path, self.attr]
        return ".".join(parts)


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

    def __init__(
        self,
        name,
        params,
        modifies=(),
        requires=(),
        ensures=(),
        position=None,
    ):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "modifies", modifies)
        _set(self, "requires", requires)
        _set(self, "ensures", ensures)
        _set(self, "position", position)

    @property
    def has_contract(self) -> bool:
        return bool(self.requires or self.ensures)


class ImplDecl(Decl):
    """``impl p(t, u, ...) { C }`` — one implementation of procedure p."""

    name: str
    params: Tuple[str, ...]
    body: Cmd
    position: Optional[SourcePosition] = field(default=None, compare=False)

    def __init__(self, name, params, body, position=None):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "body", body)
        _set(self, "position", position)


Attribute = Union[GroupDecl, FieldDecl]
