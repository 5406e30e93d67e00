"""Control-flow graphs over oolong commands.

Oolong commands are structured (``Seq``/``Choice``/``VarCmd``; recursion
only through calls), so the per-implementation CFG is a DAG of basic
blocks. The builder desugars the command tree:

* atoms (``assert``/``assume``/``:=``/``new()``/calls/``skip``) append a
  :class:`Statement` to the current block;
* ``C ; D`` lowers ``C`` then continues lowering ``D`` from wherever
  control ended up;
* ``C1 [] ... [] Cn`` (one flat ``Choice``) ends the current block,
  lowers each arm from a fresh entry block (all n numbered first), and
  joins all n arms in one fresh join block;
* ``var x in C end`` brackets the body with ``var-enter``/``var-exit``
  pseudo-statements so scoped analyses can bind and kill ``x``.

Blocks are numbered in creation order, and a block is created before
any block it can reach, so every edge goes from a lower id to a higher
one: id order is a topological order, which the one forward pass of
:mod:`repro.analysis.dataflow` walks. Every block is reachable by
construction; the *semantic* reachability lint (``assume false`` making
the rest of a path dead) is a dataflow instance, not a graph property.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SourcePosition
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    Call,
    Choice,
    Cmd,
    ImplDecl,
    Seq,
    Skip,
    VarCmd,
)
from repro.record import MISSING, Record, field

_set = object.__setattr__

#: Statement kinds (``node`` is the originating AST atom where one exists).
ASSERT = "assert"
ASSUME = "assume"
ASSIGN = "assign"
ASSIGN_NEW = "assign-new"
CALL = "call"
VAR_ENTER = "var-enter"
VAR_EXIT = "var-exit"


class Statement(Record, frozen=True):
    """One atomic step inside a basic block."""

    kind: str
    node: Optional[Cmd] = None
    var: Optional[str] = None  # for var-enter / var-exit

    def __init__(self, kind, node=None, var=None):
        _set(self, "kind", kind)
        _set(self, "node", node)
        _set(self, "var", var)

    @property
    def position(self) -> Optional[SourcePosition]:
        return getattr(self.node, "position", None)

    def __str__(self) -> str:
        if self.kind in (VAR_ENTER, VAR_EXIT):
            return f"{self.kind} {self.var}"
        return f"{self.kind} {self.node}"


class BasicBlock(Record):
    """A maximal straight-line sequence of statements."""

    bid: int
    stmts: List[Statement] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    def __init__(self, bid, stmts=MISSING, succs=MISSING, preds=MISSING):
        self.bid = bid
        self.stmts = [] if stmts is MISSING else stmts
        self.succs = [] if succs is MISSING else succs
        self.preds = [] if preds is MISSING else preds


class CFG:
    """The control-flow graph of one implementation body. ``blocks`` is
    keyed and ordered by id, and every edge goes from a lower id to a
    higher one."""

    def __init__(self, blocks: List[BasicBlock], entry: int, exit: int):
        self.blocks: Dict[int, BasicBlock] = {b.bid: b for b in blocks}
        self.entry = entry
        self.exit = exit

    def __len__(self) -> int:
        return len(self.blocks)

    def statements(self) -> Iterator[Tuple[BasicBlock, Statement]]:
        """Every statement, blocks in id order."""
        for block in self.blocks.values():
            for stmt in block.stmts:
                yield block, stmt


class _Builder:
    def __init__(self):
        self._blocks: List[BasicBlock] = []

    def new_block(self) -> BasicBlock:
        block = BasicBlock(bid=len(self._blocks))
        self._blocks.append(block)
        return block

    def edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        src.succs.append(dst.bid)
        dst.preds.append(src.bid)

    def lower(self, cmd: Cmd, current: BasicBlock) -> BasicBlock:
        """Lower ``cmd`` starting in ``current``; return the block where
        control continues afterwards."""
        if isinstance(cmd, Seq):
            for part in cmd.cmds:
                current = self.lower(part, current)
            return current
        if isinstance(cmd, Choice):
            entries = [self.new_block() for _ in cmd.cmds]
            for entry in entries:
                self.edge(current, entry)
            ends = [self.lower(part, entry) for part, entry in zip(cmd.cmds, entries)]
            join = self.new_block()
            for end in ends:
                self.edge(end, join)
            return join
        if isinstance(cmd, VarCmd):
            current.stmts.append(Statement(VAR_ENTER, cmd, cmd.name))
            after_body = self.lower(cmd.body, current)
            after_body.stmts.append(Statement(VAR_EXIT, cmd, cmd.name))
            return after_body
        if isinstance(cmd, Skip):
            return current
        if isinstance(cmd, Assert):
            current.stmts.append(Statement(ASSERT, cmd))
            return current
        if isinstance(cmd, Assume):
            current.stmts.append(Statement(ASSUME, cmd))
            return current
        if isinstance(cmd, Assign):
            current.stmts.append(Statement(ASSIGN, cmd))
            return current
        if isinstance(cmd, AssignNew):
            current.stmts.append(Statement(ASSIGN_NEW, cmd))
            return current
        if isinstance(cmd, Call):
            current.stmts.append(Statement(CALL, cmd))
            return current
        raise TypeError(f"cannot lower {cmd!r} to a CFG")


def build_cfg(body_or_impl) -> CFG:
    """Build the CFG of an implementation (or of a bare command)."""
    body = body_or_impl.body if isinstance(body_or_impl, ImplDecl) else body_or_impl
    builder = _Builder()
    entry = builder.new_block()
    exit_block = builder.lower(body, entry)
    return CFG(builder._blocks, entry.bid, exit_block.bid)
