"""Control-flow graphs over oolong commands.

Oolong commands are structured (``Seq``/``Choice``/``VarCmd``; recursion
only through calls), so the per-implementation CFG is a DAG of basic
blocks. The builder desugars the command tree:

* atoms (``assert``/``assume``/``:=``/``new()``/calls/``skip``) append a
  :class:`Statement` to the current block;
* ``C ; D`` lowers ``C`` then continues lowering ``D`` from wherever
  control ended up;
* ``C [] D`` ends the current block, lowers each arm into a fresh block,
  and joins both arms in a fresh join block;
* ``var x in C end`` brackets the body with ``var-enter``/``var-exit``
  pseudo-statements so scoped analyses can bind and kill ``x``.

Every block is reachable by construction; the *semantic* reachability
lint (``assume false`` making the rest of a path dead) is a dataflow
instance, not a graph property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

#: Statement kinds (``node`` is the originating AST atom where one exists).
ASSERT = "assert"
ASSUME = "assume"
ASSIGN = "assign"
ASSIGN_NEW = "assign-new"
CALL = "call"
VAR_ENTER = "var-enter"
VAR_EXIT = "var-exit"


@dataclass(frozen=True)
class Statement:
    """One atomic step inside a basic block."""

    kind: str
    node: Optional[Cmd] = None
    var: Optional[str] = None  # for var-enter / var-exit

    @property
    def position(self) -> Optional[SourcePosition]:
        return getattr(self.node, "position", None)

    def __str__(self) -> str:
        if self.kind in (VAR_ENTER, VAR_EXIT):
            return f"{self.kind} {self.var}"
        return f"{self.kind} {self.node}"


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of statements."""

    bid: int
    stmts: List[Statement] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


class CFG:
    """The control-flow graph of one implementation body."""

    def __init__(self, blocks: List[BasicBlock], entry: int, exit: int):
        self.blocks: Dict[int, BasicBlock] = {b.bid: b for b in blocks}
        self.entry = entry
        self.exit = exit
        self._rpo: Optional[Tuple[int, ...]] = None

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]

    def __len__(self) -> int:
        return len(self.blocks)

    def statements(self) -> Iterator[Tuple[BasicBlock, Statement]]:
        """Every statement, in reverse-postorder block order."""
        for bid in self.reverse_postorder():
            block = self.blocks[bid]
            for stmt in block.stmts:
                yield block, stmt

    def reverse_postorder(self) -> List[int]:
        """Blocks in reverse postorder from the entry (topological: the
        graph is a DAG, so every predecessor precedes its successors).
        Computed once: a CFG is not changed after it is built."""
        if self._rpo is None:
            self._rpo = self._compute_reverse_postorder()
        return list(self._rpo)

    def _compute_reverse_postorder(self) -> Tuple[int, ...]:
        seen = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            seen.add(bid)
            for succ in self.blocks[bid].succs:
                if succ not in seen:
                    visit(succ)
            order.append(bid)

        visit(self.entry)
        # Unreached blocks cannot exist by construction, but stay safe.
        for bid in self.blocks:
            if bid not in seen:
                order.insert(0, bid)
        return tuple(reversed(order))


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
            after_first = self.lower(cmd.first, current)
            return self.lower(cmd.second, after_first)
        if isinstance(cmd, Choice):
            left_entry = self.new_block()
            right_entry = self.new_block()
            self.edge(current, left_entry)
            self.edge(current, right_entry)
            left_end = self.lower(cmd.left, left_entry)
            right_end = self.lower(cmd.right, right_entry)
            join = self.new_block()
            self.edge(left_end, join)
            self.edge(right_end, join)
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
