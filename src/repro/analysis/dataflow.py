"""One forward dataflow pass over an :mod:`analysis.cfg` CFG.

An analysis supplies an initial state for the entry block, a join for
confluence points, and a per-statement transfer function. Oolong has no
loops, so a CFG is a DAG, and the builder numbers its blocks so that
every edge goes from a lower id to a higher one. Visiting the blocks in
id order therefore meets every predecessor before its successors: one
pass joins each block's predecessor out-states once and runs each
statement's transfer once, with no worklist and no fixpoint test.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.analysis.cfg import CFG, Statement


class ForwardAnalysis:
    """Interface of a forward dataflow problem. Subclass and override."""

    def initial_state(self, cfg: CFG) -> Any:
        """The state on entry to the CFG."""
        raise NotImplementedError

    def join(self, states: List[Any]) -> Any:
        """Combine the out-states of all predecessors (len >= 1)."""
        raise NotImplementedError

    def transfer(self, stmt: Statement, state: Any) -> Any:
        """The state after executing ``stmt`` in ``state``."""
        raise NotImplementedError


def forward_states(
    cfg: CFG, analysis: ForwardAnalysis
) -> Iterator[Tuple[Statement, Any]]:
    """Yield every statement of ``cfg`` with its *in* state, blocks in id
    order; each statement is transferred exactly once."""
    block_out: Dict[int, Any] = {}
    for bid, block in cfg.blocks.items():
        if bid == cfg.entry:
            state = analysis.initial_state(cfg)
        else:
            state = analysis.join([block_out[pred] for pred in block.preds])
        for stmt in block.stmts:
            yield stmt, state
            state = analysis.transfer(stmt, state)
        block_out[bid] = state
