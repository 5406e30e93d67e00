"""Tests for the CFG builder and the forward-dataflow pass."""

from repro.analysis.cfg import (
    ASSERT,
    ASSIGN,
    ASSUME,
    CALL,
    VAR_ENTER,
    VAR_EXIT,
    build_cfg,
)
from repro.analysis.dataflow import ForwardAnalysis, forward_states
from repro.corpus.programs import SECTION3_CLIENT, STACK_VECTOR
from repro.oolong.program import Scope
from tests.test_static_identity import corpus


def impl_of(source, proc):
    return Scope.from_source(source).impls_of(proc)[0]


def kinds(cfg):
    return [stmt.kind for _, stmt in cfg.statements()]


class TestBuildCfg:
    def test_straight_line_is_one_chain(self):
        impl = impl_of(
            "group g\nfield f in g\nproc p(t) modifies t.g\n"
            "impl p(t) { assume t != null ; t.f := 1 ; t.f := 2 }",
            "p",
        )
        cfg = build_cfg(impl)
        assert kinds(cfg) == [ASSUME, ASSIGN, ASSIGN]
        assert list(cfg.blocks) == [cfg.entry] and cfg.exit == cfg.entry

    def test_choice_splits_and_joins(self):
        impl = impl_of(STACK_VECTOR, "push")
        cfg = build_cfg(impl)
        # the [] in push produces a block with two successors...
        forks = [b for b in cfg.blocks.values() if len(b.succs) == 2]
        assert forks
        # ...and a join block with two predecessors that reaches the call.
        joins = [b for b in cfg.blocks.values() if len(b.preds) == 2]
        assert joins
        assert CALL in kinds(cfg)

    def test_var_blocks_bracket_the_body(self):
        impl = impl_of(SECTION3_CLIENT, "q")
        cfg = build_cfg(impl)
        seq = [(stmt.kind, stmt.var) for _, stmt in cfg.statements()]
        enters = [var for kind, var in seq if kind == VAR_ENTER]
        exits = [var for kind, var in seq if kind == VAR_EXIT]
        assert enters == ["st", "result", "v", "n"]
        assert sorted(exits) == sorted(enters)
        # exits come in reverse nesting order after the body
        assert seq.index((VAR_EXIT, "n")) < seq.index((VAR_EXIT, "st"))
        assert ASSERT in [kind for kind, _ in seq]

    def test_every_edge_goes_to_a_higher_block_id(self):
        # The one forward pass visits blocks in id order, so it meets
        # every predecessor first only if this holds.
        arms = " [] ".join(f"t.f := {i}" for i in range(1_000))
        nested = (
            "( ( t.f := 1 [] t.f := 2 ) ; t.f := 3 [] t.f := 4 "
            "[] ( t.f := 5 [] ( t.f := 6 [] skip ) ; t.f := 7 ) ) ; t.f := 8"
        )
        sources = [source for _name, _filename, source in corpus()]
        sources += [
            "group g\nfield f in g\nproc p(t) modifies t.g\n"
            f"impl p(t) {{ assume t != null ; {body} }}"
            for body in (nested, f"( {arms} )")
        ]
        for source in sources:
            for impls in Scope.from_source(source).impls.values():
                for impl in impls:
                    cfg = build_cfg(impl)
                    assert list(cfg.blocks) == sorted(cfg.blocks)
                    assert cfg.entry == 0 and cfg.exit == len(cfg) - 1
                    for block in cfg.blocks.values():
                        assert all(succ > block.bid for succ in block.succs)
                        assert all(pred < block.bid for pred in block.preds)

    def test_positions_flow_from_source(self):
        impl = impl_of(
            "group g\nfield f in g\nproc p(t) modifies t.g\n"
            "impl p(t) { assume t != null ; t.f := 1 }",
            "p",
        )
        cfg = build_cfg(impl)
        positions = [stmt.position for _, stmt in cfg.statements()]
        assert all(pos is not None for pos in positions)
        assert positions[0].line == 4


class _CountingAnalysis(ForwardAnalysis):
    """Counts statements seen along the longest path (max-join)."""

    def initial_state(self, cfg):
        return 0

    def __init__(self):
        self.joined = []

    def join(self, states):
        self.joined.append(states)
        return max(states)

    def transfer(self, stmt, state):
        return state + 1


class TestForwardEngine:
    def test_counts_longest_path_through_choice(self):
        impl = impl_of(STACK_VECTOR, "push")
        cfg = build_cfg(impl)
        states = dict(
            (stmt.kind, state)
            for stmt, state in forward_states(cfg, _CountingAnalysis())
        )
        # assume + (assume ; assign | assume ; skip-elided), then the call
        assert states[CALL] == 3

    def test_yields_each_statement_with_its_in_state(self):
        impl = impl_of(STACK_VECTOR, "vec_add")
        cfg = build_cfg(impl)
        states = [state for _, state in forward_states(cfg, _CountingAnalysis())]
        assert states == [0, 1, 2]

    def test_visits_every_block_once(self):
        for source, proc in ((SECTION3_CLIENT, "q"), (STACK_VECTOR, "push")):
            cfg = build_cfg(impl_of(source, proc))
            analysis = _CountingAnalysis()
            seen = [stmt for stmt, _ in forward_states(cfg, analysis)]
            assert seen == [stmt for _, stmt in cfg.statements()]
            # One join per block but the entry, over all its predecessors.
            assert [len(states) for states in analysis.joined] == [
                len(block.preds) for block in cfg.blocks.values()
            ][1:]
