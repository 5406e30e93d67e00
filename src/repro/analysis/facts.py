"""Static facts shared by lint and discharge, computed once per scope.

The licences of the paper are a function of the scope alone: local
inclusion ``g ≽ a`` and rep inclusion ``g —p→ x`` are fixed per scope by
the rule of self-contained names, and an implementation's control flow
and access paths are fixed by its body. So lint
(:mod:`repro.analysis.engine`) and static discharge
(:mod:`repro.analysis.effects`) read these facts from one place:

* per scope, one :class:`~repro.analysis.inclusion.InclusionLattice`
  and one :class:`~repro.analysis.callgraph.CallGraph`;
* per implementation, one command walk, one CFG and one access-path
  fixpoint (:class:`ImplFacts`), keyed by the implementation object the
  scope holds.

The cache lives on the scope (``Scope.analysis_facts``), like the
prover's prepared background: it is filled lazily, is process-local,
is dropped when the scope is pickled and is gone with the scope.
:func:`scope_lattice`, :func:`scope_call_graph` and :func:`impl_facts`
are the ways in.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.oolong.ast import Choice, Cmd, ImplDecl, Seq, VarCmd
from repro.oolong.program import Scope
from repro.analysis.cfg import CFG, Statement, build_cfg
from repro.analysis.dataflow import run_forward, statement_states


def _walk_commands(cmd: Cmd, out: list) -> None:
    out.append(cmd)
    if isinstance(cmd, Seq):
        _walk_commands(cmd.first, out)
        _walk_commands(cmd.second, out)
    elif isinstance(cmd, Choice):
        _walk_commands(cmd.left, out)
        _walk_commands(cmd.right, out)
    elif isinstance(cmd, VarCmd):
        _walk_commands(cmd.body, out)


class ImplFacts:
    """One implementation's command walk, CFG and access-path fixpoint,
    each built on first use."""

    def __init__(self, impl: ImplDecl):
        self.impl = impl
        self._commands: Optional[Tuple[Cmd, ...]] = None
        self._cfg: Optional[CFG] = None
        self._analysis = None
        self._path_states = None
        self._node_states = None

    @property
    def commands(self) -> Tuple[Cmd, ...]:
        """Every command of the body, composite ones included, in
        pre-order (a ``Seq``'s first command before its second)."""
        if self._commands is None:
            out: list = []
            _walk_commands(self.impl.body, out)
            self._commands = tuple(out)
        return self._commands

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.impl)
        return self._cfg

    @property
    def analysis(self):
        """The :class:`~repro.analysis.modifies.AccessPathAnalysis` whose
        fixpoint :attr:`path_states` replays."""
        if self._analysis is None:
            from repro.analysis.modifies import AccessPathAnalysis

            self._analysis = AccessPathAnalysis(self.impl)
        return self._analysis

    @property
    def path_states(self) -> Tuple[Tuple[Statement, object], ...]:
        """Every statement with its access-path in-state (an immutable
        ``PointsToState``), in reverse postorder."""
        if self._path_states is None:
            result = run_forward(self.cfg, self.analysis)
            self._path_states = tuple(
                (stmt, state)
                for _block, stmt, state in statement_states(
                    self.cfg, self.analysis, result
                )
            )
        return self._path_states

    def state_at(self, node: Cmd):
        """The access-path state before ``node``, or None if no CFG
        statement carries it."""
        if self._node_states is None:
            # A programmatic AST can reuse one node object in several CFG
            # statements; join the incoming states rather than keeping
            # the last one seen.
            states: Dict[int, object] = {}
            for stmt, state in self.path_states:
                if stmt.node is None:
                    continue
                key = id(stmt.node)
                if key in states:
                    states[key] = self.analysis.join([states[key], state])
                else:
                    states[key] = state
            self._node_states = states
        return self._node_states.get(id(node))


class ScopeFacts:
    """The analysis cache of one scope. Nothing in it refers back to the
    scope, so the scope and its cache form no reference cycle and are
    freed together the moment the scope is dropped."""

    def __init__(self):
        self.lattice = None
        self.call_graph = None
        #: ``id(impl)`` -> facts; each entry holds ``impl`` itself, so the
        #: ``id`` cannot be reused while the cache lives.
        self.impls: Dict[int, ImplFacts] = {}


def _cache(scope: Scope) -> ScopeFacts:
    facts = scope.analysis_facts
    if facts is None:
        facts = ScopeFacts()
        scope.analysis_facts = facts
    return facts


def scope_lattice(scope: Scope):
    """The one :class:`~repro.analysis.inclusion.InclusionLattice` of
    ``scope``."""
    facts = _cache(scope)
    if facts.lattice is None:
        from repro.analysis.inclusion import InclusionLattice

        facts.lattice = InclusionLattice(scope)
    return facts.lattice


def scope_call_graph(scope: Scope):
    """The one :class:`~repro.analysis.callgraph.CallGraph` of ``scope``."""
    facts = _cache(scope)
    if facts.call_graph is None:
        from repro.analysis.callgraph import CallGraph

        facts.call_graph = CallGraph(scope)
    return facts.call_graph


def impl_facts(scope: Scope, impl: ImplDecl) -> ImplFacts:
    """The one :class:`ImplFacts` of ``impl`` in ``scope``."""
    impls = _cache(scope).impls
    facts = impls.get(id(impl))
    if facts is None or facts.impl is not impl:
        facts = ImplFacts(impl)
        impls[id(impl)] = facts
    return facts
