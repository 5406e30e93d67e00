"""Call-graph construction and recursion detection (code ``OL204``).

The graph has one node per declared procedure; an edge ``p -> q`` exists
when any implementation of ``p`` contains a call to ``q``. Cycles
(including self-loops) mean the procedures may recurse — legal in oolong
and handled by the wlp's frame quantifiers, but worth surfacing because
recursive scopes are exactly the ones on which the paper's Simplify-based
checker could diverge (EX-5.3).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import SourcePosition
from repro.oolong.ast import Call
from repro.oolong.program import Scope
from repro.analysis.cfg import CALL
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.facts import impl_facts, scope_call_graph


class CallGraph:
    """The may-call relation of a scope."""

    def __init__(self, scope: Scope):
        edges: Dict[str, Set[str]] = {name: set() for name in scope.procs}
        sites: Dict[Tuple[str, str], Optional[SourcePosition]] = {}
        for impls in scope.impls.values():
            for impl in impls:
                edges.setdefault(impl.name, set())
                for _block, stmt in impl_facts(scope, impl).cfg.statements():
                    if stmt.kind != CALL:
                        continue
                    node = stmt.node
                    assert isinstance(node, Call)
                    edges[impl.name].add(node.proc)
                    sites.setdefault((impl.name, node.proc), node.position)
        self.edges: Dict[str, FrozenSet[str]] = {
            name: frozenset(callees) for name, callees in edges.items()
        }
        self._sites = sites

    def callees(self, proc: str) -> FrozenSet[str]:
        return self.edges.get(proc, frozenset())

    def call_site(self, caller: str, callee: str) -> Optional[SourcePosition]:
        return self._sites.get((caller, callee))

    def reachable_from(self, proc: str) -> FrozenSet[str]:
        """All procedures transitively callable from ``proc`` (inclusive)."""
        seen: Set[str] = set()
        worklist = [proc]
        while worklist:
            current = worklist.pop()
            if current in seen:
                continue
            seen.add(current)
            worklist.extend(self.edges.get(current, ()))
        return frozenset(seen)

    def sccs(self) -> List[Tuple[str, ...]]:
        """Every strongly connected component (singletons included), in
        condensation order: callees before callers. Tarjan pops a
        component only after all components reachable from it, so the
        emission order is a reverse topological sort of the condensed
        graph — the evaluation order an interprocedural fixpoint wants.
        Deterministic."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        components: List[Tuple[str, ...]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(self.edges.get(node, ())):
                if succ not in self.edges:
                    continue
                if succ not in index:
                    strongconnect(succ)
                    lowlink[node] = min(lowlink[node], lowlink[succ])
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(tuple(sorted(component)))

        for node in sorted(self.edges):
            if node not in index:
                strongconnect(node)
        return components

    def is_recursive(self, component: Tuple[str, ...]) -> bool:
        """May the procedures of ``component`` recurse — size > 1, or a
        singleton with a self-loop?"""
        if len(component) > 1:
            return True
        node = component[0]
        return node in self.edges.get(node, ())

    def cycles(self) -> List[Tuple[str, ...]]:
        """Strongly connected components that can recurse: every SCC of
        size > 1, plus self-loops. Deterministic order."""
        return sorted(c for c in self.sccs() if self.is_recursive(c))


def check_recursion(scope: Scope) -> List[Diagnostic]:
    """OL204 (info): one diagnostic per recursive component."""
    graph = scope_call_graph(scope)
    diagnostics: List[Diagnostic] = []
    for component in graph.cycles():
        first = component[0]
        # Find a concrete call site inside the component for the span.
        position = None
        for caller in component:
            for callee in component:
                position = graph.call_site(caller, callee)
                if position is not None:
                    break
            if position is not None:
                break
        chain = " -> ".join(component + (first,))
        diagnostics.append(
            Diagnostic(
                code="OL204",
                message=f"procedures may recurse: {chain}",
                position=position,
            )
        )
    return diagnostics
