"""E-matching: matching trigger patterns against the E-graph.

A pattern is a term containing variables. A match is a substitution from
pattern variables to E-graph nodes such that the instantiated pattern is
*congruent* to an existing node — matching is modulo the current
equalities, which is what lets e.g. the pattern ``inc(S, sel(S,Z,F), B, X, G)``
match a ground atom ``inc($0, u, g, x, a)`` when ``u`` has been merged with
``sel($0, x, f)``.

Multi-patterns match each constituent pattern in sequence under a shared
substitution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.logic.terms import App, Const, IntLit, Term, Var
from repro.prover.egraph import EGraph

Binding = Dict[str, int]


def match_multipattern(
    egraph: EGraph, patterns: Sequence[Term], stats=None, name=None
) -> Iterator[Binding]:
    """All bindings matching every pattern of the multi-pattern.

    ``stats``, when given, is a ``ProverStats``-shaped object whose
    ``matches`` counter is bumped per binding enumerated — the raw
    E-matching volume, before the solver's relevancy filter prunes it.
    ``name`` additionally attributes those matches to a quantifier in
    ``stats.matches_by_quantifier``.
    """
    for binding in _match_sequence(egraph, patterns, 0, {}):
        if stats is not None:
            stats.matches += 1
            if name is not None:
                by_name = stats.matches_by_quantifier
                by_name[name] = by_name.get(name, 0) + 1
        yield binding


def _match_sequence(
    egraph: EGraph, patterns: Sequence[Term], index: int, binding: Binding
) -> Iterator[Binding]:
    if index == len(patterns):
        yield dict(binding)
        return
    for extended in _match_anywhere(egraph, patterns[index], binding):
        yield from _match_sequence(egraph, patterns, index + 1, extended)


def _match_anywhere(
    egraph: EGraph, pattern: Term, binding: Binding
) -> Iterator[Binding]:
    """Match ``pattern`` against any node in the E-graph.

    Lazy over candidate nodes, which come in ascending id, so a consumer
    that stops early has seen the bindings of a prefix of them.
    """
    if not isinstance(pattern, App):
        raise ValueError(f"trigger pattern must be an application: {pattern}")
    args = pattern.args
    children_of = egraph.children_of
    for node in _candidates(egraph, pattern, binding):
        children = children_of(node)
        if len(children) == len(args):
            found: List[Binding] = []
            _match_args(egraph, args, children, 0, None, binding, found)
            yield from found


def _candidates(egraph: EGraph, pattern: App, binding: Binding) -> Sequence[int]:
    """The application nodes ``pattern`` can match, by ascending id.

    Every node with the pattern's head, unless an argument is already
    known: a variable bound by an earlier pattern or an interned ground
    constant. Then only the nodes with that argument's class at that
    position can match, and the class members' parent lists name them
    (the parent-list join of de Moura & Bjørner, "Efficient E-matching
    for SMT Solvers", CADE 2007). The argument whose class has the fewest
    parent registrations is used.

    Matching interns the pattern's ground constants as it meets them, so
    the join is taken only once all of them are interned: the nodes it
    skips could then create nothing.
    """
    fn = pattern.fn
    leaves, keys = _join_plan(pattern)
    for leaf in leaves:
        if egraph.lookup(leaf) is None:
            return egraph.apps_with_head(fn)
    join = None
    fewest = egraph.head_count(fn)
    for position, arg in keys:
        if isinstance(arg, Var):
            node = binding.get(arg.name)
            if node is None:
                continue
        else:
            node = egraph.lookup(arg)
        uses = egraph.class_use_count(node)
        if uses < fewest:
            join, fewest = (node, position), uses
    if join is None:
        return egraph.apps_with_head(fn)
    node, position = join
    return egraph.parents_at(node, fn, len(pattern.args), position)


@lru_cache(maxsize=4096)
def _join_plan(pattern: App) -> Tuple[Tuple[Term, ...], Tuple[Tuple[int, Term], ...]]:
    """The ground ``Const``/``IntLit`` subterms of ``pattern``, and its
    top-level arguments that can key a join (variables and constants)
    with their positions."""
    leaves = []

    def collect(term):
        if isinstance(term, (Const, IntLit)):
            leaves.append(term)
        elif isinstance(term, App):
            for arg in term.args:
                collect(arg)

    collect(pattern)
    keys = tuple(
        (position, arg)
        for position, arg in enumerate(pattern.args)
        if isinstance(arg, (Var, Const, IntLit))
    )
    return tuple(leaves), keys


def _match_args(
    egraph: EGraph,
    args: Tuple[Term, ...],
    nodes: Tuple[int, ...],
    index: int,
    rest: Optional[tuple],
    binding: Binding,
    out: List[Binding],
) -> None:
    """Append to ``out`` every extension of ``binding`` that matches
    ``args[index:]`` against the classes of ``nodes[index:]`` and then the
    enclosing frames in ``rest``, in depth-first order.

    ``rest`` is ``None`` or an ``(args, nodes, index, rest)`` frame: the
    arguments of the enclosing application still to match once a nested
    one is done.
    """
    find = egraph.find
    while True:
        while index == len(args):
            if rest is None:
                out.append(binding)
                return
            args, nodes, index, rest = rest
        pattern = args[index]
        node = nodes[index]
        if isinstance(pattern, Var):
            bound = binding.get(pattern.name)
            if bound is None:
                binding = dict(binding)
                binding[pattern.name] = node
            elif find(bound) != find(node):
                return
        elif isinstance(pattern, (Const, IntLit)):
            if find(egraph.intern(pattern)) != find(node):
                return
        elif isinstance(pattern, App):
            frame = (args, nodes, index + 1, rest)
            arity = len(pattern.args)
            for member in egraph.class_apps_with_head(node, pattern.fn):
                children = egraph.children_of(member)
                if len(children) == arity:
                    _match_args(
                        egraph, pattern.args, children, 0, frame, binding, out
                    )
            return
        else:
            raise TypeError(f"not a pattern term: {pattern!r}")
        index += 1
