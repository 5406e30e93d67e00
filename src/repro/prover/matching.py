"""E-matching: matching trigger patterns against the E-graph.

A pattern is a term containing variables. A match is a substitution from
pattern variables to E-graph nodes such that the instantiated pattern is
*congruent* to an existing node — matching is modulo the current
equalities, which is what lets e.g. the pattern ``inc(S, sel(S,Z,F), B, X, G)``
match a ground atom ``inc($0, u, g, x, a)`` when ``u`` has been merged with
``sel($0, x, f)``.

Multi-patterns match each constituent pattern in sequence under a shared
substitution.

Each multi-pattern is compiled into a Python generator, in the manner of
the matching instructions of de Moura & Bjørner, "Efficient E-matching
for SMT Solvers" (CADE 2007): nested loops over candidate nodes and class
members, pattern variables in local slots, and for each variable
occurrence a choice made once, at compile time, between binding it and
checking it against its binding. Code is shared by *shape*: the pattern
with every ground ``Const``/``IntLit`` lifted into a numbered parameter,
one per distinct constant in first-occurrence order. The shape is a
nested tuple of strings and ints, and :func:`compiled` keeps the code of
the most recent shapes process-wide; the solver's candidate width
(:mod:`repro.prover.core`) is compiled the same way.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, Sequence, Tuple

from repro.logic.terms import App, Const, IntLit, Term, Var
from repro.prover.egraph import EGraph

#: Compiled functions kept by :func:`compiled`, at most.
CACHE_BOUND = 512

_cache: Dict[tuple, Callable] = {}
_cache_lock = threading.Lock()

#: Loops one generated function may nest; deeper code goes on in a helper
#: function (CPython rejects more than 20 statically nested blocks).
_MAX_LOOPS = 12


def compiled(key: tuple, source: Callable[[], Tuple[str, str]]) -> Callable:
    """The function compiled for the shape ``key``.

    On a miss, ``source()`` gives the generated module text and the name
    of the function in it. The cache holds the latest ``CACHE_BOUND``
    shapes; the oldest is dropped first.
    """
    function = _cache.get(key)
    if function is None:
        text, name = source()
        namespace = {"_join": _join}
        exec(compile(text, f"<compiled {name}>", "exec"), namespace)
        function = namespace[name]
        with _cache_lock:
            if len(_cache) >= CACHE_BOUND:
                del _cache[next(iter(_cache))]
            _cache[key] = function
    return function


class Emitter:
    """The lines of one generated function at a current indentation.

    ``handles`` are ``(name, expression)`` pairs bound at the top of the
    function, each only if the body uses the name.
    """

    def __init__(self, header: str, handles: Sequence[Tuple[str, str]]):
        self.header = header
        self.handles = handles
        self.lines: List[str] = []
        self.depth = 1

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def text(self) -> str:
        body = "\n".join(self.lines)
        used = [
            f"    {name} = {expression}"
            for name, expression in self.handles
            if re.search(rf"\b{name}\b", body)
        ]
        return "\n".join([self.header] + used + self.lines) + "\n"


def term_shape(term: Term, slots: Dict[str, int], constants: Dict[Term, int]):
    """``term`` with each variable as ``("var", slot)`` and each ground
    constant as ``("const", parameter)``; new constants get the next
    parameter, new variables the next slot."""
    if isinstance(term, Var):
        slot = slots.setdefault(term.name, len(slots))
        return ("var", slot)
    if isinstance(term, (Const, IntLit)):
        return ("const", constants.setdefault(term, len(constants)))
    if isinstance(term, App):
        return (
            "app",
            term.fn,
            tuple(term_shape(arg, slots, constants) for arg in term.args),
        )
    raise TypeError(f"not a pattern term: {term!r}")


def compile_trigger(
    patterns: Sequence[Term], variables: Sequence[str]
) -> Tuple[Callable, Tuple[Term, ...]]:
    """A matcher for the multi-pattern ``patterns``, and its parameters.

    ``matcher(egraph, parameters)`` yields one tuple per match: the nodes
    bound to ``variables``, in that order. A trigger that does not bind
    exactly ``variables`` yields ``None`` per match instead.

    Candidates for each pattern come in ascending node id, and each
    candidate's extensions are collected in full before the first is
    yielded, so a consumer that stops early has seen the matches of a
    prefix of them, and the pattern's constants are interned at the same
    moments however many it takes. The E-graph must not change between
    yields.
    """
    slots = {name: index for index, name in enumerate(variables)}
    constants: Dict[Term, int] = {}
    shapes = []
    for pattern in patterns:
        if not isinstance(pattern, App):
            raise ValueError(f"trigger pattern must be an application: {pattern}")
        shapes.append(term_shape(pattern, slots, constants))
    key = ("match", len(variables), len(slots), tuple(shapes))
    matcher = compiled(key, lambda: _matcher_source(key))
    return matcher, tuple(constants)


def _join(egraph: EGraph, fn: str, arity: int, keys) -> Sequence[int]:
    """The application nodes with head ``fn`` that can match, by ascending
    id: through the parent lists of the ``(position, node)`` key with the
    fewest parent registrations (the parent-list join of de Moura &
    Bjørner), unless none has fewer than the head has nodes."""
    nodes = egraph._head_index.get(fn, ())
    join = None
    fewest = len(nodes)
    for position, node in keys:
        uses = egraph.class_use_count(node)
        if uses < fewest:
            join, fewest = (position, node), uses
    if join is None:
        return nodes
    return egraph.parents_at(join[1], fn, arity, join[0])


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

_HANDLES = (
    ("find", "eg.find"),
    ("children", "eg._children"),
    ("heads", "eg._head"),
    ("members", "eg._members"),
    ("node_of", "eg._node_of"),
    ("intern", "eg.intern"),
    ("head_index", "eg._head_index"),
)


def _leaves(shape, kind: str, found: Dict[int, None]) -> None:
    """Add the slots (``kind`` "var") or parameters ("const") of a term
    shape to ``found``, in first-occurrence order."""
    if shape[0] == kind:
        found.setdefault(shape[1])
    elif shape[0] == "app":
        for arg in shape[2]:
            _leaves(arg, kind, found)


class _MatcherWriter:
    """Writes the generator for one multi-pattern shape.

    The matching of one pattern against a candidate walks its arguments
    depth-first, as a list of frames ``(argument shapes, children local,
    next position)``, innermost first. A variable's first occurrence
    binds its slot ``v<slot>``; later ones compare classes. A nested
    application loops over the members of its argument's class with its
    head, and the rest of the match goes inside that loop, so a failed
    check ``continue``s the innermost loop.
    """

    def __init__(self, key):
        _, self.nvars, nslots, self.patterns = key
        constants: Dict[int, None] = {}
        covered: Dict[int, None] = {}
        for pattern in self.patterns:
            _leaves(pattern, "const", constants)
            _leaves(pattern, "var", covered)
        self.nconstants = len(constants)
        self.complete = nslots == self.nvars and len(covered) == self.nvars
        self.functions: List[str] = []
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def begin(self, name: str, arguments: Sequence[str]) -> Emitter:
        # Each function interns a constant on its first check (``k<i>``).
        lazy = tuple((f"k{index}", "None") for index in range(self.nconstants))
        out = Emitter(f"def {name}({', '.join(arguments)}):", _HANDLES + lazy)
        if self.nconstants:
            names = "".join(f"c{index}, " for index in range(self.nconstants))
            out.line(f"{names}= params")
        return out

    def finish(self, out: Emitter) -> None:
        self.functions.append(out.text())

    def source(self) -> Tuple[str, str]:
        out = self.begin("match", ("eg", "params"))
        self.pattern(out, 0, [])
        self.finish(out)
        return "\n".join(self.functions), "match"

    # -- the multi-pattern: candidate loops and extensions ------------------

    def pattern(self, out: Emitter, index: int, bound: List[int]) -> None:
        """Code for patterns ``index`` on, with the slots in ``bound``
        bound by the patterns before; yields at the end."""
        if index == len(self.patterns):
            if self.complete:
                nodes = "".join(f"v{slot}, " for slot in range(self.nvars))
                out.line(f"yield ({nodes})")
            else:
                out.line("yield None")
            return
        if out.depth + 2 > _MAX_LOOPS:
            live = [f"v{slot}" for slot in bound]
            helper = self.fresh("_match")
            out.line(f"yield from {helper}({', '.join(['eg', 'params'] + live)})")
            inner = self.begin(helper, ["eg", "params"] + live)
            self.pattern(inner, index, bound)
            self.finish(inner)
            return
        pattern = self.patterns[index]
        _, _, args = pattern
        slots: Dict[int, None] = {}
        _leaves(pattern, "var", slots)
        new = [slot for slot in slots if slot not in bound]
        after = sorted(bound + new)
        candidates = self.candidates(out, pattern, bound)
        node, kids = self.fresh("x"), self.fresh("ch")
        out.line(f"for {node} in {candidates}:")
        out.depth += 1
        out.line(f"{kids} = children[{node}]")
        out.line(f"if len({kids}) != {len(args)}: continue")
        if all(arg[0] != "app" for arg in args):
            # At most one extension: match it in place.
            self.arguments(out, [(args, kids, 0)], list(bound), None)
            self.pattern(out, index + 1, after)
        else:
            found = self.fresh("found")
            out.line(f"{found} = []")
            self.arguments(out, [(args, kids, 0)], list(bound), (found, new))
            target = "".join(f"v{slot}, " for slot in new) or "_"
            out.line(f"for {target} in {found}:")
            out.depth += 1
            self.pattern(out, index + 1, after)
            out.depth -= 1
        out.depth -= 1

    def candidates(self, out: Emitter, pattern, bound: List[int]) -> str:
        """Emit the candidate list of a top-level pattern; its local."""
        _, fn, args = pattern
        keys = []
        for position, arg in enumerate(args):
            if arg[0] == "var" and arg[1] in bound:
                keys.append(f"({position}, v{arg[1]})")
            elif arg[0] == "const":
                keys.append(f"({position}, node_of[c{arg[1]}])")
        name = self.fresh("cands")
        everything = f"head_index.get({fn!r}, ())"
        if not keys:
            out.line(f"{name} = {everything}")
            return name
        join = f"_join(eg, {fn!r}, {len(args)}, ({', '.join(keys)},))"
        leaves: Dict[int, None] = {}
        _leaves(pattern, "const", leaves)
        if not leaves:
            out.line(f"{name} = {join}")
            return name
        # The join is taken only once every constant of the pattern is
        # interned: the nodes it skips could then create nothing.
        interned = " and ".join(f"c{leaf} in node_of" for leaf in leaves)
        out.line(f"{name} = {join} if {interned} else {everything}")
        return name

    # -- one pattern's arguments --------------------------------------------

    def arguments(self, out: Emitter, frames, bound: List[int], found) -> None:
        """Match the frames with the slots in ``bound`` bound. With
        ``found`` a ``(list local, new slots)`` pair, append the new slots
        to the list on success; with ``found`` None, fall through."""
        while frames:
            args, kids, position = frames[0]
            if position == len(args):
                frames = frames[1:]
                continue
            arg = args[position]
            frames = [(args, kids, position + 1)] + frames[1:]
            child = f"{kids}[{position}]"
            if arg[0] == "var":
                slot = arg[1]
                if slot in bound:
                    out.line(f"if find(v{slot}) != find({child}): continue")
                else:
                    out.line(f"v{slot} = {child}")
                    bound.append(slot)
            elif arg[0] == "const":
                index = arg[1]
                out.line(f"if k{index} is None: k{index} = intern(c{index})")
                out.line(f"if find(k{index}) != find({child}): continue")
            elif out.depth + 1 > _MAX_LOOPS:
                self.helper(out, arg, child, frames, bound, found)
                return
            else:
                self.member_loop(out, arg, child, frames, bound, found)
                return
        if found is not None:
            target, new = found
            out.line(f"{target}.append(({''.join(f'v{slot}, ' for slot in new)}))")

    def member_loop(self, out: Emitter, arg, child: str, frames, bound, found) -> None:
        _, fn, args = arg
        member, kids = self.fresh("x"), self.fresh("ch")
        out.line(f"for {member} in members[find({child})]:")
        out.depth += 1
        out.line(f"if heads[{member}] != {fn!r}: continue")
        out.line(f"{kids} = children[{member}]")
        out.line(f"if len({kids}) != {len(args)}: continue")
        self.arguments(out, [(args, kids, 0)] + frames, bound, found)
        out.depth -= 1

    def helper(self, out: Emitter, arg, child: str, frames, bound, found) -> None:
        """Go on in a new function, which appends to the same list."""
        pending: List[str] = []
        for args, kids, position in frames:
            if position < len(args) and kids not in pending:
                pending.append(kids)
        live = pending + [f"v{slot}" for slot in bound]
        helper, node = self.fresh("_arg"), self.fresh("y")
        target, new = found
        out.line(f"{helper}({', '.join(['eg', 'params', target, child] + live)})")
        inner = self.begin(helper, ["eg", "params", "found", node] + live)
        self.member_loop(inner, arg, node, frames, list(bound), ("found", new))
        self.finish(inner)


def _matcher_source(key) -> Tuple[str, str]:
    return _MatcherWriter(key).source()
