"""Modifies-list inference (codes ``OL301`` / ``OL302``).

For every implementation the pass computes the *least modifies list* its
writes and callee licences justify, by abstract interpretation over the
CFG. The state has two components:

* a may-points-to map from each local to the objects it may denote —
  ``FRESH`` (allocated here; writes to fresh objects never need a
  licence, matching the paper's semantics), an *access path*
  ``root.f1...fn`` rooted at a formal parameter, or ``UNKNOWN`` (a value
  the analysis cannot name; requirements through it are skipped rather
  than guessed);
* a must-fresh set of heap paths: after ``t.c := new()`` the location
  ``t.c`` definitely holds a fresh object, so a later ``t.c.d := 1``
  needs no licence. Must-facts join by intersection and are killed
  conservatively by any write that could redirect the path and by calls.

The licences an implementation needs are read off its obligation-site
list (:attr:`repro.analysis.facts.ImplFacts.sites`), which evaluates
every write target, and every callee designator's owner (the actual
extended by the designator's path, each step checked against the
must-fresh set), in these states once for lint and static discharge
alike. Each access path a written object may be named by needs one
licence; fresh and unknown objects need none.

Each site also records which designators of the declared modifies list
license each of those access paths, decided once by the scope's
inclusion lattice (:mod:`repro.analysis.inclusion`) with the paper's
licence semantics — local inclusions (``group ≽ attr``) plus rep
inclusions through pivot fields (``g —p→ x``). Two kinds of diagnostics
are read off that record:

* **OL301** (error): a write or callee licence is not covered by the
  declaration. These are the implementations the prover will refuse, so
  the lint is a fast pre-filter in front of verification.
* **OL302** (warning): a declared designator that no implementation of
  the procedure ever exercises — an over-broad frame that can be
  removed (reported once per procedure, naming the removable group).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.oolong.ast import Designator, Expr, FieldAccess, Id, ImplDecl
from repro.oolong.program import Scope
from repro.analysis.cfg import ASSIGN, ASSIGN_NEW, CALL, VAR_ENTER, VAR_EXIT, Statement
from repro.analysis.dataflow import ForwardAnalysis
from repro.analysis.diagnostics import Diagnostic


class _Fresh:
    def __repr__(self) -> str:
        return "FRESH"


class _Unknown:
    def __repr__(self) -> str:
        return "UNKNOWN"


FRESH = _Fresh()
UNKNOWN = _Unknown()


@dataclass(frozen=True)
class PathVal:
    """An object named by an access path rooted at a formal parameter."""

    root: str
    path: Tuple[str, ...] = ()

    def extend(self, field_name: str) -> "PathVal":
        return PathVal(self.root, self.path + (field_name,))

    def __str__(self) -> str:
        return ".".join((self.root,) + self.path)


AbstractValue = object  # FRESH | UNKNOWN | PathVal


@dataclass(frozen=True)
class PointsToState:
    """(may-points-to for locals, must-fresh heap paths)."""

    locals: Tuple[Tuple[str, FrozenSet[AbstractValue]], ...]
    fresh: FrozenSet[PathVal] = frozenset()

    @classmethod
    def make(cls, locals_map: Dict[str, FrozenSet[AbstractValue]], fresh) -> "PointsToState":
        return cls(tuple(sorted(locals_map.items(), key=lambda kv: kv[0])), frozenset(fresh))

    def locals_map(self) -> Dict[str, FrozenSet[AbstractValue]]:
        return dict(self.locals)


def eval_expr(expr: Expr, state: PointsToState) -> FrozenSet[AbstractValue]:
    """The abstract objects ``expr`` may denote."""
    if isinstance(expr, Id):
        return state.locals_map().get(expr.name, frozenset({UNKNOWN}))
    if isinstance(expr, FieldAccess):
        values: Set[AbstractValue] = set()
        for base in eval_expr(expr.obj, state):
            if isinstance(base, PathVal):
                extended = base.extend(expr.attr)
                values.add(FRESH if extended in state.fresh else extended)
            else:
                # Reading out of a fresh or unknown object yields a value
                # the analysis cannot name.
                values.add(UNKNOWN)
        return frozenset(values)
    # Constants and operator results are not writable objects.
    return frozenset()


class AccessPathAnalysis(ForwardAnalysis):
    """Tracks which objects each local may denote and which heap paths
    are definitely fresh."""

    def __init__(self, impl: ImplDecl):
        self.impl = impl

    def initial_state(self, cfg) -> PointsToState:
        return PointsToState.make(
            {param: frozenset({PathVal(param)}) for param in self.impl.params},
            frozenset(),
        )

    def join(self, states: List[PointsToState]) -> PointsToState:
        merged: Dict[str, FrozenSet[AbstractValue]] = {}
        for state in states:
            for var, values in state.locals:
                merged[var] = merged.get(var, frozenset()) | values
        fresh = states[0].fresh
        for state in states[1:]:
            fresh = fresh & state.fresh
        return PointsToState.make(merged, fresh)

    def transfer(self, stmt: Statement, state: PointsToState) -> PointsToState:
        if stmt.kind == VAR_ENTER:
            locals_map = state.locals_map()
            locals_map[stmt.var] = frozenset({UNKNOWN})
            return PointsToState.make(locals_map, state.fresh)
        if stmt.kind == VAR_EXIT:
            locals_map = state.locals_map()
            locals_map.pop(stmt.var, None)
            return PointsToState.make(locals_map, state.fresh)
        if stmt.kind == ASSIGN_NEW:
            node = stmt.node
            if isinstance(node.target, Id):
                locals_map = state.locals_map()
                locals_map[node.target.name] = frozenset({FRESH})
                return PointsToState.make(locals_map, state.fresh)
            # e.f := new(): the location e.f now definitely holds a fresh
            # object (on this path).
            fresh = set(self._kill_field(state.fresh, node.target.attr))
            for base in eval_expr(node.target.obj, state):
                if isinstance(base, PathVal):
                    fresh.add(base.extend(node.target.attr))
            return PointsToState.make(state.locals_map(), fresh)
        if stmt.kind == ASSIGN:
            node = stmt.node
            if isinstance(node.target, Id):
                locals_map = state.locals_map()
                locals_map[node.target.name] = eval_expr(node.rhs, state)
                return PointsToState.make(locals_map, state.fresh)
            # A heap write through field f may redirect any fresh path
            # mentioning f (aliasing is not tracked): kill them.
            return PointsToState.make(
                state.locals_map(),
                self._kill_field(state.fresh, node.target.attr),
            )
        if stmt.kind == CALL:
            # A callee may reassign any field it is licensed on; drop all
            # must-fresh facts rather than model callee frames.
            return PointsToState.make(state.locals_map(), frozenset())
        return state

    @staticmethod
    def _kill_field(fresh: FrozenSet[PathVal], field_name: str) -> FrozenSet[PathVal]:
        return frozenset(p for p in fresh if field_name not in p.path)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


@dataclass
class ModifiesInference:
    """Everything the inference pass computed."""

    #: proc name -> the least modifies list its implementations justify,
    #: as sorted designator strings.
    inferred: Dict[str, Tuple[str, ...]]
    diagnostics: List[Diagnostic]


def infer_modifies(scope: Scope) -> ModifiesInference:
    """Infer least modifies lists and diff them against the declarations."""
    from repro.analysis.facts import impl_facts

    diagnostics: List[Diagnostic] = []
    inferred: Dict[str, Tuple[str, ...]] = {}
    #: proc name -> the indices of its frame that some site exercises.
    exercised: Dict[str, Set[int]] = {}

    for proc_name, impls in scope.impls.items():
        proc = scope.proc(proc_name)
        if proc is None:
            continue  # undeclared; well-formedness reports it
        named: Set[str] = set()
        used: Set[int] = set()
        for impl in impls:
            for site in impl_facts(scope, impl).sites:
                for value, covering in site.covering.items():
                    required = Designator(value.root, value.path, site.attr)
                    named.add(str(required))
                    used.update(covering)
                    if covering:
                        continue
                    if site.kind == "write-licence":
                        reason = f"write to {site.subject}"
                    else:
                        reason = (
                            f"call to {site.node.proc} "
                            f"(modifies {site.subject})"
                        )
                    diagnostics.append(
                        Diagnostic(
                            code="OL301",
                            message=(
                                f"{reason} requires a licence on {required}, "
                                f"which the declared modifies list of "
                                f"{proc_name!r} does not grant"
                            ),
                            position=site.node.position,
                            impl=impl.name,
                        )
                    )
        exercised[proc_name] = used
        inferred[proc_name] = tuple(sorted(named))

    # Over-broad declarations: a designator no implementation exercises.
    for proc_name, used in exercised.items():
        proc = scope.proc(proc_name)
        for index, declared in enumerate(proc.modifies):
            if index in used:
                continue
            diagnostics.append(
                Diagnostic(
                    code="OL302",
                    message=(
                        f"modifies {declared} of {proc_name!r} is never "
                        f"exercised by any implementation; the "
                        f"{'group' if scope.is_group(declared.attr) else 'field'} "
                        f"{declared.attr!r} can be removed from the list"
                    ),
                    position=proc.position,
                    impl=proc_name,
                )
            )
    return ModifiesInference(inferred=inferred, diagnostics=diagnostics)
