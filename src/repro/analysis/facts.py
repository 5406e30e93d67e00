"""Static facts shared by lint and discharge, computed once per scope.

The licences of the paper are a function of the scope alone: local
inclusion ``g ≽ a`` and rep inclusion ``g —p→ x`` are fixed per scope by
the rule of self-contained names, and an implementation's control flow
and access paths are fixed by its body. So lint
(:mod:`repro.analysis.engine`) and static discharge
(:mod:`repro.analysis.effects`) read these facts from one place:

* per scope, one :class:`~repro.analysis.inclusion.InclusionLattice`
  and one :class:`~repro.analysis.callgraph.CallGraph`;
* per implementation, one command walk, one CFG, one forward pass of
  the access-path analysis (its state before each command) and one list
  of obligation sites (:class:`ImplFacts`), keyed by the implementation
  object the scope holds.

The access paths are not folded into a product with the other two
forward analyses over the same CFG (pivot escape and reachability):
each of the three runs once, but escape is skipped when restrictions
are off and the access paths are derived only when the sites are read.

The site list is the checker's one enumeration of where side effects
are checked: every obligation wlp registers (the Figure 2 write licence,
Figure 3's call licence and owner exclusion, and asserts), in wlp's
registration order, each with the access-path state before it and the
abstract objects it writes through. Coverage is decided once, here:
each site records, for every entry access path it writes through, the
indices of the frame designators that license it
(:meth:`~repro.analysis.inclusion.InclusionLattice.covering`). Lint's
OL301 reads an empty answer, OL302 the frame indices no site of the
procedure names, and static discharge a non-empty one; discharge's
classification and ``--check-discharge``'s obligation-by-obligation
comparison read the same list.

The cache lives on the scope (``Scope.analysis_facts``), like the
prover's prepared background: it is filled lazily, is process-local,
is dropped when the scope is pickled and is gone with the scope.
:func:`scope_lattice`, :func:`scope_call_graph` and :func:`impl_facts`
are the ways in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from repro.errors import VerificationError
from repro.oolong.ast import (
    Assign,
    AssignNew,
    Call,
    Choice,
    Cmd,
    Designator,
    Expr,
    FieldAccess,
    ImplDecl,
    ProcDecl,
    Seq,
    VarCmd,
    walk_commands,
)
from repro.oolong.program import Scope
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import forward_states
from repro.analysis.modifies import AccessPathAnalysis, PathVal, eval_expr

if TYPE_CHECKING:
    from repro.analysis.inclusion import InclusionLattice
    from repro.vcgen.wlp import ObligationInfo, ObligationShape


class Site:
    """One proof obligation at the command that raises it.

    The walk that finds a site knows the obligation's ``shape`` (see
    :func:`repro.vcgen.wlp.obligation_shapes`); its ``kind``, ``attr``
    and ``subject`` are all lint reads. :attr:`info`, the full record
    with its description text, is built on first read: static
    discharge and the checker's blame read it, a lint-only run never
    does.
    """

    __slots__ = (
        "node",
        "ident",
        "shape",
        "kind",
        "attr",
        "subject",
        "state",
        "values",
        "covering",
        "_frame",
        "_callee",
        "_info",
    )

    def __init__(
        self,
        node: Cmd,
        ident: int,
        shape: "ObligationShape",
        state: object,
        values: Optional[FrozenSet[object]],
        covering: Dict[PathVal, Tuple[int, ...]],
        frame: Tuple[str, ...],
        callee: Optional[ProcDecl],
    ):
        self.node = node
        #: The obligation's number in wlp's registration order.
        self.ident = ident
        self.shape = shape
        self.kind, self.attr, self.subject, _ = shape
        #: The joined access-path state before ``node``; None where the
        #: dataflow does not reach it.
        self.state = state
        #: The abstract objects the site writes through: the target's
        #: object for a write licence, the owner of the callee's
        #: designator (the actual extended by the designator's path) for
        #: a call licence. None when the designator's root is bound to no
        #: argument; empty for other kinds and where ``state`` is None.
        self.values = values
        #: Each entry access path in ``values`` -> the indices of the
        #: designators of the implementation's frame that license writing
        #: ``attr`` through it, ascending; empty when none does.
        self.covering = covering
        self._frame = frame
        self._callee = callee
        self._info: Optional["ObligationInfo"] = None

    @property
    def info(self) -> "ObligationInfo":
        """The obligation's :class:`~repro.vcgen.wlp.ObligationInfo`,
        equal to the one wlp registers for it."""
        if self._info is None:
            from repro.vcgen.wlp import obligation_info

            self._info = obligation_info(
                self.node, self.ident, self.shape, self._frame, self._callee
            )
        return self._info


class ImplFacts:
    """One implementation's command walk, CFG, access-path states and
    obligation sites, each built on first use.

    ``procs`` is the scope's procedure table, which the sites read the
    frames of, and ``lattice`` the scope's inclusion lattice, which
    decides their coverage (the table and the lattice, not the scope, so
    the facts hold no reference back to the scope).
    """

    def __init__(
        self,
        impl: ImplDecl,
        procs: Dict[str, ProcDecl],
        lattice: "InclusionLattice",
    ):
        self.impl = impl
        self._procs = procs
        self._lattice = lattice
        self._commands: Optional[Tuple[Cmd, ...]] = None
        self._cfg: Optional[CFG] = None
        self._node_states = None
        self._sites: Optional[Tuple[Site, ...]] = None

    @property
    def commands(self) -> Tuple[Cmd, ...]:
        """Every command of the body, composite ones included, in
        pre-order (see :func:`~repro.oolong.ast.walk_commands`)."""
        if self._commands is None:
            self._commands = tuple(walk_commands(self.impl.body))
        return self._commands

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.impl)
        return self._cfg

    def state_at(self, node: Cmd):
        """The access-path state before ``node``, or None if no CFG
        statement carries it."""
        if self._node_states is None:
            # A programmatic AST can reuse one node object in several CFG
            # statements; join the incoming states rather than keeping
            # the last one seen.
            analysis = AccessPathAnalysis(self.impl)
            states: Dict[int, object] = {}
            for stmt, state in forward_states(self.cfg, analysis):
                if stmt.node is None:
                    continue
                key = id(stmt.node)
                if key in states:
                    states[key] = analysis.join([states[key], state])
                else:
                    states[key] = state
            self._node_states = states
        return self._node_states.get(id(node))

    @property
    def sites(self) -> Tuple[Site, ...]:
        """Every obligation of the body in wlp's registration order (see
        :func:`repro.vcgen.wlp.obligation_shapes`)."""
        if self._sites is None:
            self._sites = self._build_sites()
        return self._sites

    def _build_sites(self) -> Tuple[Site, ...]:
        from repro.vcgen.wlp import obligation_shapes

        proc = self._procs.get(self.impl.name)
        modifies = proc.modifies if proc else ()
        frame = tuple(str(d) for d in modifies)
        sites: list = []
        # wlp builds backwards, so a Seq registers its last command first
        # and a Choice its first arm first. Walk depth-first with an
        # explicit stack, children pushed in reverse of that order.
        stack = [self.impl.body]
        while stack:
            cmd = stack.pop()
            if isinstance(cmd, VarCmd):
                stack.append(cmd.body)
                continue
            if isinstance(cmd, Seq):
                stack.extend(cmd.cmds)
                continue
            if isinstance(cmd, Choice):
                stack.extend(reversed(cmd.cmds))
                continue
            callee = None
            if isinstance(cmd, Call):
                callee = self._procs.get(cmd.proc)
                if callee is None:
                    raise VerificationError(
                        f"call to undeclared procedure {cmd.proc!r}"
                    )
            shapes = obligation_shapes(cmd, callee)
            if not shapes:
                continue
            state = self.state_at(cmd)
            if isinstance(cmd, Call):
                actuals = dict(zip(callee.params, cmd.args))
                written = [
                    owner_values(actuals.get(d.root), d.path, state)
                    for d in callee.modifies
                ]
            elif isinstance(cmd, (Assign, AssignNew)):
                written = [owner_values(cmd.target.obj, (), state)]
            else:
                written = []
            for index, shape in enumerate(shapes):
                values = written[index] if index < len(written) else _NO_VALUES
                covering = {
                    value: self._lattice.covering(
                        modifies, Designator(value.root, value.path, shape[1])
                    )
                    for value in values or ()
                    if isinstance(value, PathVal)
                }
                sites.append(
                    Site(
                        cmd, len(sites), shape, state, values, covering,
                        frame, callee,
                    )
                )
        return tuple(sites)


_NO_VALUES: FrozenSet[object] = frozenset()


def owner_values(
    actual: Optional[Expr], path: Tuple[str, ...], state
) -> Optional[FrozenSet[object]]:
    """The abstract objects ``actual.path`` may denote in ``state``; each
    step of the path applies the must-fresh check of ``eval_expr``."""
    if actual is None:
        return None
    if state is None:
        return _NO_VALUES
    owner = actual
    for field_name in path:
        owner = FieldAccess(owner, field_name)
    return eval_expr(owner, state)


class ScopeFacts:
    """The analysis cache of one scope. Nothing in it refers back to the
    scope, so the scope and its cache form no reference cycle and are
    freed together the moment the scope is dropped."""

    def __init__(self, procs: Dict[str, ProcDecl]):
        #: The scope's procedure table, which :class:`ImplFacts` reads.
        self.procs = procs
        self.lattice = None
        self.call_graph = None
        #: ``id(impl)`` -> facts; each entry holds ``impl`` itself, so the
        #: ``id`` cannot be reused while the cache lives.
        self.impls: Dict[int, ImplFacts] = {}


def _cache(scope: Scope) -> ScopeFacts:
    facts = scope.analysis_facts
    if facts is None:
        facts = ScopeFacts(scope.procs)
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
    cache = _cache(scope)
    facts = cache.impls.get(id(impl))
    if facts is None or facts.impl is not impl:
        facts = ImplFacts(impl, cache.procs, scope_lattice(scope))
        cache.impls[id(impl)] = facts
    return facts
