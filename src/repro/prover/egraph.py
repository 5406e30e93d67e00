"""An E-graph: congruence closure over ground terms with an undo trail.

Terms are hash-consed into integer node ids. A union-find (union by size,
no path compression, so that unions can be undone) maintains equivalence
classes; a signature table drives congruence propagation; class member
lists support E-matching; disequalities and integer constant values are
tracked for consistency.

Disequalities are indexed per class, as in Simplify: each root keeps the
nodes its class is asserted unequal to, and a union appends the absorbed
root's list to the survivor's. ``are_diseq`` then scans one class's list
and the post-merge conflict check looks only at the roots absorbed since
the previous check, instead of every asserted disequality.

Boolean structure is encoded by two distinguished nodes ``TRUE`` and
``FALSE`` (asserted distinct): a predicate atom holds iff its node is
merged with ``TRUE``.

All class-level mutations (unions, disequalities, signature-table updates)
record undo entries; :meth:`EGraph.push` / :meth:`EGraph.pop` provide the
backtracking used by the tableau search. Node *creation* is permanent —
interned terms survive pops, only their merges are undone — which keeps
instance deduplication stable across branches. Consequently a node's
parent registrations are also permanent and kept per child *node*; a merge
collects the absorbed class's parents through its (undo-tracked) member
list, so nodes created in abandoned branches still participate in
congruence later.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ProverError
from repro.logic.terms import App, Const, IntLit, Term, Var

#: Function symbols folded on integer literals.
_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}

#: Comparison symbols folded on integer literals (to TRUE/FALSE).
_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class EGraph:
    """Hash-consed ground terms with congruence closure and backtracking."""

    def __init__(self):
        # Node payloads, parallel arrays indexed by node id.
        self._term: List[Term] = []  # original term of each node
        self._head: List[Optional[str]] = []  # fn symbol for app nodes
        self._children: List[Tuple[int, ...]] = []

        # Union-find state.
        self._parent: List[int] = []
        self._size: List[int] = []
        self._members: List[List[int]] = []  # member node ids, per root
        self._uses: List[List[int]] = []  # parent app nodes, per node
        self._int_value: List[Optional[int]] = []  # per root

        # Hash-consing and congruence signatures. ``_node_of`` maps every
        # interned term to its node: creation is permanent, so an interned
        # term is found with one probe instead of a walk over its
        # arguments. ``_memo`` maps each application node's (fn, child ids),
        # for looking up terms that are not interned themselves.
        self._node_of: Dict[Term, int] = {}
        self._memo: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self._sig: Dict[Tuple[str, Tuple[int, ...]], int] = {}

        # Head-symbol index for E-matching: fn -> app node ids.
        self._head_index: Dict[str, List[int]] = {}

        # Asserted disequalities (node id pairs), kept for countermodels.
        self._diseqs: List[Tuple[int, int]] = []
        # Per root: the nodes its class is asserted unequal to (the other
        # side of every disequality with a member in the class).
        self._diseq_of: List[List[int]] = []
        # Roots absorbed by unions since the last _check_diseqs.
        self._absorbed: List[int] = []

        # Interpreted app nodes pending constant folding.
        self._interpreted: List[int] = []

        # Undo trail: list of (tag, payload...) tuples.
        self._trail: List[Tuple] = []

        self._conflict: bool = False

        #: Cumulative count of class unions performed. Deliberately NOT
        #: undone by :meth:`pop`: it measures congruence-closure *work*
        #: (for telemetry), not live state.
        self.merges: int = 0

        self.TRUE = self.intern(Const("@true"))
        self.FALSE = self.intern(Const("@false"))
        ok = self.assert_diseq(self.TRUE, self.FALSE)
        assert ok

    def copy(self) -> "EGraph":
        """An independent E-graph in the same state, with the same node ids.

        Terms, child tuples, signatures and trail entries are immutable and
        shared; every mutable list and dict is copied, so neither graph's
        later interns, merges, disequalities or pops show in the other.
        (``copy.deepcopy`` would also copy every term, and lose the hashes
        the terms cache.)
        """
        clone = object.__new__(EGraph)
        clone._term = list(self._term)
        clone._head = list(self._head)
        clone._children = list(self._children)
        clone._parent = list(self._parent)
        clone._size = list(self._size)
        clone._members = [list(members) for members in self._members]
        clone._uses = [list(uses) for uses in self._uses]
        clone._int_value = list(self._int_value)
        clone._node_of = dict(self._node_of)
        clone._memo = dict(self._memo)
        clone._sig = dict(self._sig)
        clone._head_index = {fn: list(nodes) for fn, nodes in self._head_index.items()}
        clone._diseqs = list(self._diseqs)
        clone._diseq_of = [list(others) for others in self._diseq_of]
        clone._absorbed = list(self._absorbed)
        clone._interpreted = list(self._interpreted)
        clone._trail = list(self._trail)
        clone._conflict = self._conflict
        clone.merges = self.merges
        clone.TRUE = self.TRUE
        clone.FALSE = self.FALSE
        return clone

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    def intern(self, term: Term) -> int:
        """Intern a ground term, returning its node id.

        Interning an application also performs upward congruence: if an
        existing application is congruent under the current equalities, the
        two nodes are merged immediately.
        """
        node = self._node_of.get(term)
        if node is not None:
            return node
        # A term missing from ``_node_of`` is new: structurally equal terms
        # are equal keys there, and terms with equal memo keys are equal.
        if isinstance(term, Const):
            return self._new_node(term, None, ())
        if isinstance(term, IntLit):
            node = self._new_node(term, None, ())
            self._int_value[node] = term.value
            return node
        if isinstance(term, App):
            child_ids = tuple(self.intern(a) for a in term.args)
            node = self._new_node(term, term.fn, child_ids)
            self._memo[(term.fn, child_ids)] = node
            self._head_index.setdefault(term.fn, []).append(node)
            # Parent registration is PERMANENT and per child *node* (not per
            # root): nodes survive pops, so their congruence bookkeeping
            # must too. Merges collect a class's parents via its member
            # list, which is itself undo-tracked.
            for child in set(child_ids):
                self._uses[child].append(node)
            if term.fn in _ARITH or term.fn in _COMPARE:
                self._interpreted.append(node)
            # Upward congruence with an existing application.
            signature = (term.fn, tuple(self.find(c) for c in child_ids))
            other = self._sig.get(signature)
            if other is not None and self.find(other) != self.find(node):
                self._merge(node, other)
                self._check_diseqs()
            else:
                self._trail.append(("sig", signature, self._sig.get(signature)))
                self._sig[signature] = node
            self._fold_interpreted()
            return node
        if isinstance(term, Var):
            raise ProverError(f"cannot intern non-ground term containing {term}")
        raise TypeError(f"not a term: {term!r}")

    def _new_node(self, term: Term, head: Optional[str], children: Tuple[int, ...]) -> int:
        node = len(self._term)
        self._node_of[term] = node
        self._term.append(term)
        self._head.append(head)
        self._children.append(children)
        self._parent.append(node)
        self._size.append(1)
        self._members.append([node])
        self._uses.append([])
        self._int_value.append(None)
        self._diseq_of.append([])
        return node

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------

    def find(self, node: int) -> int:
        while self._parent[node] != node:
            node = self._parent[node]
        return node

    def are_equal(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def are_diseq(self, a: int, b: int) -> bool:
        """True iff ``a != b`` follows from asserted facts."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        va, vb = self._int_value[ra], self._int_value[rb]
        if va is not None and vb is not None and va != vb:
            return True
        others, target = self._diseq_of[ra], rb
        if len(self._diseq_of[rb]) < len(others):
            others, target = self._diseq_of[rb], ra
        find = self.find
        for other in others:
            if find(other) == target:
                return True
        return False

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------

    def assert_eq(self, a: int, b: int) -> bool:
        """Merge two classes; False (and conflict state) on inconsistency."""
        if self._conflict:
            return False
        self._merge(a, b)
        if not self._conflict:
            self._fold_interpreted()
            self._check_diseqs()
        return not self._conflict

    def assert_diseq(self, a: int, b: int) -> bool:
        if self._conflict:
            return False
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self._set_conflict()
            return False
        self._diseqs.append((a, b))
        self._diseq_of[ra].append(b)
        self._diseq_of[rb].append(a)
        self._trail.append(("diseq", ra, rb))
        return True

    def truth(self, node: int) -> Optional[bool]:
        """Three-valued truth of a boolean node relative to TRUE/FALSE."""
        root = self.find(node)
        if root == self.find(self.TRUE):
            return True
        if root == self.find(self.FALSE):
            return False
        if self.are_diseq(node, self.TRUE):
            return False
        return None

    @property
    def in_conflict(self) -> bool:
        return self._conflict

    def _set_conflict(self) -> None:
        if not self._conflict:
            self._conflict = True
            self._trail.append(("conflict",))

    # ------------------------------------------------------------------
    # Congruence closure
    # ------------------------------------------------------------------

    def _merge(self, a: int, b: int) -> None:
        pending = [(a, b)]
        while pending and not self._conflict:
            x, y = pending.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if self._size[rx] < self._size[ry]:
                rx, ry = ry, rx
            # Integer value consistency and propagation.
            vx, vy = self._int_value[rx], self._int_value[ry]
            if vx is not None and vy is not None and vx != vy:
                self._set_conflict()
                return
            # Union ry into rx.
            self.merges += 1
            absorbed_members = list(self._members[ry])
            surviving_members = list(self._members[rx])
            self._trail.append(
                ("union", rx, ry, self._size[rx], self._int_value[rx],
                 len(self._members[rx]), len(self._diseq_of[rx]))
            )
            self._parent[ry] = rx
            self._size[rx] += self._size[ry]
            self._members[rx].extend(absorbed_members)
            self._diseq_of[rx].extend(self._diseq_of[ry])
            self._absorbed.append(ry)
            if vx is None and vy is not None:
                self._int_value[rx] = vy
            # Re-signature the parents of every member of BOTH classes
            # (permanent per-node registrations). Both sides are needed:
            # a surviving-side parent may have lost its signature entry to
            # a pop, and this merge is its chance to collide with a
            # congruent peer.
            for member in absorbed_members + surviving_members:
                for parent in self._uses[member]:
                    signature = (
                        self._head[parent],
                        tuple(self.find(c) for c in self._children[parent]),
                    )
                    other = self._sig.get(signature)
                    if other is not None and self.find(other) != self.find(parent):
                        pending.append((parent, other))
                    else:
                        self._trail.append(
                            ("sig", signature, self._sig.get(signature))
                        )
                        self._sig[signature] = parent

    def _check_diseqs(self) -> None:
        """Flag a conflict if a union joined two disequal classes.

        Any such union absorbed a root whose list names a node of the
        other class, so checking the absorbed roots' lists against their
        current root covers every disequality.
        """
        absorbed, self._absorbed = self._absorbed, []
        find = self.find
        for ry in absorbed:
            root = find(ry)
            for other in self._diseq_of[ry]:
                if find(other) == root:
                    self._set_conflict()
                    return

    def _fold_interpreted(self) -> None:
        """Constant-fold interpreted applications to a fixpoint."""
        changed = True
        while changed and not self._conflict:
            changed = False
            for node in self._interpreted:
                values = [self._int_value[self.find(c)] for c in self._children[node]]
                if any(v is None for v in values):
                    continue
                fn = self._head[node]
                if fn in _ARITH:
                    result = _ARITH[fn](values[0], values[1])
                    lit = self.intern(IntLit(result))
                    if self.find(node) != self.find(lit):
                        self._merge(node, lit)
                        changed = True
                elif fn in _COMPARE:
                    result = _COMPARE[fn](values[0], values[1])
                    target = self.TRUE if result else self.FALSE
                    if self.find(node) != self.find(target):
                        self._merge(node, target)
                        changed = True
            if changed:
                self._check_diseqs()

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def push(self) -> int:
        """Mark the current state; returns a token for :meth:`pop`."""
        return len(self._trail)

    def pop(self, mark: int) -> None:
        """Undo all mutations recorded after ``mark``."""
        # Every API call checks its own unions before returning (or ends
        # in conflict), so nothing absorbed before ``mark`` is pending.
        self._absorbed.clear()
        while len(self._trail) > mark:
            entry = self._trail.pop()
            tag = entry[0]
            if tag == "union":
                _, rx, ry, old_size, old_value, old_members, old_diseqs = entry
                self._parent[ry] = ry
                self._size[rx] = old_size
                self._int_value[rx] = old_value
                del self._members[rx][old_members:]
                del self._diseq_of[rx][old_diseqs:]
            elif tag == "sig":
                _, key, old = entry
                if old is None:
                    self._sig.pop(key, None)
                else:
                    self._sig[key] = old
            elif tag == "diseq":
                _, ra, rb = entry
                self._diseqs.pop()
                self._diseq_of[ra].pop()
                self._diseq_of[rb].pop()
            elif tag == "conflict":
                self._conflict = False
            else:  # pragma: no cover - defensive
                raise ProverError(f"unknown trail entry {tag!r}")

    # ------------------------------------------------------------------
    # Introspection (used by the matcher and diagnostics)
    # ------------------------------------------------------------------

    def lookup(self, term: Term) -> Optional[int]:
        """The node id of ``term`` if it is already interned, else None.

        Never creates nodes — used by the relevancy filter to evaluate
        candidate instances without polluting the term universe. An
        application that is not interned itself may still name a node
        through :meth:`lookup_app`.
        """
        node = self._node_of.get(term)
        if node is not None:
            return node
        if isinstance(term, App):
            return self.lookup_app(term.fn, term.args)
        return None

    def lookup_app(self, fn: str, args: Tuple[Term, ...]) -> Optional[int]:
        """The node of ``fn(args)`` found through its looked-up arguments:
        by hash-consing, else by congruence through the signature table.
        None if an argument or the application is unknown."""
        child_ids = []
        for arg in args:
            child = self.lookup(arg)
            if child is None:
                return None
            child_ids.append(child)
        return self.app_node(fn, tuple(child_ids))

    def app_node(self, fn: str, child_ids: Tuple[int, ...]) -> Optional[int]:
        """The node of ``fn`` applied to the terms of ``child_ids``: the
        hash-consed one, else a congruent one through the signature table.
        None if neither exists; never creates nodes."""
        node = self._memo.get((fn, child_ids))
        if node is not None:
            return node
        find = self.find
        return self._sig.get((fn, tuple([find(c) for c in child_ids])))

    def term_of(self, node: int) -> Term:
        return self._term[node]

    def head_of(self, node: int) -> Optional[str]:
        return self._head[node]

    def children_of(self, node: int) -> Tuple[int, ...]:
        return self._children[node]

    def apps_with_head(self, fn: str) -> Tuple[int, ...]:
        return tuple(self._head_index.get(fn, ()))

    def head_count(self, fn: str) -> int:
        """How many application nodes have head ``fn``."""
        return len(self._head_index.get(fn, ()))

    def class_use_count(self, node: int) -> int:
        """How many parent registrations the members of ``node``'s class
        have — the cost of :meth:`parents_at` on that class."""
        uses = self._uses
        return sum(len(uses[m]) for m in self._members[self.find(node)])

    def parents_at(self, node: int, fn: str, arity: int, position: int) -> List[int]:
        """Application nodes ``fn(...)`` of ``arity`` arguments whose
        argument ``position`` is in ``node``'s class, by ascending id.

        Found through the permanent per-node parent lists of the class
        members, so the cost follows the class, not the head symbol.
        """
        root = self.find(node)
        find, head, children = self.find, self._head, self._children
        found = set()
        for member in self._members[root]:
            for parent in self._uses[member]:
                if head[parent] == fn:
                    args = children[parent]
                    if len(args) == arity and find(args[position]) == root:
                        found.add(parent)
        return sorted(found)

    def class_members(self, node: int) -> Iterable[int]:
        return tuple(self._members[self.find(node)])

    def class_apps_with_head(self, node: int, fn: str) -> Iterable[int]:
        return tuple(
            m for m in self._members[self.find(node)] if self._head[m] == fn
        )

    def int_value_of(self, node: int) -> Optional[int]:
        return self._int_value[self.find(node)]

    def diseq_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The asserted disequalities, as node-id pairs (for countermodels)."""
        return tuple(self._diseqs)

    @property
    def node_count(self) -> int:
        return len(self._term)
