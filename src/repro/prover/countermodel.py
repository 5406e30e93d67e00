"""Structured countermodels: the refuting branch state, kept not discarded.

When the solver saturates a branch (``SAT`` — the goal is not provable),
the branch's E-graph *is* the countermodel: its equivalence classes say
which terms the refutation was forced to identify, its TRUE/FALSE
classes decide the atoms, its disequalities record the separations, and
the instantiation ledger names the quantifier witnesses the branch
fired. All of that used to be thrown away when the search unwound; in
explain mode it is captured here as a :class:`Countermodel` the upper
layers (:mod:`repro.obs.explain`) can interrogate after the solver is
gone.

The capture is a *normalized snapshot*: every node is rendered once, each
equivalence class picks a canonical representative string, and
applications are indexed by ``(head, child representatives)``. That
gives the explainer congruence-closure-faithful queries —
:meth:`Countermodel.rep` normalizes any ground term through the
snapshot, and :meth:`Countermodel.truth` decides atoms exactly as the
branch did — without holding onto the (backtracked) E-graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.printer import format_term
from repro.logic.terms import App, Const, IntLit, Term

#: Heads that encode boolean atoms of the VC vocabulary; the summary
#: renderer surfaces these first because they carry the story.
ATOM_HEADS = ("inc", "linc", "rinc", "alive", "isObj")


@dataclass
class InstanceWitness:
    """One quantifier instance alive in the refuting branch."""

    quantifier: str
    bindings: Dict[str, str]  # variable -> witness representative

    def to_dict(self) -> dict:
        return {
            "quantifier": self.quantifier,
            "bindings": dict(sorted(self.bindings.items())),
        }


@dataclass
class Countermodel:
    """A normalized snapshot of the refuting branch's ground state."""

    #: representative -> sorted member renderings (only classes with
    #: more than one member are interesting, but all are kept).
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: term rendering -> its class representative.
    term_class: Dict[str, str] = field(default_factory=dict)
    #: (head, child representatives) -> representative of the application.
    app_index: Dict[Tuple[str, Tuple[str, ...]], str] = field(
        default_factory=dict
    )
    #: asserted disequalities, as representative pairs.
    diseqs: List[Tuple[str, str]] = field(default_factory=list)
    true_rep: str = "@true"
    false_rep: str = "@false"
    #: quantifier instances fired on the path to this branch.
    instances: List[InstanceWitness] = field(default_factory=list)
    #: obligation-marker ids asserted true in the branch.
    markers: List[int] = field(default_factory=list)

    # -- queries --------------------------------------------------------

    def rep(self, term: Term) -> str:
        """The representative of ``term``, normalized through the model.

        Terms the branch never saw normalize structurally (children
        first), so queries about unseen terms still resolve as far as
        the model's congruences allow.
        """
        if isinstance(term, App):
            child_reps = tuple(self.rep(child) for child in term.args)
            hit = self.app_index.get((term.fn, child_reps))
            if hit is not None:
                return hit
            rendering = f"({term.fn} {' '.join(child_reps)})"
            return self.term_class.get(rendering, rendering)
        rendering = format_term(term)
        return self.term_class.get(rendering, rendering)

    def equal(self, left: Term, right: Term) -> Optional[bool]:
        left_rep, right_rep = self.rep(left), self.rep(right)
        if left_rep == right_rep:
            return True
        if self._diseq_reps(left_rep, right_rep):
            return False
        return None

    def _diseq_reps(self, left_rep: str, right_rep: str) -> bool:
        for a, b in self.diseqs:
            if (a, b) == (left_rep, right_rep) or (b, a) == (
                left_rep,
                right_rep,
            ):
                return True
        return False

    def truth(self, head: str, args: Sequence[Term]) -> Optional[bool]:
        """Three-valued truth of the atom ``head(args)`` in the branch."""
        child_reps = tuple(self.rep(a) for a in args)
        rep = self.app_index.get((head, child_reps))
        if rep is None:
            return None
        if rep == self.true_rep:
            return True
        if rep == self.false_rep:
            return False
        if self._diseq_reps(rep, self.true_rep):
            return False
        return None

    def atoms(self, head: str):
        """All recorded atoms with ``head``: ``(arg_reps, truth)`` pairs."""
        for (fn, child_reps), rep in self.app_index.items():
            if fn != head:
                continue
            if rep == self.true_rep:
                truth: Optional[bool] = True
            elif rep == self.false_rep or self._diseq_reps(rep, self.true_rep):
                truth = False
            else:
                truth = None
            yield child_reps, truth

    def decided_atoms(
        self, heads: Sequence[str] = ATOM_HEADS
    ) -> Tuple[List[str], List[str]]:
        """Rendered atoms decided true/false, for the report summary."""
        true_atoms: List[str] = []
        false_atoms: List[str] = []
        for head in heads:
            for child_reps, truth in self.atoms(head):
                rendering = f"({head} {' '.join(child_reps)})"
                if truth is True:
                    true_atoms.append(rendering)
                elif truth is False:
                    false_atoms.append(rendering)
        return sorted(true_atoms), sorted(false_atoms)

    def merged_classes(self) -> Dict[str, List[str]]:
        """Only the classes where the branch actually identified terms."""
        return {
            rep: members
            for rep, members in self.classes.items()
            if len(members) > 1
        }

    def to_dict(self, *, max_atoms: int = 40, max_classes: int = 20) -> dict:
        true_atoms, false_atoms = self.decided_atoms()
        merged = self.merged_classes()
        return {
            "true_atoms": true_atoms[:max_atoms],
            "false_atoms": false_atoms[:max_atoms],
            "classes": {
                rep: members
                for rep, members in sorted(merged.items())[:max_classes]
            },
            "diseqs": [list(pair) for pair in self.diseqs[:max_atoms]],
            "instances": [witness.to_dict() for witness in self.instances],
            "markers": list(self.markers),
        }


def capture_countermodel(
    egraph, seen_instances, markers, quantifiers
) -> Countermodel:
    """Snapshot ``egraph`` (and the instantiation ledger) at a SAT leaf.

    ``seen_instances`` is the solver's ``_seen`` key set — pairs of
    ``(quantifier integer, witness node tuple)`` alive on the current
    branch, where ``quantifiers[integer]`` is the quantifier; ``markers``
    the obligation-marker ids true in the branch.
    """
    members_by_root: Dict[int, List[int]] = {}
    for node in range(egraph.node_count):
        members_by_root.setdefault(egraph.find(node), []).append(node)

    renderings = [format_term(egraph.term_of(n)) for n in range(egraph.node_count)]

    def preference(node: int) -> tuple:
        term = egraph.term_of(node)
        return (
            not isinstance(term, (Const, IntLit)),
            len(renderings[node]),
            renderings[node],
        )

    rep_of_root: Dict[int, str] = {}
    classes: Dict[str, List[str]] = {}
    for root, nodes in members_by_root.items():
        best = min(nodes, key=preference)
        rep = renderings[best]
        rep_of_root[root] = rep
        classes[rep] = sorted({renderings[n] for n in nodes})

    model = Countermodel(
        classes=classes,
        term_class={
            renderings[n]: rep_of_root[egraph.find(n)]
            for n in range(egraph.node_count)
        },
        true_rep=rep_of_root[egraph.find(egraph.TRUE)],
        false_rep=rep_of_root[egraph.find(egraph.FALSE)],
        markers=list(markers),
    )
    for node in range(egraph.node_count):
        head = egraph.head_of(node)
        if head is None:
            continue
        key = (
            head,
            tuple(rep_of_root[egraph.find(c)] for c in egraph.children_of(node)),
        )
        model.app_index.setdefault(key, rep_of_root[egraph.find(node)])
    model.diseqs = [
        (rep_of_root[egraph.find(a)], rep_of_root[egraph.find(b)])
        for a, b in egraph.diseq_pairs()
    ]
    for ident, witness_nodes in seen_instances:
        quantifier = quantifiers[ident]
        model.instances.append(
            InstanceWitness(
                quantifier=quantifier.name or "<anonymous>",
                bindings={
                    var: rep_of_root[egraph.find(node)]
                    for var, node in zip(quantifier.vars, witness_nodes)
                },
            )
        )
    model.instances.sort(key=lambda w: (w.quantifier, sorted(w.bindings.items())))
    return model
