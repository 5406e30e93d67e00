"""Explainable verdicts: blame reports and auditable proofs.

PR 3 made the pipeline observable in *time and work*; this module makes
it observable in *reasoning*. Two verdict stories are told:

* **Blame** (``NOT_PROVED``, and resource/timeout verdicts where an
  obligation was identified): the prover's refuting branch — kept as a
  :class:`repro.prover.countermodel.Countermodel` instead of being
  discarded — is translated back through the vcgen vocabulary into a
  source-anchored report: which command wrote which field at which
  ``file:line``, which modifies-list entries the write-licence was
  checked against, and which inclusion chain (local ``≽`` and rep
  ``—field→`` edges) failed to license it.
* **Proof** (``VERIFIED``): the prover's append-only
  :class:`repro.prover.prooflog.ProofLog` is re-validated by the
  independent :func:`repro.prover.prooflog.replay_proof_log` kernel, so
  "verified" is auditable rather than trusted.

:func:`explain_result` builds the :class:`Explanation`;
:func:`attach_to_trace` folds a compact summary into the per-VC span of
the installed tracer so Perfetto shows failure reasons inline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.terms import Const
from repro.prover.countermodel import Countermodel
from repro.prover.prooflog import ProofLog, ReplayResult, replay_proof_log
from repro.record import Record, field

#: Version stamp of the ``--explain-format json`` payload, checked by
#: ``explanations.schema.json``.
SCHEMA_VERSION = 1

#: The entry-store constant of the VC vocabulary (``$0``) — the store a
#: method's own modifies list is evaluated in, hence the store argument
#: of the ``inc`` atoms a write/call licence is decided on.
_ENTRY_STORE = Const("$0")


def _attr_const_name(attr: str) -> str:
    return f"attr${attr}"


# ---------------------------------------------------------------------------
# Static inclusion chains (scope declarations, no prover involved)
# ---------------------------------------------------------------------------


def _inclusion_edges(scope) -> Dict[str, List[Tuple[str, str]]]:
    """Downward inclusion edges declared by the scope.

    ``u -> [(label, v), ...]``: local edges ``g ≽ member`` for every
    attribute declaring ``in g``, and rep edges ``g —field→ mapped`` for
    every pivot maps-into clause.
    """
    edges: Dict[str, List[Tuple[str, str]]] = {}
    for name in scope.attribute_names():
        decl = scope.attribute(name)
        for group in decl.in_groups:
            edges.setdefault(group, []).append(("≽", name))
    for field_name, group, mapped in scope.all_rep_triples():
        edges.setdefault(group, []).append((f"—{field_name}→", mapped))
    return edges


def inclusion_chain(scope, from_attr: str, to_attr: str) -> Optional[str]:
    """The declared inclusion chain from ``from_attr`` down to
    ``to_attr``, rendered (``w ≽ cnt``, ``g —f→ b ≽ a``), or None when
    the scope declares no such chain — which is exactly why the licence
    check failed."""
    if from_attr == to_attr:
        return from_attr
    edges = _inclusion_edges(scope)
    parents: Dict[str, Tuple[str, str]] = {}  # node -> (label, predecessor)
    queue = [from_attr]
    seen = {from_attr}
    while queue:
        node = queue.pop(0)
        for label, successor in edges.get(node, ()):
            if successor in seen:
                continue
            seen.add(successor)
            parents[successor] = (label, node)
            if successor == to_attr:
                hops: List[str] = [successor]
                while successor != from_attr:
                    label, successor = parents[successor]
                    hops.append(label)
                    hops.append(successor)
                return " ".join(reversed(hops))
            queue.append(successor)
    return None


# ---------------------------------------------------------------------------
# Countermodel interrogation
# ---------------------------------------------------------------------------


def _refuted_inclusions(
    model: Countermodel, entry_attr: str, written_attr: Optional[str]
) -> List[str]:
    """The false ``inc`` atoms deciding a write/call licence.

    Under the ordered goal negation, the refuting branch asserts the
    licence's ``incl`` disjunction *false* — one ground
    ``inc($0, owner, attr$entry, obj, attr$written)`` atom per modifies
    entry. Matching them by the entry-store and attribute-constant
    representatives recovers exactly the inclusion the branch refuted.
    """
    store_rep = model.rep(_ENTRY_STORE)
    entry_rep = model.rep(Const(_attr_const_name(entry_attr)))
    written_rep = (
        model.rep(Const(_attr_const_name(written_attr)))
        if written_attr is not None
        else None
    )
    found: List[str] = []
    for child_reps, truth in model.atoms("inc"):
        if truth is not False or len(child_reps) != 5:
            continue
        if child_reps[0] != store_rep or child_reps[2] != entry_rep:
            continue
        if written_rep is not None and child_reps[4] != written_rep:
            continue
        found.append("(inc " + " ".join(child_reps) + ") = false")
    return sorted(found)


def _violating_inclusions(
    model: Countermodel, entry_attr: str
) -> List[str]:
    """The true ``inc`` atoms witnessing an owner-exclusion violation.

    Owner exclusion forbids ``incl``; its refutation asserts some
    ``inc(S, owner, attr$entry, X, A)`` atom *true*.
    """
    entry_rep = model.rep(Const(_attr_const_name(entry_attr)))
    found: List[str] = []
    for child_reps, truth in model.atoms("inc"):
        if truth is not True or len(child_reps) != 5:
            continue
        if child_reps[2] != entry_rep:
            continue
        found.append("(inc " + " ".join(child_reps) + ") = true")
    return sorted(found)


# ---------------------------------------------------------------------------
# The explanation data model
# ---------------------------------------------------------------------------


class InclusionCheck(Record):
    """One modifies-list entry a licence was checked against."""

    entry: str  # source text of the modifies entry, e.g. "t.w"
    entry_attr: str  # its attribute (the "w" of "t.w")
    written_attr: Optional[str]  # the attribute being written
    #: The declared inclusion chain from ``entry_attr`` down to
    #: ``written_attr`` — None when the scope declares none.
    chain: Optional[str]
    #: Countermodel witnesses: the ``inc`` atoms deciding this check.
    witnesses: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "entry_attr": self.entry_attr,
            "written_attr": self.written_attr,
            "chain": self.chain,
            "witnesses": list(self.witnesses),
        }

    def describe(self) -> str:
        if self.chain is not None:
            status = f"declared chain: {self.chain}"
        elif self.written_attr is not None:
            status = (
                f"no declared inclusion chain from "
                f"{self.entry_attr!r} to {self.written_attr!r}"
            )
        else:
            status = "checked"
        text = f"{self.entry}: {status}"
        for witness in self.witnesses:
            text += f"\n  countermodel: {witness}"
        return text


class Explanation(Record):
    """Why one implementation got its verdict.

    ``kind`` is ``"blame"`` (a failure anchored to a source command),
    ``"proof"`` (a replayable refutation log), or ``"none"`` (nothing to
    explain — e.g. an internal error before the prover ran).
    """

    kind: str
    impl: str
    index: int
    status: str
    #: Blame: the structured obligation (``ObligationInfo.to_dict()``).
    obligation: Optional[dict] = None
    #: Blame: one check per modifies-list entry of the licence.
    checks: List[InclusionCheck] = field(default_factory=list)
    #: Blame: the countermodel summary (``Countermodel.to_dict()``).
    countermodel: Optional[dict] = None
    #: Proof: the full log (kept as an object for programmatic replay) …
    proof_log: Optional[ProofLog] = None
    #: … and the independent replay verdict over it.
    replay: Optional[ReplayResult] = None

    def to_dict(self, *, max_steps: int = 200) -> dict:
        proof = None
        if self.proof_log is not None:
            proof = self.proof_log.to_dict(max_steps=max_steps)
            proof["replay_ok"] = (
                self.replay.ok if self.replay is not None else None
            )
            proof["replay"] = (
                self.replay.describe() if self.replay is not None else None
            )
        return {
            "kind": self.kind,
            "impl": self.impl,
            "index": self.index,
            "status": self.status,
            "obligation": self.obligation,
            "checks": [check.to_dict() for check in self.checks],
            "countermodel": self.countermodel,
            "proof": proof,
        }

    def render_text(self) -> str:
        head = f"{self.kind}: impl {self.impl}#{self.index} — {self.status}"
        lines = [head]
        if self.kind == "proof":
            assert self.proof_log is not None
            counts = self.proof_log.counts()
            rendered = " ".join(
                f"{kind}={count}" for kind, count in sorted(counts.items())
            )
            lines.append(
                f"  proof log: {len(self.proof_log)} step(s) ({rendered})"
            )
            if self.replay is not None:
                lines.append(f"  {self.replay.describe()}")
            return "\n".join(lines)
        if self.obligation is not None:
            lines.append(
                f"  obligation #{self.obligation.get('ident')}: "
                f"{self.obligation.get('kind')}: "
                f"{self.obligation.get('description')}"
            )
            if self.obligation.get("position"):
                lines.append(f"  source: {self.obligation['position']}")
            if self.obligation.get("target"):
                what = "wrote" if self.obligation.get("kind") == "write-licence" else "on"
                detail = f"  {what}: {self.obligation['target']}"
                if self.obligation.get("attr"):
                    detail += f" (attribute {self.obligation['attr']!r})"
                lines.append(detail)
            if self.obligation.get("callee"):
                lines.append(f"  callee: {self.obligation['callee']}")
        if self.checks:
            listed = ", ".join(
                self.obligation.get("modifies", []) if self.obligation else []
            )
            lines.append(f"  checked against modifies list [{listed}]:")
            for check in self.checks:
                lines.append("    " + check.describe().replace("\n", "\n    "))
        if self.countermodel is not None:
            merged = len(self.countermodel.get("classes", {}))
            instances = len(self.countermodel.get("instances", []))
            markers = self.countermodel.get("markers", [])
            lines.append(
                f"  countermodel: {merged} merged class(es), "
                f"{instances} quantifier instance(s), markers {markers}"
            )
        if len(lines) == 1:
            lines.append("  (no further detail available)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _blame_checks(
    scope, obligation, model: Optional[Countermodel]
) -> List[InclusionCheck]:
    checks: List[InclusionCheck] = []
    written_attr = obligation.attr
    for entry in obligation.modifies:
        entry_attr = entry.split(".")[-1]
        chain = (
            inclusion_chain(scope, entry_attr, written_attr)
            if written_attr is not None
            else None
        )
        witnesses: List[str] = []
        if model is not None:
            if obligation.kind == "owner-exclusion":
                witnesses = _violating_inclusions(model, entry_attr)
            else:
                witnesses = _refuted_inclusions(model, entry_attr, written_attr)
        checks.append(
            InclusionCheck(
                entry=entry,
                entry_attr=entry_attr,
                written_attr=written_attr,
                chain=chain,
                witnesses=witnesses,
            )
        )
    return checks


def explain_result(
    scope, impl_name: str, index: int, status: str, obligation, result
) -> Explanation:
    """Build the explanation for one implementation's verdict.

    ``obligation`` is the :class:`repro.vcgen.wlp.ObligationInfo` the
    checker identified as failed/pending (or None); ``result`` the
    :class:`repro.prover.core.ProverResult` (or None when the prover
    never ran). Only called in explain mode — the default path never
    reaches this module.
    """
    if result is not None and result.proof_log is not None:
        return Explanation(
            kind="proof",
            impl=impl_name,
            index=index,
            status=status,
            proof_log=result.proof_log,
            replay=replay_proof_log(result.proof_log),
        )
    model = result.countermodel if result is not None else None
    if obligation is None and model is None:
        return Explanation(
            kind="none", impl=impl_name, index=index, status=status
        )
    explanation = Explanation(
        kind="blame",
        impl=impl_name,
        index=index,
        status=status,
        obligation=obligation.to_dict() if obligation is not None else None,
        countermodel=model.to_dict() if model is not None else None,
    )
    if obligation is not None:
        explanation.checks = _blame_checks(scope, obligation, model)
    return explanation


def blame_summary(explanation: Explanation) -> Optional[str]:
    """A one-line blame summary (for span args and report lines)."""
    if explanation.kind != "blame" or explanation.obligation is None:
        return None
    parts = [
        f"{explanation.obligation.get('kind')}",
        f"{explanation.obligation.get('description')}",
    ]
    missing = [c.entry for c in explanation.checks if c.chain is None]
    if missing:
        parts.append(f"no inclusion chain from {', '.join(missing)}")
    return " — ".join(part for part in parts if part)


def attach_to_trace(explanation: Explanation) -> None:
    """Fold a compact explanation summary into the per-VC span.

    Spans are plain records on the installed tracer, so the (already
    closed) ``vc <impl>`` span can still take args — Perfetto then shows
    the failure reason inline with the timing. No-op without a tracer.
    """
    from repro.obs import CAT_VC, current

    tracer = current()
    if tracer is None:
        return
    target = None
    for span in tracer.spans:
        if span.category == CAT_VC and span.name == f"vc {explanation.impl}":
            target = span  # last one wins: vcgen and prove both emit one
    if target is None:
        return
    args: dict = {"explanation": explanation.kind}
    summary = blame_summary(explanation)
    if summary is not None:
        args["blame"] = summary
    if explanation.replay is not None:
        args["replay_ok"] = explanation.replay.ok
        args["proof_steps"] = (
            len(explanation.proof_log) if explanation.proof_log else 0
        )
    target.args.update(args)
