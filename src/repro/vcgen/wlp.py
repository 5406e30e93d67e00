"""Weakest liberal preconditions for oolong commands (Figures 2 and 3).

``wlp(cmd, post)`` is computed backwards over the command structure. The
current store is the free variable ``$``; store-changing commands
substitute it. The entry store ``$0`` — against which the method's own
modifies list is evaluated, per the paper's "what is allowed to be
modified ... is determined by the method's declared modifies list evaluated
using the values of pivot fields on entry" — is a constant supplied by the
context.

Conjunct order is load-bearing: the refutation engine negates the goal in
*ordered* form, so obligations listed earlier (e.g. a call's owner-exclusion
check) may be assumed while refuting later ones (e.g. a subsequent assert) —
mirroring the paper's hand proofs.

Allocation commands substitute the store and target *simultaneously*
(``x := new()`` yields ``post[x := new($), $ := succ($)]``), which is the
operationally correct reading of the paper's substitution chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import VerificationError
from repro.logic.terms import (
    OBLIGATION_MARKER,
    And,
    App,
    Eq,
    Forall,
    Formula,
    Implies,
    IntLit,
    Pred,
    Term,
    TrueF,
    Var,
    conj,
    disj,
)
from repro.logic.subst import subst_formula
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    Call,
    Choice,
    Cmd,
    Designator,
    FieldAccess,
    Id,
    ProcDecl,
    Seq,
    Skip,
    SourcePosition,
    VarCmd,
)
from repro.oolong.program import Scope
from repro.vcgen.translate import (
    TranslationContext,
    mod_formula,
    own_excl_formula,
    tr_designator_prefix,
    tr_formula,
    tr_term,
    welldef_premises,
)
from repro.vcgen.vocab import (
    SEL,
    alive,
    alive_t,
    attr_const,
    new,
    sel,
    store_var,
    succ,
    upd,
)


@dataclass(frozen=True)
class ObligationInfo:
    """What one proof obligation is about, for failure reporting.

    Beyond the human-readable ``description``, the structured fields
    carry what the explanation layer (:mod:`repro.obs.explain`) needs to
    anchor blame without re-deriving the wlp: the source position of the
    offending command, the written location, and the modifies-list
    entries the licence was checked against.
    """

    ident: int
    kind: str
    description: str
    #: Source position of the command that raised the obligation.
    position: Optional["SourcePosition"] = None
    #: The location being written / checked, as source text (``t.f``).
    target: Optional[str] = None
    #: The attribute of that location (the ``f`` of ``t.f``).
    attr: Optional[str] = None
    #: The modifies-list entries the licence was checked against, as
    #: source text, in declaration order.
    modifies: Tuple[str, ...] = ()
    #: For call obligations: the callee's name …
    callee: Optional[str] = None
    #: … and, for owner exclusion, the 1-based argument position.
    arg_index: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.description}"

    def to_dict(self) -> dict:
        return {
            "ident": self.ident,
            "kind": self.kind,
            "description": self.description,
            "position": str(self.position) if self.position else None,
            "target": self.target,
            "attr": self.attr,
            "modifies": list(self.modifies),
            "callee": self.callee,
            "arg_index": self.arg_index,
        }


@dataclass
class WlpContext:
    """Everything wlp needs about the implementation being verified.

    ``owner_exclusion=False`` drops the call-site owner-exclusion checks —
    used only by the unsound naive baseline of the Section 3 experiments.

    ``obligations`` registers the proof obligations in emission order; each
    obligation conjunct is tagged with an inert marker atom so a failed
    proof can name the obligation it got stuck on (the highest-numbered
    marker asserted in the saturated branch, thanks to the ordered goal
    negation).
    """

    scope: Scope
    proc: ProcDecl
    ctx: TranslationContext
    entry_store: Term
    owner_exclusion: bool = True
    obligations: "List[ObligationInfo]" = None

    def __post_init__(self):
        if self.obligations is None:
            self.obligations = []

    @property
    def self_modifies(self) -> Tuple[Designator, ...]:
        return self.proc.modifies

    @property
    def self_env(self) -> Dict[str, Term]:
        return {p: self.ctx.env[p] for p in self.proc.params}

    def register(
        self, cmd: Cmd, callee: Optional[ProcDecl] = None
    ) -> List[ObligationInfo]:
        """Register the obligations of the atomic command ``cmd``."""
        infos = command_obligations(
            cmd,
            len(self.obligations),
            tuple(str(d) for d in self.self_modifies),
            callee,
            self.owner_exclusion,
        )
        self.obligations.extend(infos)
        return infos


def command_obligations(
    cmd: Cmd,
    ident: int,
    modifies: Tuple[str, ...],
    callee: Optional[ProcDecl] = None,
    owner_exclusion: bool = True,
) -> List[ObligationInfo]:
    """The obligations wlp registers for the atomic command ``cmd``, in
    registration order and numbered from ``ident``.

    ``modifies`` is the checked procedure's declared frame as source text
    and ``callee`` the procedure a :class:`Call` invokes. wlp tags its
    formulas with these records; the static analyses' site list
    (:attr:`repro.analysis.facts.ImplFacts.sites`) holds the same
    obligations as :func:`obligation_shapes` and builds each record only
    when something reads it.
    """
    return [
        obligation_info(cmd, ident + offset, shape, modifies, callee)
        for offset, shape in enumerate(
            obligation_shapes(cmd, callee, owner_exclusion)
        )
    ]


#: One obligation without its text: ``(kind, attr, subject, arg_index)``.
#: ``subject`` is the AST node it is about — the written location, the
#: asserted condition, the callee's designator or the actual — and
#: ``attr`` the attribute a licence is checked for (None for asserts
#: and owner exclusion), ``arg_index`` the 1-based argument position of
#: an owner exclusion (None otherwise).
ObligationShape = Tuple[str, Optional[str], object, Optional[int]]


def obligation_shapes(
    cmd: Cmd,
    callee: Optional[ProcDecl] = None,
    owner_exclusion: bool = True,
) -> List[ObligationShape]:
    """The obligations of the atomic command ``cmd`` in wlp's
    registration order, without their text.

    This is the one place the obligations of a command are enumerated;
    :func:`obligation_info` makes the record of each.
    """
    if isinstance(cmd, (Assign, AssignNew)):
        if not isinstance(cmd.target, FieldAccess):
            return []
        return [("write-licence", cmd.target.attr, cmd.target, None)]
    if isinstance(cmd, Assert):
        return [("assert", None, cmd.condition, None)]
    if not isinstance(cmd, Call):
        return []
    # Figure 3: a licence for every location the callee may modify, then
    # owner exclusion for every actual (vacuous when the callee's
    # modifies list is empty).
    shapes: List[ObligationShape] = [
        ("call-licence", designator.attr, designator, None)
        for designator in callee.modifies
    ]
    if owner_exclusion and callee.modifies:
        shapes.extend(
            ("owner-exclusion", None, arg, index + 1)
            for index, arg in enumerate(cmd.args)
        )
    return shapes


def obligation_info(
    cmd: Cmd,
    ident: int,
    shape: ObligationShape,
    modifies: Tuple[str, ...],
    callee: Optional[ProcDecl] = None,
) -> ObligationInfo:
    """The record of the obligation ``shape`` of ``cmd``, numbered
    ``ident``: its kind, description and details (see
    :func:`command_obligations` for ``modifies`` and ``callee``)."""
    kind, attr, subject, arg_index = shape
    target = str(subject)
    if kind == "write-licence":
        verb = "write to" if isinstance(cmd, Assign) else "allocation into"
        return ObligationInfo(
            ident,
            kind,
            f"{verb} {target}{_at(cmd)}",
            position=cmd.position,
            target=target,
            attr=attr,
            modifies=modifies,
        )
    if kind == "assert":
        return ObligationInfo(
            ident,
            kind,
            f"assert {target}{_at(cmd)}",
            position=cmd.position,
            target=target,
        )
    where = f"call {cmd.proc}{_at(cmd)}"
    if kind == "call-licence":
        return ObligationInfo(
            ident,
            kind,
            f"{where}: callee may modify {target}",
            position=cmd.position,
            target=target,
            attr=attr,
            modifies=modifies,
            callee=cmd.proc,
        )
    return ObligationInfo(
        ident,
        kind,
        f"{where}: argument #{arg_index} ({target})",
        position=cmd.position,
        target=target,
        modifies=tuple(str(d) for d in callee.modifies),
        callee=cmd.proc,
        arg_index=arg_index,
    )


def _at(cmd: Cmd) -> str:
    return f" at {cmd.position}" if cmd.position else ""


def _tag(info: ObligationInfo, formula: Formula) -> Formula:
    """Tag ``formula`` as the numbered proof obligation ``info``."""
    marker = Pred(OBLIGATION_MARKER, (IntLit(info.ident),))
    # A raw And, not conj(): folding must not absorb the marker when the
    # obligation is literally false (e.g. `assert false`).
    return And((marker, formula))


def wlp(cmd: Cmd, post: Formula, wctx: WlpContext) -> Formula:
    """``wlp_{w,$0}(cmd, post)`` with the current store as free ``$``.

    Every command that evaluates expressions is guarded by the blocking
    well-definedness assumption of those expressions (dereferenced values
    are non-null and allocated) — see ``welldef_premises``.
    """
    store = store_var()
    if isinstance(cmd, Assert):
        (info,) = wctx.register(cmd)
        tagged = _tag(info, tr_formula(cmd.condition, store, wctx.ctx))
        core = conj((tagged, post))
        return _guard((cmd.condition,), core, wctx)
    if isinstance(cmd, Assume):
        core = Implies(tr_formula(cmd.condition, store, wctx.ctx), post)
        return _guard((cmd.condition,), core, wctx)
    if isinstance(cmd, Skip):
        return post
    if isinstance(cmd, VarCmd):
        saved = wctx.ctx.env.get(cmd.name)
        wctx.ctx.env[cmd.name] = Var(cmd.name)
        body = wlp(cmd.body, post, wctx)
        if saved is None:
            del wctx.ctx.env[cmd.name]
        else:  # pragma: no cover - shadowing is rejected by well-formedness
            wctx.ctx.env[cmd.name] = saved
        return Forall((cmd.name,), body)
    if isinstance(cmd, Seq):
        for part in reversed(cmd.cmds):
            post = wlp(part, post, wctx)
        return post
    if isinstance(cmd, Choice):
        # A tuple: every arm registers its obligations, even past a false.
        return conj(tuple(wlp(part, post, wctx) for part in cmd.cmds))
    if isinstance(cmd, Assign):
        return _wlp_assign(cmd, post, wctx)
    if isinstance(cmd, AssignNew):
        return _wlp_assign_new(cmd, post, wctx)
    if isinstance(cmd, Call):
        return _wlp_call(cmd, post, wctx)
    raise VerificationError(f"wlp undefined for {cmd!r}")


def _guard(exprs, core: Formula, wctx: WlpContext) -> Formula:
    """Wrap ``core`` in the well-definedness assumption of ``exprs``."""
    premise = welldef_premises(exprs, store_var(), wctx.ctx)
    if isinstance(premise, TrueF):
        return core
    return Implies(premise, core)


def _target_var_name(target) -> str:
    assert isinstance(target, Id)
    return target.name


def _wlp_assign(cmd: Assign, post: Formula, wctx: WlpContext) -> Formula:
    store = store_var()
    rhs = tr_term(cmd.rhs, store, wctx.ctx)
    if isinstance(cmd.target, Id):
        core = subst_formula(post, {_target_var_name(cmd.target): rhs})
        return _guard((cmd.rhs,), core, wctx)
    assert isinstance(cmd.target, FieldAccess)
    obj = tr_term(cmd.target.obj, store, wctx.ctx)
    attr = attr_const(cmd.target.attr)
    (info,) = wctx.register(cmd)
    licence = _tag(
        info,
        mod_formula(obj, attr, wctx.self_modifies, wctx.self_env, wctx.entry_store),
    )
    updated = subst_formula(post, {"$": upd(store, obj, attr, rhs)})
    # Guard on the whole target: writing t.f dereferences t.
    return _guard((cmd.target, cmd.rhs), conj((licence, updated)), wctx)


def _wlp_assign_new(cmd: AssignNew, post: Formula, wctx: WlpContext) -> Formula:
    store = store_var()
    if isinstance(cmd.target, Id):
        mapping = {
            _target_var_name(cmd.target): new(store),
            "$": succ(store),
        }
        return subst_formula(post, mapping)
    assert isinstance(cmd.target, FieldAccess)
    obj = tr_term(cmd.target.obj, store, wctx.ctx)
    attr = attr_const(cmd.target.attr)
    (info,) = wctx.register(cmd)
    licence = _tag(
        info,
        mod_formula(obj, attr, wctx.self_modifies, wctx.self_env, wctx.entry_store),
    )
    updated = subst_formula(
        post, {"$": upd(succ(store), obj, attr, new(store))}
    )
    return _guard((cmd.target,), conj((licence, updated)), wctx)


def _wlp_call(cmd: Call, post: Formula, wctx: WlpContext) -> Formula:
    """Figure 3: caller licence, owner exclusion, and the frame quantifier."""
    store = store_var()
    callee = wctx.scope.proc(cmd.proc)
    if callee is None:
        raise VerificationError(f"call to undeclared procedure {cmd.proc!r}")
    actuals = [tr_term(arg, store, wctx.ctx) for arg in cmd.args]
    callee_env: Dict[str, Term] = dict(zip(callee.params, actuals))

    # 1. Everything the callee may touch, the caller must be allowed to
    #    touch: mod(tr(E)·f, w, $0) for each E.f in ws.
    formulas: List[Formula] = [
        mod_formula(
            tr_designator_prefix(designator, callee_env, store),
            attr_const(designator.attr),
            wctx.self_modifies,
            wctx.self_env,
            wctx.entry_store,
        )
        for designator in callee.modifies
    ]
    # 2. Owner exclusion for every actual parameter, in the current store.
    if wctx.owner_exclusion:
        for actual in actuals:
            own = own_excl_formula(
                actual, callee.modifies, callee_env, store, wctx.ctx.fresh
            )
            if not isinstance(own, TrueF):
                formulas.append(own)
    infos = wctx.register(cmd, callee)
    assert len(infos) == len(formulas)
    conjuncts = [_tag(info, formula) for info, formula in zip(infos, formulas)]

    # 3. The frame: allocation grows monotonically and every surviving
    #    location is unchanged or covered by the callee's modifies list.
    fresh = wctx.ctx.fresh
    post_store = Var(fresh.fresh("$post"))
    obj_var = Var(fresh.fresh("frX"))
    attr_var = Var(fresh.fresh("frF"))
    alive_frame = Forall(
        (obj_var.name,),
        Implies(alive(store, obj_var), alive(post_store, obj_var)),
        (
            (alive_t(store, obj_var),),
            (alive_t(post_store, obj_var),),
        ),
        "call-frame-alive",
        1,
    )
    sel_frame = Forall(
        (obj_var.name, attr_var.name),
        disj(
            (
                Eq(
                    sel(store, obj_var, attr_var),
                    sel(post_store, obj_var, attr_var),
                ),
                mod_formula(
                    obj_var, attr_var, callee.modifies, callee_env, store
                ),
            )
        ),
        (
            (App(SEL, (post_store, obj_var, attr_var)),),
            (App(SEL, (store, obj_var, attr_var)),),
        ),
        "call-frame-sel",
        3,
    )
    shifted_post = subst_formula(post, {"$": post_store})
    conjuncts.append(
        Forall(
            (post_store.name,),
            Implies(conj((alive_frame, sel_frame)), shifted_post),
        )
    )
    return _guard(cmd.args, conj(conjuncts), wctx)
