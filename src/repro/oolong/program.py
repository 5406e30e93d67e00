"""The :class:`Scope` program representation.

A *scope* is a set of declarations — the paper's unit of modular checking.
A scope used for verification must satisfy the rule of **self-contained
names**: every attribute and procedure referred to in the scope is also
declared in the scope (enforced by :func:`repro.oolong.wellformed.check_well_formed`).

Scopes are immutable; :meth:`Scope.extend` builds the extended scope used by
the modular-soundness experiments.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import WellFormednessError
from repro.oolong.ast import Decl, FieldDecl, GroupDecl, ImplDecl, ProcDecl


class Scope:
    """An immutable set of oolong declarations with lookup tables.

    Construction rejects duplicate declared names (attributes and procedures
    share one namespace, per the paper: "We assume all names of declared
    entities to be unique"). A procedure may have any number of
    implementations; implementations do not introduce names.
    """

    def __init__(self, decls: Iterable[Decl]):
        self._decls: Tuple[Decl, ...] = tuple(decls)
        self._groups: Dict[str, GroupDecl] = {}
        self._fields: Dict[str, FieldDecl] = {}
        self._procs: Dict[str, ProcDecl] = {}
        self._impls: Dict[str, List[ImplDecl]] = {}
        self._enclosing_cache: Dict[str, FrozenSet[str]] = {}
        #: vcgen's background predicate UBP ∧ BP_D for this scope, with the
        #: prover state it prepares, made on the scope's first VC
        #: (:func:`repro.vcgen.vc.scope_background_of`). Process-local:
        #: never pickled with the scope.
        self.vc_background = None
        #: The static facts lint and discharge share — inclusion lattice,
        #: call graph, per-implementation CFGs and access-path states —
        #: made on first use (:mod:`repro.analysis.facts`).
        #: Process-local: never pickled with the scope.
        self.analysis_facts = None
        #: The SHA-256 state after hashing the scope interface, which every
        #: result-cache key starts from, made on the first key
        #: (:func:`repro.parallel.cache.cache_key`). Process-local: never
        #: pickled with the scope (hash states do not pickle).
        self.interface_digest = None
        for decl in self._decls:
            self._register(decl)
        self._attribute_names: Tuple[str, ...] = tuple(
            decl.name
            for decl in self._decls
            if isinstance(decl, (GroupDecl, FieldDecl))
        )

    def __getstate__(self):
        state = dict(self.__dict__)
        state["vc_background"] = None
        state["analysis_facts"] = None
        state["interface_digest"] = None
        return state

    def _register(self, decl: Decl) -> None:
        if isinstance(decl, GroupDecl):
            self._claim_name(decl.name, decl)
            self._groups[decl.name] = decl
        elif isinstance(decl, FieldDecl):
            self._claim_name(decl.name, decl)
            self._fields[decl.name] = decl
        elif isinstance(decl, ProcDecl):
            self._claim_name(decl.name, decl)
            self._procs[decl.name] = decl
        elif isinstance(decl, ImplDecl):
            self._impls.setdefault(decl.name, []).append(decl)
        else:
            raise TypeError(f"not an oolong declaration: {decl!r}")

    def _claim_name(self, name: str, decl: Decl) -> None:
        if name in self._groups or name in self._fields or name in self._procs:
            raise WellFormednessError(
                f"duplicate declaration of {name!r}",
                getattr(decl, "position", None),
            )

    # -- basic lookup --------------------------------------------------------

    @property
    def decls(self) -> Tuple[Decl, ...]:
        return self._decls

    @property
    def groups(self) -> Dict[str, GroupDecl]:
        return dict(self._groups)

    @property
    def fields(self) -> Dict[str, FieldDecl]:
        return dict(self._fields)

    @property
    def procs(self) -> Dict[str, ProcDecl]:
        return dict(self._procs)

    @property
    def impls(self) -> Dict[str, Tuple[ImplDecl, ...]]:
        return {name: tuple(impls) for name, impls in self._impls.items()}

    def group(self, name: str) -> Optional[GroupDecl]:
        return self._groups.get(name)

    def field(self, name: str) -> Optional[FieldDecl]:
        return self._fields.get(name)

    def proc(self, name: str) -> Optional[ProcDecl]:
        return self._procs.get(name)

    def impls_of(self, proc_name: str) -> Tuple[ImplDecl, ...]:
        return tuple(self._impls.get(proc_name, ()))

    def attribute(self, name: str) -> Optional[Union[GroupDecl, FieldDecl]]:
        """The group or field declaration named ``name``, if any."""
        return self._groups.get(name) or self._fields.get(name)

    def attribute_names(self) -> Tuple[str, ...]:
        """All declared attribute names, in declaration order."""
        return self._attribute_names

    def is_group(self, name: str) -> bool:
        return name in self._groups

    def is_field(self, name: str) -> bool:
        return name in self._fields

    def is_attribute(self, name: str) -> bool:
        return self.attribute(name) is not None

    def is_pivot(self, name: str) -> bool:
        """True iff ``name`` is a field declared with a maps-into clause."""
        decl = self._fields.get(name)
        return decl is not None and decl.is_pivot

    def pivot_fields(self) -> Tuple[FieldDecl, ...]:
        return tuple(f for f in self._fields.values() if f.is_pivot)

    # -- derived inclusion structure -------------------------------------

    def enclosing_groups(self, attr: str) -> FrozenSet[str]:
        """All groups that include ``attr`` directly or transitively.

        This is the set ``g1, ..., gn`` of the paper's per-attribute scope
        axiom; it does not contain ``attr`` itself (the axiom adds the
        reflexive case separately). The rule of self-contained names
        guarantees the set is fully determined by the scope and identical in
        every extension.
        """
        cached = self._enclosing_cache.get(attr)
        if cached is not None:
            return cached
        decl = self.attribute(attr)
        if decl is None:
            raise WellFormednessError(f"unknown attribute {attr!r}")
        result: set = set()
        worklist = list(decl.in_groups)
        while worklist:
            group_name = worklist.pop()
            if group_name in result:
                continue
            result.add(group_name)
            group_decl = self._groups.get(group_name)
            if group_decl is not None:
                worklist.extend(group_decl.in_groups)
        frozen = frozenset(result)
        self._enclosing_cache[attr] = frozen
        return frozen

    def local_includes(self, group: str, attr: str) -> bool:
        """The paper's ``group ≽ attr``: reflexive-transitive local inclusion."""
        return group == attr or group in self.enclosing_groups(attr)

    def rep_pairs(self, field_name: str) -> Tuple[Tuple[str, str], ...]:
        """All pairs ``(g, b)`` such that the scope declares
        ``field field_name ... maps b into g`` — i.e. ``g —field_name→ b``.
        """
        decl = self._fields.get(field_name)
        if decl is None:
            return ()
        pairs: List[Tuple[str, str]] = []
        for clause in decl.maps:
            for into_group in clause.into:
                pairs.append((into_group, clause.mapped))
        return tuple(pairs)

    def all_rep_triples(self) -> Tuple[Tuple[str, str, str], ...]:
        """All declared rep inclusions as ``(field, group, mapped)`` triples."""
        triples: List[Tuple[str, str, str]] = []
        for field_decl in self._fields.values():
            for group, mapped in self.rep_pairs(field_decl.name):
                triples.append((field_decl.name, group, mapped))
        return tuple(triples)

    # -- composition ---------------------------------------------------------

    def extend(self, more: Union["Scope", Sequence[Decl]]) -> "Scope":
        """A new scope containing this scope's declarations plus ``more``.

        Used by the modular-soundness experiments: an *extension* E of a
        scope D is exactly ``D.extend(extra_decls)``.
        """
        extra = more.decls if isinstance(more, Scope) else tuple(more)
        return Scope(self._decls + tuple(extra))

    def restrict_to(self, decl_filter) -> "Scope":
        """A new scope keeping only declarations for which the filter holds."""
        return Scope(d for d in self._decls if decl_filter(d))

    def __len__(self) -> int:
        return len(self._decls)

    def __contains__(self, decl: Decl) -> bool:
        return decl in self._decls

    def __repr__(self) -> str:
        return (
            f"Scope(groups={sorted(self._groups)}, fields={sorted(self._fields)}, "
            f"procs={sorted(self._procs)}, impls={len(sum(self._impls.values(), []))})"
        )

    @classmethod
    def from_source(cls, source: str, filename: Optional[str] = None) -> "Scope":
        """Parse ``source`` and build a scope (without well-formedness checks)."""
        from repro.oolong.parser import parse_program_text

        return cls(parse_program_text(source, filename))

    @classmethod
    def from_sources(cls, sources: Sequence[Tuple[Optional[str], str]]) -> "Scope":
        """Build one scope from several ``(filename, text)`` source parts.

        Each part is parsed independently so every source position carries
        the file it came from — the multi-file analogue of
        :meth:`from_source` (which concatenation would misattribute).
        """
        from repro.oolong.parser import parse_program_text

        decls: List[Decl] = []
        for filename, text in sources:
            decls.extend(parse_program_text(text, filename))
        return cls(decls)

    @classmethod
    def from_sources_recovering(
        cls, sources: Sequence[Tuple[Optional[str], str]]
    ) -> Tuple["Scope", list]:
        """Like :meth:`from_sources`, but with parser error recovery.

        Returns ``(scope, diagnostics)``: the scope built from every
        declaration that parsed, plus one ``OL001``/``OL002`` diagnostic
        per lexical/syntax error across all files. If the surviving
        declarations collide (duplicate names — likely when recovery
        guessed wrong), the collision is reported as an ``OL100``
        diagnostic and an empty scope is returned rather than raising.
        """
        from repro.analysis.diagnostics import diagnostic_from_error
        from repro.oolong.parser import parse_program_recovering

        decls = []
        diagnostics = []
        for filename, text in sources:
            outcome = parse_program_recovering(text, filename)
            decls.extend(outcome.decls)
            diagnostics.extend(outcome.diagnostics())
        try:
            scope = cls(decls)
        except WellFormednessError as error:
            diagnostics.append(diagnostic_from_error(error))
            scope = cls(())
        return scope, diagnostics
