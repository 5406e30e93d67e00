"""Interface/implementation modules and per-module checking scopes.

The paper (Section 2): "In oolong, a module is just a set of declarations.
... the declarations available in the public interface of a module form a
subset of the declarations available in the private implementation of the
module"; and (Section 4) "the scope of an implementation module M would
typically be the set of declarations in M and in the interface modules
that M transitively imports."

:class:`ModuleSystem` realizes that structure: each module has a public
*interface* (declarations visible to importers — no implementations
allowed), a private *implementation* (extra declarations plus the
``impl``s), and a list of imported modules. Checking a module verifies its
implementations against exactly its implementation scope — the modular
checking discipline of the paper. ``check_all`` is therefore piecewise
checking of the whole program; by scope monotonicity its verdicts remain
valid for the linked program.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WellFormednessError
from repro.oolong.ast import Decl, ImplDecl
from repro.oolong.parser import parse_program_text
from repro.oolong.program import Scope
from repro.prover.core import Limits
from repro.record import Record, field
from repro.vcgen.checker import CheckReport, check_scope


class Module(Record, frozen=True):
    """One module: a public interface, a private implementation, imports."""

    name: str
    interface: Tuple[Decl, ...] = ()
    implementation: Tuple[Decl, ...] = ()
    imports: Tuple[str, ...] = ()

    def __post_init__(self):
        for decl in self.interface:
            if isinstance(decl, ImplDecl):
                raise WellFormednessError(
                    f"module {self.name!r}: interfaces may not contain "
                    f"implementations (impl {decl.name!r})"
                )


class ModuleSystem:
    """A set of named modules with import-based scope construction."""

    def __init__(self):
        self._modules: Dict[str, Module] = {}

    def add(self, module: Module) -> Module:
        if module.name in self._modules:
            raise WellFormednessError(f"duplicate module {module.name!r}")
        self._modules[module.name] = module
        return module

    def define(
        self,
        name: str,
        *,
        interface: str = "",
        implementation: str = "",
        imports: Sequence[str] = (),
    ) -> Module:
        """Convenience constructor from oolong source texts."""
        return self.add(
            Module(
                name=name,
                interface=parse_program_text(interface),
                implementation=parse_program_text(implementation),
                imports=tuple(imports),
            )
        )

    def module(self, name: str) -> Module:
        module = self._modules.get(name)
        if module is None:
            raise WellFormednessError(f"unknown module {name!r}")
        return module

    def modules(self) -> Tuple[str, ...]:
        return tuple(self._modules)

    # -- scope construction ----------------------------------------------

    def _transitive_imports(self, name: str) -> List[str]:
        """Imported module names, depth-first, each once, cycles rejected."""
        order: List[str] = []
        visiting: List[str] = []

        def visit(current: str) -> None:
            if current in order:
                return
            if current in visiting:
                cycle = " -> ".join(visiting + [current])
                raise WellFormednessError(f"import cycle: {cycle}")
            visiting.append(current)
            for imported in self.module(current).imports:
                visit(imported)
            visiting.pop()
            order.append(current)

        visit(name)
        order.pop()  # drop `name` itself
        return order

    def interface_scope(self, name: str) -> Scope:
        """The client view: this module's interface plus everything it
        transitively imports."""
        decls: List[Decl] = []
        for imported in self._transitive_imports(name):
            decls.extend(self.module(imported).interface)
        decls.extend(self.module(name).interface)
        return Scope(decls)

    def implementation_scope(self, name: str) -> Scope:
        """The checking view: the interface scope plus the module's private
        declarations and implementations."""
        scope = self.interface_scope(name)
        return scope.extend(self.module(name).implementation)

    def whole_program_scope(self) -> Scope:
        """All declarations of all modules (the linked program; used by the
        interpreter and by monotonicity comparisons)."""
        decls: List[Decl] = []
        seen: List[str] = []
        for name in self._modules:
            for imported in self._transitive_imports(name) + [name]:
                if imported not in seen:
                    seen.append(imported)
                    module = self.module(imported)
                    decls.extend(module.interface)
                    decls.extend(module.implementation)
        return Scope(decls)

    # -- checking ------------------------------------------------------------

    def check_module(
        self, name: str, limits: Optional[Limits] = None
    ) -> CheckReport:
        """Modularly check one module's implementations in its own scope."""
        return check_scope(self.implementation_scope(name), limits)

    def check_all(
        self, limits: Optional[Limits] = None
    ) -> Dict[str, CheckReport]:
        """Piecewise-check every module; the paper's modular discipline."""
        return {name: self.check_module(name, limits) for name in self._modules}
