"""Static analysis over oolong programs: CFGs, dataflow, lints, inference.

The subsystem layers:

* :mod:`repro.analysis.diagnostics` — the shared diagnostics engine
  (stable ``OLxxx`` codes, severities, spans, text/JSON renderers);
* :mod:`repro.analysis.cfg` — basic-block CFGs over oolong commands;
* :mod:`repro.analysis.dataflow` — a generic forward fixpoint engine;
* :mod:`repro.analysis.escape` — flow-sensitive pivot escape analysis;
* :mod:`repro.analysis.modifies` — modifies-list inference;
* :mod:`repro.analysis.facts` — the per-scope cache of the facts lint
  and static discharge share (inclusion lattice, call graph, CFGs,
  access-path fixpoints);
* :mod:`repro.analysis.callgraph` — call graph + recursion detection;
* :mod:`repro.analysis.lints` — unused declarations, unreachable code;
* :mod:`repro.analysis.engine` — the ``lint_scope`` driver.

Heavier submodules are imported lazily so that modules lower in the
dependency graph (e.g. the restriction checker) can import
``repro.analysis.diagnostics`` without cycles.
"""

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    Note,
    Severity,
    code_for_rule,
    render_json,
    render_text,
    rule_for_code,
    sorted_diagnostics,
)

__all__ = [
    "CODES",
    "CallGraph",
    "Diagnostic",
    "LintResult",
    "Note",
    "Severity",
    "build_cfg",
    "code_for_rule",
    "check_pivot_escapes",
    "infer_modifies",
    "lint_program",
    "lint_scope",
    "render_json",
    "render_text",
    "rule_for_code",
    "run_forward",
    "sorted_diagnostics",
]

_LAZY = {
    "CallGraph": ("repro.analysis.callgraph", "CallGraph"),
    "LintResult": ("repro.analysis.engine", "LintResult"),
    "build_cfg": ("repro.analysis.cfg", "build_cfg"),
    "check_pivot_escapes": ("repro.analysis.escape", "check_pivot_escapes"),
    "infer_modifies": ("repro.analysis.modifies", "infer_modifies"),
    "lint_program": ("repro.analysis.engine", "lint_program"),
    "lint_scope": ("repro.analysis.engine", "lint_scope"),
    "run_forward": ("repro.analysis.dataflow", "run_forward"),
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
