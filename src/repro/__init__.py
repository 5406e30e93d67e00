"""Reproduction of *Using Data Groups to Specify and Check Side Effects*.

K. Rustan M. Leino, Arnd Poetzsch-Heffter, Yunhong Zhou. PLDI 2002.

This package implements, from scratch:

* the **oolong** language (lexer, parser, AST, pretty printer, scopes,
  well-formedness) — :mod:`repro.oolong`;
* the **pivot uniqueness** syntactic restriction checker —
  :mod:`repro.restrictions`;
* a **static-analysis subsystem** (CFGs, a forward-dataflow engine,
  flow-sensitive pivot escape analysis, modifies-list inference, lints,
  and the shared ``OLxxx`` diagnostics engine) — :mod:`repro.analysis`;
* a first-order **logic** layer (terms, formulas, NNF, skolemization) —
  :mod:`repro.logic`;
* a Simplify-style **theorem prover** (congruence closure, E-matching,
  DPLL-style case splitting) — :mod:`repro.prover`;
* **verification-condition generation** per the paper's Section 4 (wlp,
  background predicates, Init, owner exclusion) — :mod:`repro.vcgen`;
* an **operational semantics** with runtime monitors used to validate
  soundness empirically — :mod:`repro.semantics`;
* the **modular soundness** (scope monotonicity) experiment harness —
  :mod:`repro.modular`;
* a zero-dependency **telemetry layer** (one event journal recording the
  run's lifecycle and its spans over the pipeline's stage boundaries,
  with Chrome-trace/metrics-JSON/text-profile exporters computed from
  it) — :mod:`repro.obs`;
* **baseline** checkers for comparison — :mod:`repro.baselines`;
* the paper's example programs and synthetic generators —
  :mod:`repro.corpus`.

Quickstart::

    from repro import check_program
    report = check_program('''
        group value
        field num in value
        field den in value
        proc normalize(r) modifies r.value
        impl normalize(r) { assume r != null ; r.num := 1 ; r.den := 1 }
    ''')
    assert report.ok
"""

__version__ = "1.0.0"

__all__ = [
    "CheckReport",
    "Diagnostic",
    "ImplVerdict",
    "LintResult",
    "Severity",
    "check_program",
    "check_scope",
    "lint_program",
    "lint_scope",
    "parse_program",
    "__version__",
]

_API_NAMES = (
    "CheckReport",
    "Diagnostic",
    "ImplVerdict",
    "LintResult",
    "Severity",
    "check_program",
    "check_scope",
    "lint_program",
    "lint_scope",
    "parse_program",
)


def __getattr__(name):
    """Lazily expose the high-level API without importing the prover eagerly."""
    if name in _API_NAMES:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
