"""A Simplify-style automatic theorem prover, built from scratch.

The prover decides (refutes) the quantified ground-heavy verification
conditions generated by :mod:`repro.vcgen`, replacing the closed-source
Simplify prover the paper used. Architecture, mirroring Simplify's:

* :mod:`repro.prover.egraph` — an E-graph: hash-consed ground terms, a
  union-find with an undo trail, congruence closure, disequality tracking,
  boolean atoms (merged with distinguished TRUE/FALSE nodes), and constant
  folding of integer operations.
* :mod:`repro.prover.matching` — E-matching of quantifier trigger patterns
  against the E-graph, modulo the current equalities. Each multi-pattern
  is compiled into a generated Python function (nested loops over
  candidates and class members, pattern variables in local slots), and
  so is each quantifier body's candidate width (:mod:`repro.prover.core`);
  the code is shared by shape, with ground constants as parameters, in a
  process-wide cache of fixed size.
* :mod:`repro.prover.triggers` — automatic trigger inference for
  quantifiers that do not carry hand-written patterns.
* :mod:`repro.prover.core` — the refutation engine: a tableau/DPLL-style
  case split over the NNF structure interleaved with rounds of quantifier
  instantiation, under explicit resource bounds (the analogue of Simplify's
  matching-depth limits; the paper's report of divergence on cyclic rep
  inclusions corresponds to our ``RESOURCE_OUT`` verdict).
"""

from repro.prover.core import Limits, ProverResult, ProverStats, Solver, Verdict, prove_valid
from repro.prover.egraph import EGraph

__all__ = [
    "EGraph",
    "Limits",
    "ProverResult",
    "ProverStats",
    "Solver",
    "Verdict",
    "prove_valid",
]
