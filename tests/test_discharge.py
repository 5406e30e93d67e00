"""End-to-end tests for static discharge in the checking pipeline.

Covers the static-discharge PR's driver wiring:

* verdict identity: ``static_discharge="on"`` produces byte-identical
  verdicts to ``"off"`` on the whole example corpus, serial and
  parallel;
* the farm corpus discharges at least half of its obligations;
* a discharged implementation genuinely skips the prover (proved with
  the fault-injection harness: a planted prover fault never fires);
* statically refuted implementations come back ``NOT_PROVED`` with an
  ``OL401`` blame diagnostic, without a prover run;
* ``check_discharge=True`` re-proves everything and reports zero
  disagreements on the corpus (``OL402`` stays silent), and on callers
  of procedures whose bodies are missing, recursive or write through a
  fresh carrier;
* discharge is modular: a caller's decisions read the callee's modifies
  list, never its body;
* only ``"off"`` and ``"on"`` are accepted modes;
* discharged verdicts are never written to the result cache;
* the discharge pass version participates in the cache key.
"""

import glob
import os

import pytest

from repro.analysis.effects import DISCHARGE_VERSION, Outcome, discharge_scope
from repro.api import check_program
from repro.corpus.generators import generate_call_chain, generate_impl_farm
from repro.oolong.program import Scope
from repro.parallel.cache import code_version
from repro.prover.core import Limits
from repro.testing.faults import Fault, FaultError, FaultPlan, inject
from repro.vcgen.checker import ImplStatus, check_scope

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

LIMITS = Limits(time_budget=60.0)


def example_sources():
    paths = sorted(
        glob.glob(os.path.join(EXAMPLES_DIR, "*.oolong"))
    ) + sorted(glob.glob(os.path.join(EXAMPLES_DIR, "failing", "*.oolong")))
    assert paths, "example corpus is empty"
    return [(os.path.basename(p), open(p).read()) for p in paths]


def verdict_fingerprint(report):
    return [
        (v.impl.name, v.index, v.status.value) for v in report.verdicts
    ]


# ----------------------------------------------------------------------
# Verdict identity: discharge must never change an answer
# ----------------------------------------------------------------------


class TestVerdictIdentity:
    @pytest.mark.parametrize("name,source", example_sources())
    def test_serial_on_equals_off(self, name, source):
        off = check_program(source, LIMITS)
        on = check_program(source, LIMITS, static_discharge="on")
        assert verdict_fingerprint(on) == verdict_fingerprint(off)

    def test_parallel_on_equals_off(self):
        source = generate_impl_farm(4, fields=3)
        off = check_program(source, LIMITS, parallel=2)
        on = check_program(
            source, LIMITS, parallel=2, static_discharge="on"
        )
        assert verdict_fingerprint(on) == verdict_fingerprint(off)

    def test_mode_is_validated(self):
        scope = Scope.from_source("field f")
        with pytest.raises(ValueError):
            check_scope(scope, LIMITS, static_discharge="sometimes")

    def test_strict_is_rejected(self):
        scope = Scope.from_source("field f")
        with pytest.raises(ValueError, match="'off' or 'on'"):
            check_scope(scope, LIMITS, static_discharge="strict")

    def test_discharge_scope_accepts_only_on(self):
        scope = Scope.from_source("field f")
        assert discharge_scope(scope, mode="on").mode == "on"
        with pytest.raises(ValueError):
            discharge_scope(scope, mode="strict")


# ----------------------------------------------------------------------
# Discharge rate and prover skipping
# ----------------------------------------------------------------------


class TestDischargeRate:
    def test_farm_discharges_at_least_half(self):
        source = generate_impl_farm(8, fields=4)
        report = check_program(source, LIMITS, static_discharge="on")
        summary = report.discharge_summary
        assert summary is not None
        assert summary["obligations_total"] > 0
        assert summary["discharge_rate"] >= 0.5
        assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)

    def test_discharged_impl_never_reaches_prover(self):
        """With every farm impl statically valid, a planted prover fault
        must never fire — the strongest possible "skipped the prover"."""
        source = generate_impl_farm(3, fields=3)
        with inject(FaultPlan((Fault("prove", "raise", hit=0),))) as injector:
            report = check_program(source, LIMITS, static_discharge="on")
        assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)
        assert injector.counts.get("prove", 0) == 0
        assert not injector.fired

    def test_off_mode_reaches_prover(self):
        source = generate_impl_farm(3, fields=3)
        with inject(FaultPlan((Fault("prove", "raise", hit=0),))):
            report = check_program(source, LIMITS)
        assert any(
            v.status is ImplStatus.INTERNAL_ERROR for v in report.verdicts
        )
        assert report.discharge_summary is None


# ----------------------------------------------------------------------
# Static refutation: OL401, no prover run
# ----------------------------------------------------------------------


BAD_WRITE = open(
    os.path.join(EXAMPLES_DIR, "failing", "bad_write.oolong")
).read()


class TestStaticViolation:
    def test_refuted_impl_is_not_proved_with_blame(self):
        with inject(FaultPlan((Fault("prove", "raise", hit=0),))) as injector:
            report = check_program(BAD_WRITE, LIMITS, static_discharge="on")
        verdict = report.verdicts[0]
        assert verdict.status is ImplStatus.NOT_PROVED
        assert verdict.failed_obligation is not None
        assert injector.counts.get("prove", 0) == 0
        errors = [d for d in report.diagnostics if d.code == "OL401"]
        assert len(errors) == 1
        assert errors[0].impl == verdict.impl.name
        assert errors[0].position is not None
        assert errors[0].notes  # inclusion-chain blame rides along

    def test_refutation_matches_prover(self):
        baseline = check_program(BAD_WRITE, LIMITS)
        static = check_program(BAD_WRITE, LIMITS, static_discharge="on")
        assert verdict_fingerprint(static) == verdict_fingerprint(baseline)


# ----------------------------------------------------------------------
# The differential guard
# ----------------------------------------------------------------------


class TestCheckDischarge:
    @pytest.mark.parametrize("name,source", example_sources())
    def test_no_disagreements_on_corpus(self, name, source):
        report = check_program(source, LIMITS, check_discharge=True)
        assert not [d for d in report.diagnostics if d.code == "OL402"]
        summary = report.discharge_summary
        assert summary is not None and summary["checked"]
        assert summary.get("disagreements", 0) == 0

    def test_check_discharge_implies_on(self):
        source = generate_impl_farm(2, fields=2)
        report = check_program(source, LIMITS, check_discharge=True)
        assert report.discharge_summary is not None
        assert report.discharge_summary["mode"] == "on"

    def test_agreements_are_counted(self):
        source = generate_impl_farm(3, fields=3)
        report = check_program(source, LIMITS, check_discharge=True)
        assert report.discharge_summary.get("agreements", 0) >= 3

    def test_check_discharge_still_proves(self):
        """The guard re-proves everything: a prover fault now fires even
        though the impls are statically discharged."""
        source = generate_impl_farm(2, fields=2)
        with inject(FaultPlan((Fault("prove", "raise", hit=0),))) as injector:
            check_program(source, LIMITS, check_discharge=True)
        assert injector.counts.get("prove", 0) > 0


# ----------------------------------------------------------------------
# Callers of missing, recursive and fresh-carrier callees
# ----------------------------------------------------------------------


OPAQUE_CALLEE = """
group g
field f in g
proc helper(o) modifies o.g
proc driver(o) modifies o.g
impl driver(o) {
  assume o != null ;
  helper(o)
}
"""

RECURSIVE = """
group g
field f in g
proc self_rec(o) modifies o.g
impl self_rec(o) {
  assume o != null ;
  o.f := 1 ;
  self_rec(o)
}
"""

MUTUAL = """
group g
field f in g
proc ping(o) modifies o.g
proc pong(o) modifies o.g
impl ping(o) {
  assume o != null ;
  o.f := 1 ;
  pong(o)
}
impl pong(o) {
  assume o != null ;
  ping(o)
}
"""

#: n is fresh, but n.a holds t: q's write to s.a.b lands on t.b, which
#: p's frame (t.a) does not license, so the prover refuses p.
FRESH_CARRIER = """
group g
field a
field b
proc q(s) modifies s.a.b
impl q(s) { assume s != null ; assume s.a != null ; s.a.b := 1 }
proc p(t) modifies t.a
impl p(t) {
  assume t != null ;
  var n in n := new() ; n.a := t ; q(n) end
}
"""


def without_impl(source, proc):
    """``source`` with the implementation of ``proc`` removed."""
    return "".join(
        line
        for line in source.splitlines(keepends=True)
        if not line.startswith(f"impl {proc}(")
    )


#: A 12-link chain whose last procedure has no implementation.
OPAQUE_CHAIN_12 = without_impl(generate_call_chain(12), "p12")


class TestCallers:
    @pytest.mark.parametrize(
        "source",
        [OPAQUE_CALLEE, FRESH_CARRIER, RECURSIVE, MUTUAL, OPAQUE_CHAIN_12],
        ids=["opaque-callee", "fresh-carrier", "recursive", "mutual",
             "opaque-chain-12"],
    )
    def test_discharge_agrees_with_the_prover(self, source):
        report = check_program(source, LIMITS, check_discharge=True)
        assert not [d for d in report.diagnostics if d.code == "OL402"]
        assert report.discharge_summary.get("disagreements", 0) == 0
        if source is FRESH_CARRIER:
            result = discharge_scope(Scope.from_source(source))
            assert result.outcome_of("p", 0) is not Outcome.STATIC_VALID
            (verdict,) = [v for v in report.verdicts if v.impl.name == "p"]
            assert verdict.status is ImplStatus.NOT_PROVED

    def test_opaque_chain_discharges_every_caller(self):
        report = check_program(OPAQUE_CHAIN_12, LIMITS, static_discharge="on")
        assert report.discharge_summary["impls"]["static-valid"] == 12
        assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)


# ----------------------------------------------------------------------
# Modularity: a caller's decisions never read a callee's body
# ----------------------------------------------------------------------


def _decisions(scope, proc):
    entry = discharge_scope(scope).impls[(proc, 0)]
    return entry.outcome, [d.to_dict() for d in entry.decisions]


class TestModularity:
    CALLEE_BODY = "impl p3(t) { assume t != null ; t.payload := 3 }\n"
    #: ``other`` is not in ``data``, the one group ``p3`` may modify.
    ESCAPING_BODY = "impl p3(t) { assume t != null ; t.other := 3 }\n"

    def chain(self, callee_body):
        source = "field other\n" + generate_call_chain(3)
        assert self.CALLEE_BODY in source
        return Scope.from_source(source.replace(self.CALLEE_BODY, callee_body))

    def test_callee_body_does_not_change_caller_decisions(self):
        plain = self.chain(self.CALLEE_BODY)
        escaping = self.chain(self.ESCAPING_BODY)
        missing = self.chain("\n")  # a blank line keeps the positions
        assert discharge_scope(plain).outcome_of("p3", 0) is Outcome.STATIC_VALID
        assert (
            discharge_scope(escaping).outcome_of("p3", 0)
            is Outcome.STATIC_VIOLATION
        )
        for caller in ("p0", "p1", "p2"):
            expected = _decisions(plain, caller)
            assert expected[0] is Outcome.STATIC_VALID
            assert _decisions(escaping, caller) == expected
            assert _decisions(missing, caller) == expected


# ----------------------------------------------------------------------
# Cache interaction
# ----------------------------------------------------------------------


class TestCacheInteraction:
    def test_discharged_verdicts_not_cached(self, tmp_path):
        source = generate_impl_farm(3, fields=3)
        cache_dir = str(tmp_path / "cache")
        report = check_program(
            source, LIMITS, cache_dir=cache_dir, static_discharge="on"
        )
        assert all(v.status is ImplStatus.VERIFIED for v in report.verdicts)
        assert report.cache_summary["stores"] == 0
        assert not glob.glob(os.path.join(cache_dir, "*.json"))

    def test_prover_verdicts_still_cached_when_off(self, tmp_path):
        source = generate_impl_farm(2, fields=2)
        cache_dir = str(tmp_path / "cache")
        report = check_program(source, LIMITS, cache_dir=cache_dir)
        assert report.cache_summary["stores"] == 2

    def test_cache_key_includes_discharge_version(self):
        assert f"discharge{DISCHARGE_VERSION}" in code_version()
