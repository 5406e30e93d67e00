"""What a ``-j`` worker sends back for a job.

* **Tracing follows the parent.** A worker traces a job, and ships its
  spans and metrics, only when the parent check has a tracer. Untraced,
  every filed result has empty ``spans`` and ``metrics``; traced, the
  check grafts the span skeleton and merges the metric names it did
  when every job was traced.
* **Verdicts ship without their AST.** The parent re-anchors each
  verdict on its own ``ImplDecl``.
* **A result that does not pickle costs only its job.** An unpicklable
  object in one verdict makes that job ``INTERNAL_ERROR``/``OL900``;
  the rest verify.
"""

import pytest

from repro import obs
from repro.api import check_program
from repro.corpus.generators import generate_impl_farm
from repro.parallel.policy import JobPolicy
from repro.prover.core import Limits
from repro.vcgen import checker
from repro.vcgen.checker import ImplStatus

LIMITS = Limits(time_budget=60.0)

BACKENDS = {"parallel": {"parallel": 2}}

#: A two-impl farm whose bodies end in an assert: the frame conditions
#: are decided by the inclusion lookup, the assert by quantifier
#: instances, so both kinds of prover metric are merged.
SOURCE = generate_impl_farm(2, 3).replace(
    "t.f2 := 2\n}", "t.f2 := 2 ;\n  assert t.f0 = 0\n}"
).replace("t.f2 := 3\n}", "t.f2 := 3 ;\n  assert t.f0 = 1\n}")

#: The span paths a traced check of :data:`SOURCE` records, as recorded
#: when every worker job was traced.
SKELETON = sorted(
    [
        "pipeline:check_scope",
        "pipeline:check_scope/pipeline:supervisor",
        "pipeline:check_scope/stage:lint",
        "pipeline:check_scope/stage:pivot",
        "pipeline:check_scope/stage:wellformed",
        "stage:lex",
        "stage:parse",
    ]
    + [
        f"pipeline:check_scope/pipeline:supervisor/implementation:{job}{tail}"
        for job in ("job0", "job1")
        for tail in (
            "",
            "/stage:prove",
            f"/stage:prove/implementation:{job}",
            f"/stage:prove/implementation:{job}/vc:vc {job}",
            "/stage:vcgen",
            f"/stage:vcgen/implementation:{job}",
            f"/stage:vcgen/implementation:{job}/vc:vc {job}",
        )
    ]
)

#: The metric names the same traced check merges.
METRICS = {
    "counters": [
        "checker.impls",
        "checker.status.verified",
        "prover.branches",
        "prover.checks",
        "prover.conflicts",
        "prover.egraph_merges",
        "prover.facts",
        "prover.inclusion_lookups",
        "prover.instantiations",
        "prover.matches",
        "prover.rounds",
        "prover.sat_markers",
        "prover.unmatchable_quantifiers",
        "vcgen.background_axioms",
        "vcgen.goal_nodes",
        "vcgen.obligations",
        "vcgen.vcs",
    ],
    "labelled": ["prover.instantiations.by_quantifier"],
    "timers": ["prover.check_seconds"],
}

@pytest.fixture
def filed(monkeypatch):
    """Every ``JobResult`` the parent files, as it arrived."""
    results = []
    original = JobPolicy.file_result

    def spy(self, job, result, **kwargs):
        results.append(
            (result.spans, result.metrics, result.verdict.impl)
        )
        return original(self, job, result, **kwargs)

    monkeypatch.setattr(JobPolicy, "file_result", spy)
    return results


def _skeleton(tracer):
    spans = tracer.spans

    def path(index):
        parts = []
        while index is not None:
            span = spans[index]
            parts.append(f"{span.category}:{span.name}")
            index = span.parent
        return "/".join(reversed(parts))

    return sorted(path(index) for index in range(len(spans)))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestTracingFollowsTheParent:
    def test_untraced_results_carry_no_spans_or_metrics(self, backend, filed):
        report = check_program(SOURCE, LIMITS, **BACKENDS[backend])
        assert report.ok
        assert len(filed) == 2
        for spans, metrics, impl in filed:
            assert spans == [] and metrics == {}
            assert impl is None  # the AST stayed in the worker

    def test_traced_check_grafts_and_merges_as_before(self, backend, filed):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            report = check_program(SOURCE, LIMITS, **BACKENDS[backend])
        assert report.ok
        assert len(filed) == 2
        assert all(spans and metrics for spans, metrics, _ in filed)
        assert _skeleton(tracer) == SKELETON
        merged = tracer.metrics.to_dict()
        names = {kind: sorted(values) for kind, values in merged.items()}
        assert names == METRICS


def _plant_unpicklable(monkeypatch, index):
    """Make the ``index``-th implementation's verdict unpicklable in the
    workers (which fork after this patch)."""
    original = checker._check_impl

    def planted(scope, impl, impl_index, *args, **kwargs):
        verdict, crash = original(scope, impl, impl_index, *args, **kwargs)
        if impl.name == f"job{index}":
            verdict.explanation = lambda: None
        return verdict, crash

    monkeypatch.setattr(checker, "_check_impl", planted)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_an_unpicklable_verdict_fails_only_its_job(backend, monkeypatch):
    _plant_unpicklable(monkeypatch, 1)
    report = check_program(generate_impl_farm(3, 3), LIMITS, **BACKENDS[backend])
    statuses = [verdict.status for verdict in report.verdicts]
    assert statuses == [
        ImplStatus.VERIFIED,
        ImplStatus.INTERNAL_ERROR,
        ImplStatus.VERIFIED,
    ]
    error = report.verdicts[1].error
    assert error.code == "OL900"
    assert "result not transportable" in error.message

