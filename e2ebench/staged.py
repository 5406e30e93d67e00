"""A traced, layer-by-layer replay of ``repro.api.check_program``.

:func:`staged_check` calls the same public functions, in the same order
and number, as ``check_program`` does for the options the benchmark
uses, and wraps each call in a span named after the ``repro`` module
that owns it. Spans stay in memory (:class:`SpanRecorder`) and are
written out once, at the end of the run. A layer's self time is its
spans' duration minus the time their child spans cover.

Counts come from the values the calls return: token and declaration
counts, lint diagnostics, the ``DischargeResult``, the ``VCBundle``,
``ProverResult.stats``, cache and ledger summaries, and the supervisor's
jobs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.analysis.effects import Outcome, discharge_scope
from repro.analysis.engine import lint_scope
from repro.oolong.contracts import desugar_contracts
from repro.oolong.lexer import tokenize
from repro.oolong.parser import Parser
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed
from repro.parallel.cache import (
    ResultCache,
    cache_key,
    payload_to_verdict,
    verdict_to_payload,
)
from repro.parallel.ledger import RunLedger
from repro.parallel.supervisor import ParallelOptions, run_parallel_checks
from repro.prover.core import ProverStats, Verdict
from repro.restrictions.pivot import check_pivot_uniqueness
from repro.vcgen.checker import ImplStatus, ImplVerdict
from repro.vcgen.vc import formula_nodes, vc_for_impl

#: The layers, in pipeline order. A span belongs to the first layer its
#: name starts with; ``check_program`` is the per-scope root.
LAYERS = (
    "oolong.lexer",
    "oolong.parser",
    "oolong.wellformed",
    "analysis.engine",
    "oolong.contracts",
    "restrictions.pivot",
    "analysis.effects",
    "parallel.cache",
    "parallel.ledger",
    "vcgen",
    "prover",
    "parallel.supervisor",
)
ROOT = "check_program"

#: Prover counters summed from ``ProverStats``.
PROVER_COUNTERS = (
    "instantiations",
    "matches",
    "rounds",
    "branches",
    "conflicts",
    "merges",
    "facts",
)


def layer_of(name: str) -> Optional[str]:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return None


class SpanRecorder:
    """In-memory spans: name, start, end, parent index and scope id."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.scope_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.scope_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus child-span coverage."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def layer_self_seconds(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_seconds().items():
            layer = layer_of(name)
            if layer is not None:
                totals[layer] += seconds
        return totals

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``)."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {
                "name": name,
                "cat": layer_of(name) or ROOT,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"scope": scope, "span": index, "parent": parent},
            }
            for index, (name, start, end, parent, scope) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


class LayerCounts:
    """Counts gathered from the values the layers return."""

    def __init__(self):
        self.counts: Dict[str, float] = defaultdict(float)
        self.impl_max_s = 0.0

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def add_prover(self, stats: ProverStats, status: ImplStatus) -> None:
        for counter in PROVER_COUNTERS:
            self.counts[f"prover.{counter}"] += getattr(stats, counter)
        if status is ImplStatus.RESOURCE_OUT:
            self.counts["prover.resource_outs"] += 1
        self.impl_max_s = max(self.impl_max_s, stats.elapsed)


def _status(result) -> ImplStatus:
    # check_scope's mapping with no scope deadline: anything the prover
    # neither proved nor refuted ran out of resources.
    if result.verdict is Verdict.UNSAT:
        return ImplStatus.VERIFIED
    if result.verdict is Verdict.SAT:
        return ImplStatus.NOT_PROVED
    return ImplStatus.RESOURCE_OUT


def staged_check(
    source: str,
    options: dict,
    recorder: SpanRecorder,
    counts: LayerCounts,
) -> Dict[Tuple[str, int], str]:
    """Check ``source`` stage by stage, as ``check_program(source,
    **options)`` would; returns each implementation's status name.

    ``options`` may set ``static_discharge``, ``parallel``, ``cache_dir``
    and ``run_dir``, the ``check_program`` options the workloads use.
    """
    span = recorder.span
    recorder.scope_id += 1
    with span(ROOT):
        # parse_program: Scope.from_source, then check_well_formed.
        with span("oolong.lexer"):
            tokens = tokenize(source, None)
        counts.add("oolong.lexer.tokens", len(tokens))
        with span("oolong.parser"):
            parser = Parser(tokens)
            decls = parser.parse_program()
            parser.expect_eof()
            scope = Scope(decls)
        counts.add("oolong.parser.decls", len(decls))
        with span("oolong.wellformed"):
            check_well_formed(scope)
        # check_scope: well-formedness again, lint, desugaring, pivots.
        with span("oolong.wellformed"):
            check_well_formed(scope)
        with span("analysis.engine"):
            lint = lint_scope(scope, include_restrictions=False, include_flow=True)
        counts.add("analysis.engine.diagnostics", len(lint.diagnostics))
        with span("oolong.contracts"):
            scope = desugar_contracts(scope)
        with span("restrictions.pivot"):
            violations = check_pivot_uniqueness(scope)
        if violations:
            raise RuntimeError(f"{len(violations)} pivot violation(s)")
        discharge = None
        mode = options.get("static_discharge", "off")
        if mode != "off":
            with span("analysis.effects"):
                discharge = discharge_scope(scope, mode=mode)
            tally = discharge.obligation_counts()
            counts.add("analysis.effects.obligations", sum(tally.values()))
            counts.add(
                "analysis.effects.discharged",
                tally[Outcome.STATIC_VALID.value]
                + tally[Outcome.STATIC_VIOLATION.value],
            )
        if options.get("parallel") is not None:
            return _parallel(scope, options["parallel"], span, counts)
        return _serial(scope, options, discharge, span, counts)


def _parallel(scope, workers, span, counts) -> Dict[Tuple[str, int], str]:
    start = time.perf_counter()
    with span("parallel.supervisor"):
        outcome = run_parallel_checks(
            scope,
            None,
            options=ParallelOptions(jobs=workers, max_retries=2),
            preresolved={},
        )
    wall = time.perf_counter() - start
    busy = 0.0
    statuses = {}
    for job in outcome.jobs:
        verdict = job.verdict
        statuses[(job.proc_name, job.impl_index)] = verdict.status.name
        counts.add_prover(verdict.stats, verdict.status)
        busy += verdict.stats.elapsed
        counts.add("parallel.supervisor.retries", job.attempts)
    counts.add("parallel.supervisor.wall_s", wall)
    counts.add("parallel.supervisor.busy_s", busy)
    counts.add("parallel.supervisor.worker_s", wall * workers)
    return statuses


def _serial(scope, options, discharge, span, counts) -> Dict[Tuple[str, int], str]:
    cache = ledger = None
    if options.get("cache_dir") is not None:
        with span("parallel.cache.open"):
            cache = ResultCache(options["cache_dir"])
    if options.get("run_dir") is not None:
        with span("parallel.ledger.open"):
            ledger = RunLedger(options["run_dir"], scope, None)
    statuses = {}
    for impls in scope.impls.values():
        for index, impl in enumerate(impls):
            verdict = _decide(scope, impl, index, discharge, cache, span, counts)
            statuses[(impl.name, index)] = verdict.status.name
            if ledger is not None:
                with span("parallel.ledger.commit"):
                    ledger.commit(verdict)
    if ledger is not None:
        with span("parallel.ledger.close"):
            ledger.close()
        counts.add("parallel.ledger.commits", ledger.commits)
    if cache is not None:
        counts.add("parallel.cache.hits", cache.hits)
        counts.add("parallel.cache.misses", cache.misses)
        counts.add("parallel.cache.rejects", len(cache.rejections))
    return statuses


def _decide(scope, impl, index, discharge, cache, span, counts) -> ImplVerdict:
    entry = discharge.impls.get((impl.name, index)) if discharge else None
    if entry is not None and entry.outcome is not Outcome.UNKNOWN:
        status = (
            ImplStatus.VERIFIED
            if entry.outcome is Outcome.STATIC_VALID
            else ImplStatus.NOT_PROVED
        )
        return ImplVerdict(impl=impl, index=index, status=status, stats=ProverStats())
    key = None
    if cache is not None:
        with span("parallel.cache.key"):
            key = cache_key(scope, impl, index, None)
        with span("parallel.cache.load"):
            payload = cache.load(key)
            if payload is not None:
                return payload_to_verdict(payload, impl, index)
    with span("vcgen"):
        bundle = vc_for_impl(scope, impl)
    counts.add("vcgen.goal_nodes", formula_nodes(bundle.goal))
    counts.add("vcgen.hypotheses", len(bundle.hypotheses))
    counts.add("vcgen.obligations", len(bundle.obligations))
    with span("prover"):
        result = bundle.prove(None)
    status = _status(result)
    failed = None
    if status is not ImplStatus.VERIFIED:
        with span("vcgen"):
            failed = bundle.failed_obligation(result)
    counts.add_prover(result.stats, status)
    verdict = ImplVerdict(
        impl=impl,
        index=index,
        status=status,
        stats=result.stats,
        failed_obligation=failed,
    )
    if key is not None:
        with span("parallel.cache.store"):
            payload = verdict_to_payload(verdict)
            if payload is not None:
                cache.store(key, payload, impl=impl.name, index=index)
    return verdict


def layer_metrics(
    recorder: SpanRecorder, counts: LayerCounts, scopes: int
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``; per-scope means
    for times and counts, ratios over the whole run."""
    per_scope = 1.0 / max(scopes, 1)
    self_s = recorder.layer_self_seconds()
    by_name = recorder.self_seconds()
    c = counts.counts

    def ms(seconds: float) -> float:
        return seconds * 1000.0 * per_scope

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (ms(self_s[layer]), "ms")
    metrics["oolong.lexer.tokens"] = (c["oolong.lexer.tokens"] * per_scope, "count")
    metrics["oolong.lexer.tokens_per_s"] = (
        ratio(c["oolong.lexer.tokens"], self_s["oolong.lexer"]),
        "1/s",
    )
    metrics["oolong.parser.decls"] = (c["oolong.parser.decls"] * per_scope, "count")
    metrics["analysis.engine.diagnostics"] = (
        c["analysis.engine.diagnostics"] * per_scope,
        "count",
    )
    metrics["analysis.effects.obligations"] = (
        c["analysis.effects.obligations"] * per_scope,
        "count",
    )
    metrics["analysis.effects.discharged_ratio"] = (
        ratio(c["analysis.effects.discharged"], c["analysis.effects.obligations"]),
        "ratio",
    )
    for name in ("goal_nodes", "hypotheses", "obligations"):
        metrics[f"vcgen.{name}"] = (c[f"vcgen.{name}"] * per_scope, "count")
    metrics["prover.impl_max_ms"] = (counts.impl_max_s * 1000.0, "ms")
    for counter in PROVER_COUNTERS + ("resource_outs",):
        metrics[f"prover.{counter}"] = (c[f"prover.{counter}"] * per_scope, "count")
    metrics["prover.instances_per_match"] = (
        ratio(c["prover.instantiations"], c["prover.matches"]),
        "ratio",
    )
    for op in ("key", "load", "store"):
        metrics[f"parallel.cache.{op}_ms"] = (
            ms(by_name.get(f"parallel.cache.{op}", 0.0)),
            "ms",
        )
    metrics["parallel.cache.hit_ratio"] = (
        ratio(
            c["parallel.cache.hits"],
            c["parallel.cache.hits"] + c["parallel.cache.misses"],
        ),
        "ratio",
    )
    metrics["parallel.cache.rejects"] = (
        c["parallel.cache.rejects"] * per_scope,
        "count",
    )
    for op in ("open", "commit"):
        metrics[f"parallel.ledger.{op}_ms"] = (
            ms(by_name.get(f"parallel.ledger.{op}", 0.0)),
            "ms",
        )
    metrics["parallel.ledger.commits"] = (
        c["parallel.ledger.commits"] * per_scope,
        "count",
    )
    metrics["parallel.supervisor.wall_ms"] = (
        ms(c["parallel.supervisor.wall_s"]),
        "ms",
    )
    metrics["parallel.supervisor.busy_share"] = (
        ratio(c["parallel.supervisor.busy_s"], c["parallel.supervisor.worker_s"]),
        "ratio",
    )
    metrics["parallel.supervisor.retries"] = (
        c["parallel.supervisor.retries"] * per_scope,
        "count",
    )
    return metrics
