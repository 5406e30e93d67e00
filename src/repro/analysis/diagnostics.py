"""The shared diagnostics engine for every static pass.

All user-facing findings — restriction violations, lints, inference
results — are represented as :class:`Diagnostic` records with a stable
error code, a severity, an optional source span, and optional secondary
notes (used e.g. for flow paths). One engine, five code families:

* ``OL0xx`` — frontend failures (lexical and syntax errors, surfaced by
  the parser's error-recovery mode);
* ``OL1xx`` — alias-confinement restrictions (the paper's Section 3 rules
  plus the flow-sensitive escape analysis);
* ``OL2xx`` — lints (unused declarations, unreachable code, recursion);
* ``OL3xx`` — inference results (modifies-list inference);
* ``OL9xx`` — pipeline faults (a checking stage crashed or a time budget
  ran out; carries a captured traceback as notes).

``OL100`` is reserved for well-formedness failures so that
:mod:`repro.oolong.wellformed` findings render through the same engine.

The legacy rule tags of :mod:`repro.restrictions.pivot` (``pivot-target``,
``formal-copy``, ...) are kept as aliases of their ``OL1xx`` codes so that
existing reports and the EXPERIMENTS.md transcripts continue to match.

Two renderers are provided: a text renderer with caret snippets (given the
source texts) and a JSON renderer with a stable, machine-readable schema.
"""

from __future__ import annotations

import enum
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ReproError, SourcePosition
from repro.record import Record, field


class Severity(enum.Enum):
    """How serious a diagnostic is; ordered for ``--fail-on`` thresholds."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    def at_least(self, other: "Severity") -> bool:
        return self.rank >= other.rank


#: code -> (default severity, short title). The registry is the single
#: source of truth for which codes exist; passes look their code up here.
CODES: Dict[str, Tuple[Severity, str]] = {
    # OL0xx — frontend (lexing and parsing).
    "OL001": (Severity.ERROR, "lexical error"),
    "OL002": (Severity.ERROR, "syntax error"),
    # OL1xx — restrictions.
    "OL100": (Severity.ERROR, "well-formedness violation"),
    "OL101": (Severity.ERROR, "pivot field assigned a value other than new() or null"),
    "OL102": (Severity.ERROR, "pivot field value flows into a variable or field"),
    "OL103": (Severity.ERROR, "object-returning operator on an assignment right operand"),
    "OL104": (Severity.ERROR, "formal parameter copied"),
    "OL105": (Severity.ERROR, "assignment to a formal parameter"),
    "OL110": (Severity.ERROR, "pivot value escapes to the heap (flow-sensitive)"),
    # OL2xx — lints.
    "OL201": (Severity.WARNING, "group is never used"),
    "OL202": (Severity.WARNING, "field is never used"),
    "OL203": (Severity.WARNING, "unreachable code"),
    "OL204": (Severity.INFO, "procedures may recurse"),
    # OL3xx — inference.
    "OL301": (Severity.ERROR, "write or call not licensed by the declared modifies list"),
    "OL302": (Severity.WARNING, "modifies list is over-broad"),
    "OL310": (Severity.ERROR, "implementation not proved"),
    # OL4xx — static discharge.
    "OL401": (Severity.ERROR, "frame obligation refuted statically"),
    "OL402": (Severity.ERROR, "static discharge disagrees with the prover"),
    # OL9xx — pipeline faults (crash isolation and deadlines).
    "OL900": (Severity.ERROR, "internal error in a checking stage"),
    "OL901": (Severity.ERROR, "time budget exhausted"),
    "OL902": (Severity.ERROR, "worker process died repeatedly; job quarantined"),
    "OL903": (Severity.WARNING, "result cache entry rejected"),
    "OL905": (Severity.WARNING, "run ledger damaged or stale; affected verdicts recomputed"),
}

#: Legacy rule-tag aliases (the strings PivotViolation has always used).
RULE_ALIASES: Dict[str, str] = {
    "lex-error": "OL001",
    "parse-error": "OL002",
    "well-formedness": "OL100",
    "pivot-target": "OL101",
    "pivot-read": "OL102",
    "object-op": "OL103",
    "formal-copy": "OL104",
    "formal-target": "OL105",
    "pivot-escape": "OL110",
    "unused-group": "OL201",
    "unused-field": "OL202",
    "unreachable": "OL203",
    "recursion": "OL204",
    "missing-licence": "OL301",
    "overbroad-modifies": "OL302",
    "not-proved": "OL310",
    "static-refuted": "OL401",
    "discharge-disagreement": "OL402",
    "internal-error": "OL900",
    "deadline": "OL901",
    "ledger-recovery": "OL905",
}

_CODE_TO_RULE = {code: rule for rule, code in RULE_ALIASES.items()}


def code_for_rule(rule: str) -> str:
    """The ``OLxxx`` code for a legacy rule tag (identity on codes)."""
    if rule in CODES:
        return rule
    try:
        return RULE_ALIASES[rule]
    except KeyError:
        raise KeyError(f"unknown diagnostic rule {rule!r}") from None


def rule_for_code(code: str) -> str:
    """The legacy rule tag for a code (used in rendered output)."""
    return _CODE_TO_RULE.get(code, code)


class Note(Record, frozen=True):
    """A secondary message attached to a diagnostic (e.g. one flow step)."""

    message: str
    position: Optional[SourcePosition] = None

    def to_dict(self) -> dict:
        return {"message": self.message, **_position_dict(self.position)}


class Diagnostic(Record, frozen=True):
    """One finding of a static pass."""

    code: str
    message: str
    severity: Severity = field(default=None)  # type: ignore[assignment]
    position: Optional[SourcePosition] = None
    impl: Optional[str] = None
    notes: Tuple[Note, ...] = ()

    def __post_init__(self):
        if self.code not in CODES:
            raise KeyError(f"unregistered diagnostic code {self.code!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", CODES[self.code][0])

    @property
    def rule(self) -> str:
        """The legacy rule tag aliasing this diagnostic's code."""
        return rule_for_code(self.code)

    def to_dict(self) -> dict:
        data = {
            "code": self.code,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            **_position_dict(self.position),
        }
        if self.impl is not None:
            data["impl"] = self.impl
        if self.notes:
            data["notes"] = [note.to_dict() for note in self.notes]
        return data

    def __str__(self) -> str:
        where = f"{self.position}: " if self.position else ""
        scope = f"impl {self.impl}: " if self.impl else ""
        return f"{where}{self.severity.value}[{self.code}] {scope}{self.message}"


def diagnostic_from_error(error: ReproError, code: str = "OL100") -> Diagnostic:
    """Wrap a raised checker error as a diagnostic (default: OL100)."""
    return Diagnostic(code=code, message=error.message, position=error.position)


def _position_from_dict(data: Mapping) -> Optional[SourcePosition]:
    if "line" not in data or "column" not in data:
        return None
    return SourcePosition(
        line=int(data["line"]),
        column=int(data["column"]),
        file=data.get("file"),
    )


def diagnostic_from_dict(data: Mapping) -> Diagnostic:
    """Rehydrate a :meth:`Diagnostic.to_dict` payload.

    Exact inverse of ``to_dict`` (the run ledger round-trips error
    diagnostics through JSON so a resumed run reports them verbatim).
    Raises ``KeyError`` on an unregistered code — a ledger written by a
    different code version fails validation rather than lying.
    """
    return Diagnostic(
        code=str(data["code"]),
        message=str(data["message"]),
        severity=Severity(data["severity"]) if "severity" in data else None,
        position=_position_from_dict(data),
        impl=data.get("impl"),
        notes=tuple(
            Note(
                message=str(note["message"]),
                position=_position_from_dict(note),
            )
            for note in data.get("notes", ())
        ),
    )


#: How many trailing traceback lines an OL900 diagnostic keeps as notes.
_TRACEBACK_NOTE_LINES = 8


def internal_error_diagnostic(
    stage: str,
    error: BaseException,
    *,
    severity: Optional[Severity] = None,
    impl: Optional[str] = None,
) -> Diagnostic:
    """An ``OL900`` diagnostic for an unexpected crash in ``stage``.

    The exception's class and message go in the primary message; the tail
    of the captured traceback rides along as notes so crash reports stay
    actionable without drowning the main report.
    """
    import traceback

    formatted = traceback.format_exception(type(error), error, error.__traceback__)
    tail = "".join(formatted).rstrip().splitlines()[-_TRACEBACK_NOTE_LINES:]
    return Diagnostic(
        code="OL900",
        message=f"{stage} failed internally: {type(error).__name__}: {error}",
        severity=severity,
        impl=impl,
        notes=tuple(Note(line.rstrip()) for line in tail),
    )


def sort_key(diag: Diagnostic):
    pos = diag.position
    return (
        pos.file or "" if pos else "",
        pos.line if pos else 0,
        pos.column if pos else 0,
        diag.code,
        diag.message,
    )


def sorted_diagnostics(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: by file, line, column, code, message."""
    return sorted(diags, key=sort_key)


def max_severity(diags: Iterable[Diagnostic]) -> Optional[Severity]:
    worst: Optional[Severity] = None
    for diag in diags:
        if worst is None or diag.severity.rank > worst.rank:
            worst = diag.severity
    return worst


def exceeds_threshold(
    diags: Iterable[Diagnostic], threshold: Union[Severity, str]
) -> bool:
    """True iff any diagnostic is at or above ``threshold`` severity."""
    if isinstance(threshold, str):
        threshold = Severity(threshold)
    return any(diag.severity.at_least(threshold) for diag in diags)


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

SourceMap = Mapping[Optional[str], str]


def _normalize_sources(sources: Union[None, str, SourceMap]) -> SourceMap:
    if sources is None:
        return {}
    if isinstance(sources, str):
        return {None: sources}
    return sources


def _position_dict(position: Optional[SourcePosition]) -> dict:
    if position is None:
        return {}
    data = {"line": position.line, "column": position.column}
    if position.file is not None:
        data["file"] = position.file
    return data


def _snippet(position: SourcePosition, sources: SourceMap) -> List[str]:
    source = sources.get(position.file)
    if source is None:
        return []
    lines = source.splitlines()
    if not 1 <= position.line <= len(lines):
        return []
    text = lines[position.line - 1]
    caret = " " * max(position.column - 1, 0) + "^"
    return [f"  | {text}", f"  | {caret}"]


def render_text(
    diags: Sequence[Diagnostic],
    sources: Union[None, str, SourceMap] = None,
) -> str:
    """Render diagnostics as human-readable text with caret snippets.

    ``sources`` maps file names (or ``None`` for anonymous texts) to
    their full source text; pass a plain string to mean ``{None: text}``.
    """
    source_map = _normalize_sources(sources)
    lines: List[str] = []
    for diag in sorted_diagnostics(diags):
        lines.append(str(diag))
        if diag.position is not None:
            lines.extend(_snippet(diag.position, source_map))
        for note in diag.notes:
            where = f" at {note.position}" if note.position else ""
            lines.append(f"  note: {note.message}{where}")
    return "\n".join(lines)


def render_json(diags: Sequence[Diagnostic], **extra) -> str:
    """Render diagnostics (plus optional top-level fields) as stable JSON."""
    payload = {
        "diagnostics": [d.to_dict() for d in sorted_diagnostics(diags)],
    }
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)
