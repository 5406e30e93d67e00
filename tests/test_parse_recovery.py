"""Golden tests for panic-mode parser error recovery.

The contract: with ``recover=True`` (or through
``parse_program_recovering``) one parse surfaces *every* syntax error in
a source as an ``OL001``/``OL002`` diagnostic with a stable span, while
every healthy declaration — before, between, and after the errors —
survives. Fail-fast mode stays the default and is unchanged.
"""

import random
import re
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.oolong.ast import ImplDecl
from repro.oolong.parser import (
    MAX_RECOVERED_ERRORS,
    parse_program_recovering,
    parse_program_text,
)
from repro.oolong.program import Scope

EXAMPLES = sorted(Path(__file__).parent.parent.glob("examples/*.oolong"))

THREE_ERRORS = """group value
field num in value
field bad in
proc normalize(r) modifies r.value
impl normalize(r) {
  assume r != null ;
  r.num := ;
  r.num := 1
}
group 7
field den in value
"""


class TestFailFastDefault:
    def test_default_raises_on_first_error(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program_text(THREE_ERRORS, "demo.oolong")
        # fail-fast stops at the FIRST error
        assert excinfo.value.position.line == 4

    def test_recover_flag_collects_into_caller_list(self):
        errors = []
        decls = parse_program_text(
            THREE_ERRORS, "demo.oolong", recover=True, errors=errors
        )
        assert len(errors) == 3
        assert [d.name for d in decls] == [
            "value",
            "num",
            "normalize",
            "normalize",
            "den",
        ]


class TestMultiErrorGolden:
    def test_three_errors_three_diagnostics_stable_spans(self):
        outcome = parse_program_recovering(THREE_ERRORS, "demo.oolong")
        assert not outcome.ok
        diags = outcome.diagnostics()
        assert [d.code for d in diags] == ["OL002", "OL002", "OL002"]
        spans = [(d.position.line, d.position.column) for d in diags]
        assert spans == [(4, 1), (7, 12), (10, 7)]
        assert all(d.position.file == "demo.oolong" for d in diags)

    def test_healthy_decls_survive_around_errors(self):
        outcome = parse_program_recovering(THREE_ERRORS)
        names = [d.name for d in outcome.decls]
        # the broken `field bad in` and `group 7` are dropped; everything
        # else — including the impl whose body had a hole — survives
        assert names == ["value", "num", "normalize", "normalize", "den"]
        impls = [d for d in outcome.decls if isinstance(d, ImplDecl)]
        assert len(impls) == 1

    def test_command_level_recovery_finds_every_bad_statement(self):
        source = """proc p(t)
impl p(t) {
  assume t != ;
  skip ;
  t := := 1 ;
  skip
}
"""
        outcome = parse_program_recovering(source)
        assert len(outcome.errors) == 2
        lines = sorted(e.position.line for e in outcome.errors)
        assert lines == [3, 5]
        # the impl is kept, with skip holes standing in for the bad atoms
        assert [d.name for d in outcome.decls] == ["p", "p"]

    def test_two_broken_impl_bodies_both_reported(self):
        source = """proc a(t)
proc b(t)
impl a(t) { t := }
impl b(t) { assert }
"""
        outcome = parse_program_recovering(source)
        assert len(outcome.errors) == 2
        assert sorted(e.position.line for e in outcome.errors) == [3, 4]

    def test_lex_error_is_a_single_ol001(self):
        outcome = parse_program_recovering("group value\nfield n@m\n", "x.oolong")
        assert outcome.decls == ()
        (diag,) = outcome.diagnostics()
        assert diag.code == "OL001"
        assert diag.position.line == 2

    @pytest.mark.parametrize("rhs, column", [("²", 20), ("1²", 21)])
    def test_non_decimal_digit_is_an_ol001(self, rhs, column):
        source = f"proc p(t)\nimpl p(t) {{ t.f := {rhs} }}\n"
        outcome = parse_program_recovering(source, "x.oolong")
        (diag,) = outcome.diagnostics()
        assert diag.code == "OL001"
        assert diag.message == "unexpected character '²'"
        assert (diag.position.line, diag.position.column) == (2, column)

    def test_non_decimal_digit_does_not_escape_the_resilient_parse(self):
        from repro.api import parse_program_resilient

        _, diagnostics = parse_program_resilient("proc p(t)\nimpl p(t) { t.f := ² }")
        assert [d.code for d in diagnostics] == ["OL001"]

    def test_diagnostics_are_rendered_through_the_engine(self):
        from repro.analysis.diagnostics import render_text

        outcome = parse_program_recovering(THREE_ERRORS, "demo.oolong")
        text = render_text(outcome.diagnostics(), {"demo.oolong": THREE_ERRORS})
        assert text.count("error[OL002]") == 3
        assert "  | " in text  # caret snippets resolve against the source

    def test_error_cascade_is_capped(self):
        source = "group 1\n" * (MAX_RECOVERED_ERRORS + 20)
        outcome = parse_program_recovering(source)
        assert len(outcome.errors) == MAX_RECOVERED_ERRORS

    def test_clean_source_roundtrips_identically(self):
        source = Path(EXAMPLES[0]).read_text()
        fail_fast = parse_program_text(source)
        recovered = parse_program_recovering(source)
        assert recovered.ok
        assert recovered.decls == fail_fast


def _corrupt_decl_names(source: str, seed: int, count: int):
    """Replace the name of ``count`` rng-chosen declarations with ``0``.

    Each corruption sits at a declaration boundary, so recovery yields
    exactly one diagnostic per corruption with a predictable span.
    """
    pattern = re.compile(
        r"^(\s*(?:group|field|proc|impl)\s+)(\w+)", re.MULTILINE
    )
    matches = list(pattern.finditer(source))
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(matches)), count))
    # Apply replacements right-to-left so earlier offsets stay valid; the
    # chosen declarations sit on distinct lines, so each error's expected
    # (line, column) can be read off the original source.
    corrupted = source
    for index in reversed(chosen):
        match = matches[index]
        corrupted = corrupted[: match.start(2)] + "0" + corrupted[match.end(2) :]
    expected = []
    for index in chosen:
        prefix = source[: matches[index].start(2)]
        expected.append((prefix.count("\n") + 1, len(prefix) - prefix.rfind("\n")))
    return corrupted, expected


class TestSeededExampleCorruption:
    """Every shipped example, corrupted in k>=2 places, yields k parse
    diagnostics at exactly the corrupted positions — in one run."""

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k_corruptions_k_diagnostics(self, path, seed):
        source = path.read_text()
        corrupted, expected = _corrupt_decl_names(source, seed, count=2)
        outcome = parse_program_recovering(corrupted, path.name)
        diags = outcome.diagnostics()
        assert len(diags) == 2, [str(d) for d in diags]
        spans = sorted((d.position.line, d.position.column) for d in diags)
        assert spans == sorted(expected)

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_corruption_is_deterministic(self, path):
        source = path.read_text()
        first, _ = _corrupt_decl_names(source, seed=7, count=2)
        second, _ = _corrupt_decl_names(source, seed=7, count=2)
        assert first == second
        a = parse_program_recovering(first, path.name)
        b = parse_program_recovering(second, path.name)
        assert [str(e) for e in a.errors] == [str(e) for e in b.errors]


class TestScopeFromSourcesRecovering:
    def test_collects_across_files(self):
        scope, diags = Scope.from_sources_recovering(
            [
                ("a.oolong", "group value\nfield 1 in value\n"),
                ("b.oolong", "proc p(t)\nimpl p(t) { skip }\nfield 2\n"),
            ]
        )
        assert len(diags) == 2
        assert {d.position.file for d in diags} == {"a.oolong", "b.oolong"}
        assert set(scope.procs) == {"p"}
        assert set(scope.groups) == {"value"}

    def test_duplicate_collision_degrades_to_ol100(self):
        scope, diags = Scope.from_sources_recovering(
            [(None, "group g\ngroup g\n")]
        )
        assert [d.code for d in diags] == ["OL100"]
        assert len(scope) == 0
