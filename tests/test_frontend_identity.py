"""Front-end identity: tokens, syntax trees and syntax errors are pinned.

A rewrite of the lexer or parser that claims to leave the front end's
output unchanged must reproduce, for every source below:

* the token stream: every token's kind, value, line, column and file;
* the syntax tree, walked field by field, including the source
  positions that ``==`` ignores (they are ``compare=False``);
* every syntax error: the fail-fast exception's class, message and
  position, and the ``OL001``/``OL002`` list of a recovering parse.

The corpus is every ``examples/**/*.oolong`` file, the paper's programs,
one scope per generator, the end-to-end benchmark's inputs (seed 1),
about two thousand seeded random expressions and commands (some of them
with one character deleted or inserted), and a hand-written error
corpus.

Token streams and trees are stored as digests; the golden file was
written by the code *before* such a rewrite. When a change deliberately
alters the front end's output, regenerate it and say why::

    PYTHONPATH=src:. python tests/test_frontend_identity.py --write
"""

import glob
import hashlib
import json
import os
import random
import sys

from repro.corpus.generators import (
    generate_benign_copies,
    generate_call_chain,
    generate_deep_groups,
    generate_impl_farm,
    generate_pivot_tower,
    generate_wide_scope,
)
from repro.corpus.programs import PAPER_PROGRAMS, RATIONAL_OVERBROAD
from repro.errors import ReproError
from repro.oolong.lexer import tokenize
from repro.oolong.parser import (
    parse_command,
    parse_expression,
    parse_program_recovering,
    parse_program_text,
)
from repro.record import Record, fields
from tests.test_static_identity import ROOT, e2ebench_inputs

GOLDEN = os.path.join(ROOT, "tests", "data", "frontend_identity.json")

#: Random texts per digest batch, and batches per kind.
BATCH = 100
BATCHES = 10


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _tree(node):
    """Every record field of ``node``, positions included, as JSON data."""
    if isinstance(node, Record):
        return [type(node).__name__] + [
            [f.name, _tree(getattr(node, f.name))] for f in fields(node)
        ]
    if isinstance(node, tuple):
        return [_tree(item) for item in node]
    return node


def _position(position):
    if position is None:
        return None
    return [position.line, position.column, position.file]


def _error(error: ReproError):
    return [type(error).__name__, error.message, _position(error.position)]


def _tokens(source, filename):
    try:
        tokens = tokenize(source, filename)
    except ReproError as error:
        return {"lex_error": _error(error)}
    rows = [
        [token.kind.name, token.value, _position(token.position)]
        for token in tokens
    ]
    return {"tokens": len(rows), "token_digest": _digest(rows)}


def _outcome(parse, *args):
    """``["ok", tree digest]`` or the error a fail-fast parse raised."""
    try:
        result = parse(*args)
    except ReproError as error:
        return ["error"] + _error(error)
    return ["ok", _digest(_tree(result))]


def _recovered(source, filename):
    outcome = parse_program_recovering(source, filename)
    return {
        "decls": _digest(_tree(outcome.decls)),
        "diagnostics": [
            [d.code, d.message, _position(d.position)]
            for d in outcome.diagnostics()
        ],
    }


def program_record(source, filename=None):
    """Tokens, tree and errors of one program text, in both parse modes."""
    record = _tokens(source, filename)
    record["fail_fast"] = _outcome(parse_program_text, source, filename)
    record["recovered"] = _recovered(source, filename)
    return record


# -- named sources ------------------------------------------------------


def sources():
    """``(name, filename, source)`` triples of whole programs, in a fixed
    order."""
    pattern = os.path.join(ROOT, "examples", "**", "*.oolong")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            name = os.path.relpath(path, ROOT)
            yield name, name, handle.read()
    for name, source in PAPER_PROGRAMS.items():
        yield name, None, source
    yield "RATIONAL_OVERBROAD", None, RATIONAL_OVERBROAD
    yield "wide-8", None, generate_wide_scope(8)
    yield "deep-12", None, generate_deep_groups(12)
    yield "tower-4", None, generate_pivot_tower(4)
    yield "benign-5", None, generate_benign_copies(5)
    yield "farm-3x4", None, generate_impl_farm(3, 4)
    yield "chain-6", None, generate_call_chain(6)

    inputs = e2ebench_inputs()
    cases = [("warm-up", inputs.warmup())]
    cases += [("prove-corpus", c) for c in inputs.prove_corpus(1, ROOT)]
    cases += [("discharge-farm", c) for c in inputs.discharge_farm(1)]
    cases += [("edit-recheck", c) for c in inputs.EditSession(1).block()]
    cases += [("jobs-j2", c) for c in inputs.jobs_j2(1)]
    for workload, case in cases:
        yield f"e2ebench/{workload}/{case.name}", None, case.source


# -- random expressions and commands ------------------------------------

_NAMES = ("a", "b", "c", "t", "x", "_v1", "k9", "é", "x²")
_FIELDS = ("f", "g", "next", "val")
_BINARY = ("||", "&&", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*")
_SPACES = (" ", " ", " ", "", "  ", "\t", "\n", "\r\n", " /* c */ ", " // c\n")
_NOISE = ";()[]:=.,@!<-{}"


def _sp(rng):
    return rng.choice(_SPACES)


def _atom(rng):
    roll = rng.random()
    if roll < 0.5:
        text = rng.choice(_NAMES)
    elif roll < 0.75:
        text = str(rng.randrange(1000)) if rng.random() < 0.95 else "٣"
    else:
        text = rng.choice(("null", "true", "false"))
    return text


def random_expression(rng, depth=3):
    """One expression text over every operator, unary, parentheses and
    field chains; operator runs may hold several comparisons."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        text = _atom(rng)
    elif roll < 0.45:
        text = rng.choice("!-") + _sp(rng) + random_expression(rng, depth - 1)
    elif roll < 0.55:
        text = f"({_sp(rng)}{random_expression(rng, depth - 1)}{_sp(rng)})"
    else:
        parts = [random_expression(rng, depth - 1)]
        for _ in range(rng.randrange(1, 4)):
            op = rng.choice(_BINARY)
            parts.append(f"{_sp(rng)}{op}{_sp(rng) or ' '}")
            parts.append(random_expression(rng, depth - 1))
        text = "".join(parts)
    if rng.random() < 0.15:
        if not (text.isidentifier() or text.startswith("(")):
            text = f"({text})"
        for _ in range(rng.randrange(1, 3)):
            text += "." + rng.choice(_FIELDS)
    return text


def _target(rng):
    text = rng.choice(_NAMES[:5])
    for _ in range(rng.randrange(3)):
        text += "." + rng.choice(_FIELDS)
    return text


def random_command(rng, depth=3):
    """One command text over every command form and both connectives."""
    roll = rng.random()
    e = lambda: random_expression(rng, 2)  # noqa: E731
    c = lambda: random_command(rng, depth - 1)  # noqa: E731
    if depth <= 0 or roll < 0.5:
        form = rng.randrange(7)
        if form == 0:
            return f"assert {e()}"
        if form == 1:
            return f"assume {e()}"
        if form == 2:
            return "skip"
        if form == 3:
            return f"{_target(rng)}{_sp(rng)}:={_sp(rng)}{e()}"
        if form == 4:
            return f"{_target(rng)} := new{_sp(rng)}(){_sp(rng)}"
        if form == 5:
            args = ", ".join(e() for _ in range(rng.randrange(3)))
            return f"p{rng.randrange(3)}({args})"
        return f"({_sp(rng)}{random_command(rng, 0)}{_sp(rng)})"
    if roll < 0.6:
        return f"var y in {c()} end"
    if roll < 0.7:
        return f"if {e()} then {c()} else {c()} end"
    parts = [c()]
    for _ in range(rng.randrange(1, 4)):
        parts.append(rng.choice((" ; ", ";", " [] ", "[]")))
        parts.append(c())
    return "".join(parts)


def _mutate(rng, text):
    """Delete or insert one character, so some texts exercise errors.

    A ``²`` is only ever kept inside the identifier ``x²``: on its own
    it is not a numeral, and the parent of this golden crashed on it.
    """
    if rng.random() >= 0.2 or not text:
        return text
    index = rng.randrange(len(text))
    if rng.random() < 0.5:
        mutated = text[:index] + text[index + 1 :]
    else:
        mutated = text[:index] + rng.choice(_NOISE) + text[index:]
    if mutated.count("²") != mutated.count("x²"):
        return text
    return mutated


def random_batches():
    """``(name, [outcome per text])``: expressions, then commands."""
    rng = random.Random(19)
    for batch in range(BATCHES):
        rows = []
        for _ in range(BATCH):
            text = _mutate(rng, random_expression(rng))
            rows.append([text, _tokens(text, None)] + _outcome(parse_expression, text))
        yield f"random-expressions-{batch}", rows
    for batch in range(BATCHES):
        rows = []
        for _ in range(BATCH):
            text = _mutate(rng, random_command(rng))
            program = f"proc p0(t)\nimpl p0(t) {{ {text} }}\n"
            rows.append(
                [text, _tokens(text, "c.oolong")]
                + _outcome(parse_command, text)
                + [_recovered(program, "c.oolong")]
            )
        yield f"random-commands-{batch}", rows


def _batch_record(rows):
    errors = sum(1 for row in rows if row[2] == "error")
    return {
        "texts": len(rows),
        "errors": errors,
        "digest": _digest(rows),
    }


# -- errors ---------------------------------------------------------------

#: ``(name, parse mode, text)``. Mode ``program`` records both parse
#: modes; ``expr`` and ``cmd`` record the fail-fast single-phrase parsers.
ERROR_CORPUS = (
    ("unterminated-comment", "program", "group a /* never closed"),
    ("unterminated-comment-lines", "program", "group a\n  /* one\n two *"),
    ("comment-slash-star-slash", "program", "group a /*/ b"),
    ("closed-comments", "program", "group /**/ a /***/ // tail"),
    ("at-sign", "program", "group value\nfield n@m\n"),
    ("at-expr", "program", "proc p(t)\nimpl p(t) { t.f := @ }\n"),
    ("colon", "program", "proc p(t)\nimpl p(t) { t : = 1 }\n"),
    ("digit-ident", "program", "group 12abc"),
    ("digit-underscore", "program", "proc p(t)\nimpl p(t) { t.f := 1_ }\n"),
    ("digit-e-acute", "program", "proc p(t)\nimpl p(t) { t.f := 7é }\n"),
    ("crlf-tab", "program", "group a\r\n\tfield\tf in a\r\n\t\t@"),
    ("crlf-columns", "program", "group a\r\nfield f\r\nproc p(t)\r\n  modifies t.\r\n"),
    ("tab-columns", "program", "proc p(t)\nimpl p(t) {\n\tt.f :=\t\t;\n}\n"),
    ("e-acute", "program", "group é\nfield fé in é\nproc p(tç) modifies tç.é"),
    ("x-squared", "program", "proc p(t)\nimpl p(t) { t.x² := x² }\n"),
    ("roman-eight", "program", "proc p(t)\nimpl p(t) { t.f := Ⅷ }\n"),
    ("roman-eight-word", "program", "group aⅧ\nfield Ⅷ"),
    ("arabic-indic-three", "program", "proc p(t)\nimpl p(t) { t.f := ٣ + 1٣ }\n"),
    ("form-feed", "program", "group a\x0cgroup b"),
    ("nbsp", "program", "group a\xa0group b"),
    ("group-missing-name", "program", "group"),
    ("group-in-missing", "program", "group g in"),
    ("group-in-comma", "program", "group g in a,"),
    ("field-missing-name", "program", "field"),
    ("field-maps-missing", "program", "field f maps"),
    ("field-maps-into-missing", "program", "field f maps x"),
    ("field-into-list-missing", "program", "field f maps x into"),
    ("proc-missing-name", "program", "proc"),
    ("proc-missing-params", "program", "proc p"),
    ("proc-open-paren", "program", "proc p("),
    ("proc-param-comma", "program", "proc p(a,"),
    ("proc-missing-rparen", "program", "proc p(a"),
    ("modifies-missing", "program", "proc p(t) modifies"),
    ("modifies-no-dot", "program", "proc p(t) modifies t"),
    ("modifies-dot-end", "program", "proc p(t) modifies t."),
    ("modifies-comma", "program", "proc p(t) modifies t.f,"),
    ("requires-missing", "program", "proc p(t) requires"),
    ("ensures-bad", "program", "proc p(t) ensures t <"),
    ("impl-missing-body", "program", "impl p(t)"),
    ("impl-open-body", "program", "impl p(t) {"),
    ("impl-unclosed", "program", "impl p(t) { skip"),
    ("assert-missing", "program", "impl p(t) { assert }"),
    ("assume-missing", "program", "impl p(t) { assume ; skip }"),
    ("var-missing-name", "program", "impl p(t) { var }"),
    ("var-missing-in", "program", "impl p(t) { var x }"),
    ("var-missing-end", "program", "impl p(t) { var x in skip }"),
    ("if-missing-cond", "program", "impl p(t) { if }"),
    ("if-missing-then", "program", "impl p(t) { if t skip }"),
    ("if-missing-else", "program", "impl p(t) { if t then skip }"),
    ("if-missing-end", "program", "impl p(t) { if t then skip else skip }"),
    ("paren-cmd-unclosed", "program", "impl p(t) { (skip }"),
    ("call-unclosed", "program", "impl p(t) { q( }"),
    ("call-arg-comma", "program", "impl p(t) { q(t, }"),
    ("call-missing-rparen", "program", "impl p(t) { q(t ; skip }"),
    ("assign-missing-rhs", "program", "impl p(t) { t.f := }"),
    ("assign-missing-op", "program", "impl p(t) { t.f }"),
    ("new-missing-paren", "program", "impl p(t) { t := new }"),
    ("new-missing-rparen", "program", "impl p(t) { t := new( }"),
    ("bad-target", "program", "impl p(t) { 1 := 2 }"),
    ("bad-target-binop", "program", "impl p(t) { t + 1 := 2 }"),
    ("field-missing-attr", "program", "impl p(t) { t. := 1 }"),
    ("decl-expected", "program", "group a ) group b"),
    ("trailing-rbrace", "program", "impl p(t) { skip } }"),
    ("many-errors", "program", "group 1\nfield 2\nproc 3\nimpl p(t) { t := ; t := }\n"),
    ("cascade", "program", "group 1\n" * 30),
    ("chain-cmp", "expr", "a < b < c"),
    ("chain-cmp-and", "expr", "a < b && c < d < e"),
    ("cmp-and-cmp", "expr", "a < b && c"),
    ("cmp-or-cmp", "expr", "a = b || c != d"),
    ("cmp-of-sum", "expr", "a + b * c <= d - e"),
    ("paren-cmp", "expr", "(a < b) < c"),
    ("unclosed-paren", "expr", "(a + b"),
    ("dangling-op", "expr", "a +"),
    ("dangling-or", "expr", "a ||"),
    ("lone-not", "expr", "!"),
    ("lone-minus", "expr", "-"),
    ("dot-no-attr", "expr", "a."),
    ("trailing-name", "expr", "a + b c"),
    ("keyword-operand", "expr", "a + then"),
    ("empty-expr", "expr", ""),
    ("trailing-cmd", "cmd", "skip skip"),
    ("empty-cmd", "cmd", ""),
    ("box-missing", "cmd", "skip []"),
    ("semi-missing", "cmd", "skip ;"),
    ("cmd-at", "cmd", "x := 1 @"),
)


def error_record(mode, text):
    record = _tokens(text, "e.oolong")
    if mode == "program":
        record["fail_fast"] = _outcome(parse_program_text, text, "e.oolong")
        record["recovered"] = _recovered(text, "e.oolong")
    else:
        parse = parse_expression if mode == "expr" else parse_command
        record["fail_fast"] = _outcome(parse, text)
    return record


def collect():
    records = {}
    for name, filename, source in sources():
        records[f"source/{name}"] = program_record(source, filename)
    for name, rows in random_batches():
        records[name] = _batch_record(rows)
    for name, mode, text in ERROR_CORPUS:
        records[f"error/{name}"] = error_record(mode, text)
    return records


def test_front_end_is_identical_to_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    current = json.loads(json.dumps(collect()))
    assert sorted(current) == sorted(golden)
    for name in golden:
        assert current[name] == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_frontend_identity.py --write")
    # One compact line per record.
    lines = [
        f"{json.dumps(name)}: "
        + json.dumps(record, sort_keys=True, separators=(",", ":"))
        for name, record in sorted(collect().items())
    ]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {os.path.relpath(GOLDEN, ROOT)}")
