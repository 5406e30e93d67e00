"""A body's depth is its nesting, not its length.

``Seq`` is one flat node per sequence, so a straight-line body of ten
thousand statements is as shallow as one of three: parsing, printing,
hashing, pickling, keying, lint, static discharge and the interpreter
all take it without running out of stack. So do the CFG and the
forward dataflow pass on a thousand ``if`` commands in a row. ``Choice`` is
one flat node per ``[]`` chain in the same way, so a chain of a
thousand arms is as shallow as one of two.
"""

import pickle

import pytest

from repro.api import check_program, check_program_resilient, lint_scope
from repro.corpus.generators import generate_impl_farm
from repro.oolong.ast import Choice, Seq
from repro.oolong.parser import parse_program_text
from repro.oolong.pretty import pretty_decl
from repro.oolong.program import Scope
from repro.parallel.cache import cache_key
from repro.semantics.interp import OutcomeKind, explore_program
from repro.vcgen.checker import ImplStatus

STATEMENTS = 10_000
ARMS = 1_000


@pytest.fixture(scope="module")
def source():
    return generate_impl_farm(1, STATEMENTS)


@pytest.fixture(scope="module")
def scope(source):
    return Scope.from_source(source)


def test_body_is_one_flat_sequence(scope):
    (impl,) = scope.impls_of("job0")
    assert isinstance(impl.body, Seq)
    # ``assume t != null`` and one write per field.
    assert len(impl.body.cmds) == STATEMENTS + 1
    assert not any(isinstance(cmd, Seq) for cmd in impl.body.cmds)


def test_pretty_round_trips(scope):
    (impl,) = scope.impls_of("job0")
    (reparsed,) = parse_program_text(pretty_decl(impl))
    assert reparsed == impl


def test_hash_pickle_and_cache_key(scope):
    (impl,) = scope.impls_of("job0")
    assert hash(impl) == hash(pickle.loads(pickle.dumps(impl)))
    assert pickle.loads(pickle.dumps(impl)) == impl
    assert len(cache_key(scope, impl, 0, None)) == 64


def test_lint_reports_no_internal_error(source):
    result = lint_scope(Scope.from_source(source))
    assert "OL900" not in {d.code for d in result.diagnostics}


def test_static_discharge_verifies(source):
    report = check_program(source, static_discharge="on")
    assert [v.status for v in report.verdicts] == [ImplStatus.VERIFIED]
    assert report.ok


def test_resilient_check_reports_no_internal_error(source):
    report = check_program_resilient(source, static_discharge="on")
    assert "OL900" not in {d.code for d in report.diagnostics}
    assert [v.status for v in report.verdicts] == [ImplStatus.VERIFIED]


def test_a_long_run_of_branches_lints_and_verifies():
    # Each ``if`` adds CFG blocks to one chain, which the forward pass
    # walks in block-id order without recursion.
    body = " ;\n".join(
        f"if t.f0 = {i} then t.f0 := {i + 1} else skip end" for i in range(1_000)
    )
    source = (
        "group data\nfield f0 in data\nproc p(t) modifies t.data\n"
        f"impl p(t) {{ assume t != null ;\n{body} }}\n"
    )
    assert lint_scope(Scope.from_source(source)).diagnostics == []
    report = check_program(source, static_discharge="on")
    assert [v.status for v in report.verdicts] == [ImplStatus.VERIFIED]


def test_interpreter_runs_a_long_body():
    steps = " ;\n".join("x := x + 1" for _ in range(2_000))
    source = (
        "proc main()\n"
        f"impl main() {{ var x in x := 0 ;\n{steps} ;\nassert x = 2000 end }}\n"
    )
    outcomes = explore_program(Scope.from_source(source), "main")
    assert [o.kind for o in outcomes] == [OutcomeKind.NORMAL]


@pytest.fixture(scope="module")
def chain_source():
    arms = " []\n".join(f"t.f0 := {i}" for i in range(ARMS))
    return (
        "group data\nfield f0 in data\nproc p(t) modifies t.data\n"
        f"impl p(t) {{ assume t != null ;\n( {arms} ) }}\n"
    )


@pytest.fixture(scope="module")
def chain_impl(chain_source):
    (impl,) = Scope.from_source(chain_source).impls_of("p")
    return impl


def test_choice_chain_is_one_flat_choice(chain_impl):
    chain = chain_impl.body.cmds[1]
    assert isinstance(chain, Choice)
    assert len(chain.cmds) == ARMS
    assert not any(isinstance(cmd, Choice) for cmd in chain.cmds)


def test_choice_chain_round_trips_hashes_pickles_and_keys(chain_source, chain_impl):
    (reparsed,) = parse_program_text(pretty_decl(chain_impl))
    assert reparsed == chain_impl
    copy = pickle.loads(pickle.dumps(chain_impl))
    assert copy == chain_impl and hash(copy) == hash(chain_impl)
    scope = Scope.from_source(chain_source)
    assert len(cache_key(scope, chain_impl, 0, None)) == 64


def test_choice_chain_lints_and_verifies(chain_source):
    result = lint_scope(Scope.from_source(chain_source))
    assert "OL900" not in {d.code for d in result.diagnostics}
    report = check_program(chain_source, static_discharge="on")
    assert [v.status for v in report.verdicts] == [ImplStatus.VERIFIED]


def test_interpreter_runs_a_long_choice_chain():
    arms = " [] ".join(f"x := {i}" for i in range(ARMS))
    source = (
        "proc main()\n"
        f"impl main() {{ var x in ( {arms} ) ; assert x >= 0 end }}\n"
    )
    outcomes = explore_program(Scope.from_source(source), "main")
    assert [o.kind for o in outcomes] == [OutcomeKind.NORMAL] * ARMS
