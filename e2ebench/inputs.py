"""Seeded, known-answer inputs for the end-to-end checker benchmark.

Every input is an oolong source text plus the verdict each of its
implementations must get. The fixed corpus carries hand-written answers;
generated scopes get theirs by construction: an implementation is
NOT_PROVED exactly when a mutant write to ``stray`` (a field in no data
group, so no modifies list can license it) was planted in it, and
VERIFIED otherwise. No answer is ever taken from the checker.

Generated sizes are a fixed grid over each generator's range, so a
round does the same work whatever the seed: the median and tail of a
round are order statistics, and moving one scope's size moves them by
that scope's whole cost. The seed decides what leaves that work the
same: which of several symmetric implementations carries a planted
mutant, which bodies an edit step touches, the constants they write,
and the order of each round.

This module imports only :mod:`repro.corpus`, which pulls in no part of
the checker, so input generation stays out of the measured set-up.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.corpus import generators
from repro.corpus.programs import PAPER_PROGRAMS

VERIFIED = "VERIFIED"
NOT_PROVED = "NOT_PROVED"


@dataclass(frozen=True)
class Case:
    """One scope to check and the verdict every implementation must get."""

    name: str
    source: str
    #: ``(proc name, index among its implementations) -> ImplStatus name``.
    expected: Dict[Tuple[str, int], str]

    @property
    def impls(self) -> int:
        return len(self.expected)


#: Hand-written answers for the fixed corpus, in declaration order.
#: ``EX-3.0-client`` (``q`` VERIFIED) is left out: it alone takes ~8 s,
#: more than a whole round of the other scopes, so a run could check it
#: only once, and that one sample would decide ``impls_per_s``.
PAPER_ANSWERS: Dict[str, List[Tuple[str, str]]] = {
    "RATIONAL": [("normalize", VERIFIED)],
    "STACK_VECTOR": [
        ("vec_add", VERIFIED),
        ("push", VERIFIED),
        ("new_stack", VERIFIED),
    ],
    "EX-3.1-w": [("w", VERIFIED)],
    "EX-5.1": [("p", VERIFIED)],
    "EX-5.2": [("twice", VERIFIED)],
    "EX-5.3": [("updateAll", VERIFIED)],
}

EXAMPLE_ANSWERS: Dict[str, List[Tuple[str, str]]] = {
    "examples/linked_list.oolong": [("updateAll", VERIFIED)],
    "examples/rational.oolong": [("normalize", VERIFIED)],
    "examples/stack.oolong": [
        ("vec_add", VERIFIED),
        ("push", VERIFIED),
        ("new_stack", VERIFIED),
    ],
    "examples/failing/bad_call.oolong": [
        ("reset", VERIFIED),
        ("use", NOT_PROVED),
    ],
    "examples/failing/bad_rep_write.oolong": [("poke", NOT_PROVED)],
    "examples/failing/bad_write.oolong": [("trim", NOT_PROVED)],
}


def _answers(pairs: List[Tuple[str, str]]) -> Dict[Tuple[str, int], str]:
    expected: Dict[Tuple[str, int], str] = {}
    for proc, status in pairs:
        index = sum(1 for name, _ in expected if name == proc)
        expected[(proc, index)] = status
    return expected


_IMPL_HEADER = re.compile(r"^impl (\w+)\(", re.MULTILINE)


def _impl_names(source: str) -> List[str]:
    return _IMPL_HEADER.findall(source)


def _all_verified(source: str) -> Dict[Tuple[str, int], str]:
    return _answers([(name, VERIFIED) for name in _impl_names(source)])


def warmup() -> Case:
    """The set-up check: a small farm, checked with a workload's options."""
    source = generators.generate_impl_farm(4, 4)
    return Case("warm-up", source, _all_verified(source))


def plant(
    source: str,
    expected: Dict[Tuple[str, int], str],
    impl: str,
    *,
    opaque_assume: bool = False,
) -> Tuple[str, Dict[Tuple[str, int], str]]:
    """Plant a near-miss frame violation in ``impl`` (its formal is ``t``).

    The mutant writes ``t.stray``, a field declared in no group, so the
    write is outside every licensed group and the implementation is
    NOT_PROVED. With ``opaque_assume`` the mutant first assumes
    ``t.stray = 0``: harmless to the answer, but not a null guard, so
    static discharge cannot refute it and leaves it to the prover.
    """
    header = f"impl {impl}(t) {{"
    if header not in source:
        raise ValueError(f"no implementation {impl!r} to mutate")
    guard = " assume t.stray = 0 ;" if opaque_assume else ""
    mutant = f"{header} assume t != null ;{guard} t.stray := 1 ;"
    if "field stray\n" not in source:
        source = "field stray\n" + source
    source = source.replace(header, mutant, 1)
    answer = dict(expected)
    answer[(impl, 0)] = NOT_PROVED
    return source, answer


# ---------------------------------------------------------------------------
# prove-corpus
# ---------------------------------------------------------------------------

#: Generator grid for the prover-heavy draws: (generator, sizes). With
#: the fixed corpus that makes 33 scopes.
_PROVE_GRID = (
    ("farm1", (8, 16, 24)),
    ("farm2", (8, 16)),
    ("wide", (8, 16, 24)),
    ("tower", (2, 3, 4, 5)),
    ("deep", (6, 9, 12, 18, 24)),
    ("chain", (3, 6, 9, 12)),
)

#: The near-miss mutants of a prove-corpus round: (scope, candidate
#: targets). The candidates of each are symmetric, so the seed's pick
#: leaves the proof work alike.
_PROVE_MUTANTS = {
    "farm2-8": ["job0", "job1"],
    "farm2-16": ["job0", "job1"],
    "chain-12": [f"p{index}" for index in range(1, 12)],
}


_GENERATORS = {
    "farm1": lambda size: generators.generate_impl_farm(1, size),
    "farm2": lambda size: generators.generate_impl_farm(2, size),
    "wide": generators.generate_wide_scope,
    "tower": generators.generate_pivot_tower,
    "deep": generators.generate_deep_groups,
    "chain": generators.generate_call_chain,
}


def prove_corpus(seed: int, root: str) -> List[Case]:
    """One round: the paper corpus, the examples and the generator grid."""
    rng = random.Random(f"prove-corpus:{seed}")
    cases = [
        Case(name, PAPER_PROGRAMS[name], _answers(PAPER_ANSWERS[name]))
        for name in PAPER_ANSWERS
    ]
    for path, pairs in EXAMPLE_ANSWERS.items():
        with open(os.path.join(root, path), encoding="utf-8") as handle:
            cases.append(Case(path, handle.read(), _answers(pairs)))
    for kind, sizes in _PROVE_GRID:
        for size in sizes:
            name = f"{kind}-{size}"
            source = _GENERATORS[kind](size)
            expected = _all_verified(source)
            if name in _PROVE_MUTANTS:
                target = rng.choice(_PROVE_MUTANTS[name])
                source, expected = plant(source, expected, target)
                name += f"-mutant-{target}"
            cases.append(Case(name, source, expected))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# discharge-farm
# ---------------------------------------------------------------------------

DISCHARGE_FARMS = (100, 150, 200, 250, 300)
DISCHARGE_CHAINS = (150, 250)
DISCHARGE_FIELDS = 8


def discharge_farm(seed: int) -> List[Case]:
    """Large farms and call chains that static discharge decides alone,
    except one opaque-assume mutant per chain, which reaches the prover."""
    rng = random.Random(f"discharge-farm:{seed}")
    cases = []
    for impls in DISCHARGE_FARMS:
        source = generators.generate_impl_farm(impls, DISCHARGE_FIELDS)
        expected = _all_verified(source)
        for target in rng.sample(range(impls), 2):
            source, expected = plant(source, expected, f"job{target}")
        cases.append(Case(f"farm-{impls}x{DISCHARGE_FIELDS}", source, expected))
    for length in DISCHARGE_CHAINS:
        source = generators.generate_call_chain(length)
        expected = _all_verified(source)
        # p0 (no caller) and p<length> (the one body that writes) are
        # not like the others; mutants go in between.
        targets = rng.sample(range(1, length), 2)
        for position, target in enumerate(targets):
            source, expected = plant(
                source, expected, f"p{target}", opaque_assume=position == 0
            )
        cases.append(Case(f"chain-{length}", source, expected))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# edit-recheck
# ---------------------------------------------------------------------------

EDIT_IMPLS = 100
EDIT_GROUPS = 4
EDIT_FIELDS_PER_GROUP = 3


class EditSession:
    """One seeded scope of small implementations and its edit stream.

    Steps come in blocks of three that edit 0, 1 and 2 bodies, in a
    seeded order, so every block does the same amount of work. An edit
    rewrites one body's constants to a value never used before, so the
    edited implementation always misses the result cache while every
    other one hits it.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"edit-recheck:{seed}")
        self.values = [
            [self.rng.randrange(100) for _ in range(2)] for _ in range(EDIT_IMPLS)
        ]
        self.mutant = self.rng.randrange(EDIT_IMPLS)
        self._fresh = 1000

    def _body(self, index: int) -> str:
        group = index % EDIT_GROUPS
        first, second = self.values[index]
        body = (
            f"t.g{group}f{index % EDIT_FIELDS_PER_GROUP} := {first} ;"
            f" t.g{group}f{(index + 1) % EDIT_FIELDS_PER_GROUP} := {second}"
        )
        return f"impl job{index}(t) {{ assume t != null ; {body} }}"

    def case(self, name: str) -> Case:
        lines = []
        for group in range(EDIT_GROUPS):
            lines.append(f"group g{group}")
            lines.extend(
                f"field g{group}f{field} in g{group}"
                for field in range(EDIT_FIELDS_PER_GROUP)
            )
        lines.extend(
            f"proc job{index}(t) modifies t.g{index % EDIT_GROUPS}"
            for index in range(EDIT_IMPLS)
        )
        lines.extend(self._body(index) for index in range(EDIT_IMPLS))
        source = "\n".join(lines)
        source, expected = plant(source, _all_verified(source), f"job{self.mutant}")
        return Case(name, source, expected)

    def block(self) -> List[Case]:
        """The next three steps' scopes."""
        counts = [0, 1, 2]
        self.rng.shuffle(counts)
        steps = []
        for edits in counts:
            editable = [i for i in range(EDIT_IMPLS) if i != self.mutant]
            for index in self.rng.sample(editable, edits):
                self.values[index] = [self._fresh, self._fresh + 1]
                self._fresh += 2
            steps.append(self.case(f"edit-{edits}"))
        return steps


# ---------------------------------------------------------------------------
# jobs-j2
# ---------------------------------------------------------------------------

#: (impls, fields) grid of the parallel farms.
JOBS_GRID = ((32, 4), (40, 4), (48, 4), (56, 4), (64, 4), (32, 6), (32, 8))


def jobs_j2(seed: int) -> List[Case]:
    """Farms of many small jobs, one planted mutant each."""
    rng = random.Random(f"jobs-j2:{seed}")
    cases = []
    for impls, fields in JOBS_GRID:
        source = generators.generate_impl_farm(impls, fields)
        source, expected = plant(
            source, _all_verified(source), f"job{rng.randrange(impls)}"
        )
        cases.append(Case(f"farm-{impls}x{fields}", source, expected))
    rng.shuffle(cases)
    return cases
