"""Tests for the flow-sensitive pivot escape analysis."""

from repro.analysis.escape import check_impl_escapes, check_pivot_escapes
from repro.corpus.generators import generate_benign_copies
from repro.corpus.programs import (
    SECTION3_CLIENT,
    SECTION3_LAUNDERED_M,
    SECTION3_LEAKING_M,
    STACK_VECTOR,
)
from repro.oolong.program import Scope
from repro.restrictions.pivot import check_pivot_uniqueness


def escapes(source):
    return check_pivot_escapes(Scope.from_source(source))


class TestDirectLeak:
    def test_direct_store_of_pivot_read_is_flagged(self):
        diags = escapes(SECTION3_CLIENT + SECTION3_LEAKING_M)
        assert [d.code for d in diags] == ["OL110"]
        (d,) = diags
        assert d.impl == "m"
        assert "vec" in d.message and "obj" in d.message

    def test_honest_fresh_result_is_clean(self):
        source = SECTION3_CLIENT + "\nfield vec maps cnt into contents\nimpl m(st, r) { r.obj := new() }"
        assert escapes(source) == []


class TestLaunderedLeak:
    def test_leak_through_local_carries_full_path(self):
        diags = escapes(SECTION3_CLIENT + SECTION3_LAUNDERED_M)
        assert [d.code for d in diags] == ["OL110"]
        (d,) = diags
        assert d.impl == "m"
        # the flow path names both the laundering copy and the heap store
        notes = " / ".join(note.message for note in d.notes)
        assert "tmp := st.vec" in notes
        assert "r.obj := tmp" in notes
        assert all(note.position is not None for note in d.notes)

    def test_syntactic_pass_misses_the_store_site(self):
        scope = Scope.from_source(SECTION3_CLIENT + SECTION3_LAUNDERED_M)
        syntactic = check_pivot_uniqueness(scope)
        # the syntactic pass sees the pivot *read* only...
        assert {v.rule for v in syntactic} == {"pivot-read"}
        # ...while the flow pass pins the escape at the heap store
        (flow,) = check_pivot_escapes(scope)
        read_lines = {v.position.line for v in syntactic}
        assert flow.position.line not in read_lines


class TestPrecision:
    def test_benign_local_copies_do_not_escape(self):
        for copies in (1, 3, 6):
            scope = Scope.from_source(generate_benign_copies(copies))
            assert check_pivot_escapes(scope) == []
            # sanity: the syntactic pass does flag the formal copy
            assert len(check_pivot_uniqueness(scope)) >= 1

    def test_paper_examples_are_clean(self):
        assert escapes(STACK_VECTOR) == []

    def test_per_impl_entry_point(self):
        scope = Scope.from_source(SECTION3_CLIENT + SECTION3_LEAKING_M)
        (impl,) = scope.impls_of("m")
        diags = check_impl_escapes(scope, impl)
        assert [d.code for d in diags] == ["OL110"]

    def test_choice_join_keeps_taint_from_either_arm(self):
        source = """
        group contents
        field cnt
        field obj
        field vec maps cnt into contents
        proc m(st, r) modifies r.obj
        impl m(st, r) {
          var t in
            ( assume st != null ; t := st.vec
              []
              assume st = null ; t := null ) ;
            r.obj := t
          end
        }
        """
        diags = escapes(source)
        assert [d.code for d in diags] == ["OL110"]

    def test_equal_length_leak_paths_are_chosen_by_text(self):
        # Two arms read the same pivot field through different objects:
        # both paths have one step, and the one reported is the first by
        # text whatever the hash order of the joined taint set.
        source = """
        group contents
        field cnt
        field obj
        field vec maps cnt into contents
        proc m(st, r) modifies r.obj
        impl m(st, r) {
          var t in
            ( t := st.vec [] t := r.vec ) ;
            r.obj := t
          end
        }
        """
        (diag,) = escapes(source)
        assert [note.message for note in diag.notes] == [
            "t := r.vec (pivot read)",
            "r.obj := t (heap store)",
        ]
