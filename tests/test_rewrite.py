from dataclasses import replace

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import assert_normal, process_st, soup_st
from oracles import _comm_rule, fire_by_comm_rule
from pitwo import diagram as dg, harness, rewrite
from pitwo.diagram import Diagram, HomT, N, P, _witness
from pitwo.harness import ARITY2_SPEC, SMALL_SPEC, enumerate_terms, verify_reduction_lemma
from pitwo.opsem import reduce_step, successors
from pitwo.rewrite import (
    DiagramRedex,
    StaleDiagramRedexError,
    _fire,
    apply_comm,
    apply_concurrent,
    comm_step,
    concurrent_step,
    count_permits,
    find_diagram_redexes,
    strip_permits,
)
from pitwo.syntax import parse
from pitwo.translate import top_equal, translate_top

RACE = parse("x?(y) => y!() | x!(u) | x?(v) => v!()")
SOUP = parse("(a?() => 0 | a!()) | (b?() => 0 | b!())")


def top(text, k=1):
    return translate_top(parse(text), k, True)


class TestFindDiagramRedexes:
    def test_race_has_two(self):
        assert len(find_diagram_redexes(translate_top(RACE, 1, True))) == 2

    def test_no_permit_no_redex(self):
        td = translate_top(parse("x?(y) => y!() | x!(u)"), 0, True)
        assert find_diagram_redexes(td) == []

    def test_stripping_the_permit_disables_matching(self):
        td = top("x?(y) => y!() | x!(u)")
        assert len(find_diagram_redexes(td)) == 1
        assert find_diagram_redexes(strip_permits(td)) == []

    def test_stop(self):
        assert find_diagram_redexes(top("0")) == []

    def test_arity_mismatch(self):
        assert find_diagram_redexes(top("x?(y, z) => 0 | x!(u)")) == []

    def test_different_subjects(self):
        assert find_diagram_redexes(top("x?(y) => 0 | z!(u)")) == []

    def test_shared_subject_through_restriction(self):
        assert len(find_diagram_redexes(top("(new x)(x?(v) => 0 | x!(a))"))) == 1

    def test_guarded_redex_invisible(self):
        # a matching pair inside a continuation must not fire until released
        td = top("a?() => (x?() => 0 | x!())")
        assert find_diagram_redexes(td) == []


class TestApplyComm:
    def test_reduction_lemma_instance(self):
        td = top("x?(y) => y!() | x!(u)")
        (r,) = find_diagram_redexes(td)
        assert top_equal(apply_comm(td, r), top("u!()"))

    def test_rewritten_thunk_orders_captures_like_the_reduct(self):
        # the inner thunk captures [b, x] in name order; after x := a the
        # reduct's thunk captures [a, b], so only a diagram-side order agrees
        td = top("a?(x) => b?() => x!(b) | a!(a)")
        (r,) = find_diagram_redexes(td)
        assert top_equal(apply_comm(td, r), top("b?() => a!(b)"))

    def test_zero_arity(self):
        td = top("x?() => 0 | x!()")
        (r,) = find_diagram_redexes(td)
        assert top_equal(apply_comm(td, r), top("0"))

    def test_permit_survives(self):
        td = top("x?(y) => y!() | x!(u)")
        (r,) = find_diagram_redexes(td)
        after = apply_comm(td, r)
        assert count_permits(after) == count_permits(td) == 1

    def test_node_count_strictly_decreases(self):
        td = top("x?(y) => y!() | x!(u)")
        (r,) = find_diagram_redexes(td)
        assert len(apply_comm(td, r).diagram.nodes) < len(td.diagram.nodes)

    def test_stale_redex_rejected(self):
        td = top("x?(y) => y!() | x!(u)")
        with pytest.raises(StaleDiagramRedexError):
            apply_comm(td, DiagramRedex(999, 998, 997, 1))

    def test_guarded_pair_released_by_firing(self):
        td = top("a?() => (x?() => 0 | x!()) | a!()")
        (r,) = find_diagram_redexes(td)
        after = apply_comm(td, r)
        assert len(find_diagram_redexes(after)) == 1
        (r2,) = find_diagram_redexes(after)
        assert top_equal(apply_comm(after, r2), top("0"))


class TestCommStep:
    def test_race_classes(self):
        classes = comm_step(translate_top(RACE, 1, True))
        ops = reduce_step(RACE)
        assert len(classes) == len(ops) == 1

    def test_stop_empty(self):
        assert comm_step(top("0")) == []

    def test_matches_operational(self):
        p = parse("x?(y) => y!() | x!(u) | x?(v) => 0")
        classes = comm_step(translate_top(p, 1, True))
        expected = [translate_top(q, 1, True) for q in reduce_step(p)]
        assert len(classes) == len(expected) == 2
        for e in expected:
            assert any(top_equal(e, c) for c in classes)

    @pytest.mark.parametrize("text", [
        "x?(y, z) => y!(z) | x!(a, b)",
        "x?(y, z, w) => y!(z, w) | x!(a, b, c)",
        "(new n)(x?(y, z) => z!(y) | x!(n, b))",
    ])
    def test_messages_keep_their_order(self, text):
        # the corpora send at most one name, so only these terms fix the order
        p = parse(text)
        assert {translate_top(q) for q in successors(p)} == set(comm_step(translate_top(p)))


class TestReferenceFiring:
    """Each firing is, port for port, the comm rule spliced in and then normalized."""

    @pytest.mark.parametrize("n", range(4))
    def test_comm_rule_interface(self, n):
        rule = _comm_rule(n)
        rule.validate()
        assert rule.dom == [N, N, HomT(n), *[N] * n] and rule.cod == [P, P]

    @staticmethod
    def assert_every_step_matches(p):
        """Every single and joint step of p's top forms, 1-3 permits, open or closed."""
        for permits in (1, 2, 3):
            for instantiate in (True, False):
                td = translate_top(p, permits, instantiate)
                for rs in [(r,) for r in find_diagram_redexes(td)] + concurrent_step(td):
                    fired = _fire(td, rs)
                    fired.diagram.validate()
                    assert _witness(fired.diagram, fire_by_comm_rule(td, rs).diagram), (p, rs)

    @pytest.mark.parametrize("spec", [SMALL_SPEC, ARITY2_SPEC], ids=["small", "arity2"])
    def test_corpus_steps_match(self, spec):
        for p in enumerate_terms(spec):
            self.assert_every_step_matches(p)

    @settings(max_examples=60, deadline=None)
    @given(soup_st())
    def test_soup_steps_match(self, p):
        self.assert_every_step_matches(p)

    def test_comm_step_rebuilds_only_the_spine_and_touched_trees(self, monkeypatch):
        # a firing never runs the whole-diagram pass, and rebuilds the spine once
        calls = {"fire": 0, "pass": 0, "fanin": 0}
        inside = []  # non-empty while comm_step runs; only those calls count

        def counting(name, f):
            def wrapped(*args):
                calls[name] += bool(inside)
                return f(*args)
            return wrapped

        def traced_comm_step(td):
            inside.append(td)
            try:
                return comm_step(td)
            finally:
                inside.pop()

        monkeypatch.setattr(rewrite, "_fire_on", counting("fire", rewrite._fire_on))
        monkeypatch.setattr(dg, "_rebuild_fanin", counting("fanin", dg._rebuild_fanin))
        monkeypatch.setattr(dg, "_normalized", counting("pass", dg._normalized))
        monkeypatch.setattr(harness, "comm_step", traced_comm_step)
        soup = parse("(a!(b) | a?(y) => (y!() | y!(a)) | a?(z) => 0) | (new u)(u!(b) | u?(v) => v!(u))"
                     " | b?() => a!(a)")
        for td in (translate_top(soup, 1, True), translate_top(soup, 2, False)):
            assert traced_comm_step(td)
        assert verify_reduction_lemma(SMALL_SPEC).passed
        assert calls["fire"] == 3 + 3 + 24  # each soup form, then the SMALL_SPEC corpus
        assert calls["pass"] == 0 and calls["fanin"] == calls["fire"]


class TestConcurrent:
    def test_two_permits_fire_jointly(self):
        td = translate_top(SOUP, 2, True)
        steps = concurrent_step(td, 2)
        assert len(steps) == 1
        assert len(steps[0]) == 2
        catalysts = {r.catalyst for r in steps[0]}
        assert len(catalysts) == 2
        final = apply_concurrent(td, steps[0])
        assert top_equal(final, translate_top(parse("0"), 2, True))

    def test_one_permit_sequential(self):
        td = translate_top(SOUP, 1, True)
        steps = concurrent_step(td, 1)
        assert len(steps) == 2
        assert all(len(s) == 1 for s in steps)
        mid = apply_concurrent(td, steps[0])
        steps2 = concurrent_step(mid, 1)
        assert len(steps2) == 1
        final = apply_concurrent(mid, steps2[0])
        assert top_equal(final, translate_top(parse("0"), 1, True))

    def test_empty_soup(self):
        assert concurrent_step(top("0", 2), 2) == []

    def test_conflicting_redexes_not_joint(self):
        # two receivers racing for one sender share the send node
        td = translate_top(RACE, 2, True)
        steps = concurrent_step(td, 2)
        assert all(len(s) == 1 for s in steps)


class TestJointStepRule:
    """apply_concurrent fires only sets of found, node-disjoint redexes with distinct permits."""

    def test_one_permit_cannot_gate_two_disjoint_redexes(self):
        td = translate_top(SOUP, 1, True)
        rs = tuple(find_diagram_redexes(td))
        assert len(rs) == 2
        with pytest.raises(StaleDiagramRedexError):
            apply_concurrent(td, rs)

    def test_two_redexes_naming_one_permit_rejected(self):
        td = translate_top(SOUP, 2, True)
        rs = tuple(find_diagram_redexes(td))
        assert len(rs) == 2 and rs[0].catalyst == rs[1].catalyst
        with pytest.raises(StaleDiagramRedexError):
            apply_concurrent(td, rs)

    def test_catalyst_must_be_a_permit(self):
        td = translate_top(SOUP, 2, True)
        (step,) = concurrent_step(td, 2)
        bad = (step[0], replace(step[1], catalyst=step[1].output_node))
        with pytest.raises(StaleDiagramRedexError):
            apply_concurrent(td, bad)

    def test_redexes_sharing_a_send_rejected(self):
        td = translate_top(RACE, 2, True)
        a, b = find_diagram_redexes(td)
        assert a.output_node == b.output_node
        p0, p1 = sorted(n for n, node in td.diagram.nodes.items() if node.kind == "comm")
        with pytest.raises(StaleDiagramRedexError):
            apply_concurrent(td, (replace(a, catalyst=p0), replace(b, catalyst=p1)))

    def test_changing_any_field_of_a_found_redex_is_stale(self):
        td = top("x?(y) => y!() | x!(u)")
        (r,) = find_diagram_redexes(td)
        wrong = [replace(r, arity=r.arity + 1), replace(r, arity=r.arity - 1)]
        for field in ("output_node", "input_node", "catalyst"):
            wrong += [replace(r, **{field: nid}) for nid in [*td.diagram.nodes, 999]
                      if nid != getattr(r, field)]
        for bad in wrong:
            with pytest.raises(StaleDiagramRedexError):
                apply_comm(td, bad)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(process_st(max_leaves=5), soup_st()))
    def test_every_concurrent_step_is_accepted(self, p):
        td = translate_top(p, 2, True)
        for rs in concurrent_step(td, 2):
            apply_concurrent(td, rs)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(process_st(max_leaves=5), soup_st()))
    def test_joint_steps_fire_in_either_order(self, p):
        td = translate_top(p, 2, True)
        for rs in concurrent_step(td, 2):
            assert apply_concurrent(td, rs).sig == apply_concurrent(td, rs[::-1]).sig


class TestNormalForm:
    @settings(max_examples=120, deadline=None)
    @given(process_st(max_leaves=6))
    def test_translations_steps_and_stripped_diagrams_are_normal(self, p):
        td = translate_top(p, 1, True)
        assert_normal(td.diagram)
        for succ in comm_step(td):
            assert_normal(succ.diagram)
        assert_normal(strip_permits(td).diagram)
