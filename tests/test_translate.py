import importlib
import weakref
from itertools import islice

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import congruence_class_terms, name_st, process_st, rename_restrictions
from pitwo import diagram as dg
from pitwo.congruence import canonical_form, congruent
from pitwo.diagram import N, Diagram, compose, dumps, equal, generator, normalize, signature, tensor
from pitwo.harness import SMALL_SPEC, enumerate_terms
from pitwo.rewrite import apply_comm, find_diagram_redexes
from pitwo.syntax import Hole, Input, Name, New, Output, Par, Stop, free_names, parse, pretty
from pitwo.translate import (
    count_holes,
    plug_diagram,
    plug_term,
    seal,
    top_equal,
    translate,
    translate_context,
    translate_top,
)

# the module, which the package's ``translate`` function hides
translation = importlib.import_module("pitwo.translate")


class TestTranslate:
    def test_stop_is_single_node(self):
        d = translate(parse("0"))
        assert len(d.nodes) == 1
        assert next(iter(d.nodes.values())).kind == "stop"

    def test_par_clause(self):
        # same-name sharing built by hand: copy, then the two translations
        d = translate(parse("x!() | x?(y) => 0"))
        manual = compose(
            generator("copy", arity=2),
            compose(
                tensor(translate(parse("x!()")), translate(parse("x?(y) => 0"))),
                generator("par", arity=2),
            ),
        )
        assert equal(d, manual)

    def test_disjoint_par_clause(self):
        d = translate(parse("a!() | b!()"))
        manual = compose(
            tensor(translate(parse("a!()")), translate(parse("b!()"))),
            generator("par", arity=2),
        )
        assert equal(d, manual)

    def test_domain_is_sorted_free_names(self):
        d = translate(parse("z!(a)"))
        assert d.dom == [N, N]   # a, z
        assert d.cod[0].__class__.__name__ == "ProcT"

    def test_worked_example_shape(self):
        # (new y)(new x) x?(w) => z!(w): one private channel feeds the
        # receiver, the unused one is collected, and z is captured by the thunk
        p = parse("(new y)(new x) x?(w) => z!(w)")
        d = normalize(translate(p))
        assert sorted(node.kind for node in d.nodes.values()) == ["fresh", "recv", "thunk"]
        thunk = next(node for node in d.nodes.values() if node.kind == "thunk")
        assert thunk.arity == 1 and thunk.cap == 1

    def test_unused_binder_discarded(self):
        d = normalize(translate(parse("(new x) 0")))
        assert [node.kind for node in d.nodes.values()] == ["stop"]

    @settings(max_examples=100, deadline=None)
    @given(process_st(max_leaves=5))
    def test_interface_one_port_per_free_name(self, p):
        d = translate(p)
        assert len(d.dom) == len(free_names(p))
        assert len(d.cod) == 1

    @settings(max_examples=40, deadline=None)
    @given(process_st(max_leaves=4))
    def test_congruence_soundness(self, p):
        base = translate_top(p, 1, True)
        for q in islice(congruence_class_terms(p), 8):
            assert top_equal(base, translate_top(q, 1, True)), pretty(q)

    def test_congruent_canonical_translates_equal(self):
        p = parse("(new x)(x!() | 0) | a?() => 0")
        q = canonical_form(p)
        assert congruent(p, q)
        assert equal(translate(p), translate(q))


class TestTranslateTop:
    def test_stop_with_permit(self):
        td = translate_top(parse("0"), 1, True)
        # par(stop, comm) normalizes: the stop unit dissolves into the permit
        kinds = sorted(node.kind for node in td.diagram.nodes.values())
        assert kinds == ["comm"]
        raw = compose(
            tensor(generator("stop"), generator("comm")), generator("par", arity=2)
        )
        assert equal(raw, td.diagram)

    def test_closed_when_instantiated(self):
        td = translate_top(parse("x!(u)"), 1, True)
        assert td.diagram.dom == []
        labels = sorted(n.label for n in td.diagram.nodes.values() if n.kind == "name")
        assert labels == ["u", "x"]

    def test_open_keeps_ports(self):
        td = translate_top(parse("x!(u)"), 1, False)
        assert td.diagram.dom == [N, N]
        assert td.name_order == (Name("u"), Name("x"))

    def test_two_permits(self):
        td = translate_top(parse("0"), 2, True)
        kinds = [node.kind for node in td.diagram.nodes.values()]
        assert kinds.count("comm") == 2

    def test_zero_permits(self):
        td = translate_top(parse("x!(u)"), 0, True)
        kinds = [node.kind for node in td.diagram.nodes.values()]
        assert kinds.count("comm") == 0

    def test_distinct_names_not_identified(self):
        assert not top_equal(translate_top(parse("x!()")), translate_top(parse("y!()")))

    def test_open_forms_over_distinct_names_not_identified(self):
        # the diagrams are isomorphic; only the names on their domains differ
        a, b = (translate_top(parse(t), 1, False) for t in ("a!()", "b!()"))
        assert not top_equal(a, b) and len({a, b}) == 2
        assert top_equal(a, translate_top(parse("a!()"), 1, False))


# Two alpha-equivalent terms: the second renames n0 to m1 and n1 to m0.
ALPHA_LEFT = "(new n0)(new n1)(a?(n2) => n0!(d) | c?() => b!(n1) | d?() => n0?() => n1!(d))"
ALPHA_RIGHT = "(new m1)(new m0)(a?(n2) => m1!(d) | c?() => b!(m0) | d?() => m1?() => m0!(d))"


class TestAlphaEquivalence:
    def test_terms_are_alpha_equivalent(self):
        assert canonical_form(parse(ALPHA_LEFT)) == canonical_form(parse(ALPHA_RIGHT))

    def test_alpha_equivalent_terms_have_equal_top_diagrams(self):
        assert top_equal(translate_top(parse(ALPHA_LEFT)), translate_top(parse(ALPHA_RIGHT)))

    def test_congruent_pair_with_renamed_captured_binder(self):
        # a counterexample of test_congruence_soundness, pinned so that it does not
        # depend on a local example database
        p = parse("x?() => 0 | (new x)(a?() => u!(x))")
        q = parse("(new n0)(a?() => u!(n0) | x?() => 0)")
        assert congruent(p, q)
        assert top_equal(translate_top(p, 1, True), translate_top(q, 1, True))

    def test_symmetric_body_orders_captures_by_their_sources(self):
        # swapping p and u is a symmetry of the body, so only the captured
        # wires' sources (a fresh name and the constant u) can order them
        p = parse("(new p)(a?() => (p!(u) | u!(p)))")
        q = parse("(new z)(a?() => (z!(u) | u!(z)))")
        assert top_equal(translate_top(p), translate_top(q))

    def test_capture_order_keeps_distinct_wirings_apart(self):
        # reordering captured inputs moves the body's ports with them
        assert not top_equal(translate_top(parse("a?() => u!(x)")),
                             translate_top(parse("a?() => x!(u)")))

    def test_cyclic_body_is_equal_under_swapped_binders(self):
        # the body's symmetry group rotates p, q and r; only the wiring of the
        # captured wires to their fresh sources tells the orders apart
        p = parse("(new p)(new q)(new r)(a?() => (p!(q) | q!(r) | r!(p)))")
        q = parse("(new p)(new r)(new q)(a?() => (p!(r) | r!(q) | q!(p)))")
        assert congruent(p, q)
        assert top_equal(translate_top(p), translate_top(q))

    def test_nested_thunks_are_equal_under_renamed_binders(self):
        # renaming x and y to m86 and c60 swaps the order of the outer thunk's
        # captured wires, and the inner thunk captures one of them
        p = parse("(new x)(new y)(y?() => x?(x) => (y!() | u!()))")
        q = parse("(new m86)(new c60)(c60?() => m86?(x) => (c60!() | u!()))")
        assert congruent(p, q)
        assert top_equal(translate_top(p), translate_top(q))

    def test_cyclic_body_over_free_names_keeps_its_orientation(self):
        # free names are wired to their own constants, so the reversed cycle differs
        p = parse("a?() => (p!(q) | q!(r) | r!(p))")
        q = parse("a?() => (p!(r) | r!(q) | q!(p))")
        assert not congruent(p, q)
        assert not top_equal(translate_top(p), translate_top(q))

    @settings(max_examples=150, deadline=None)
    @given(process_st(max_leaves=6), st.lists(name_st(), max_size=3),
           st.randoms(use_true_random=False))
    def test_renamed_restrictions_keep_the_top_diagram(self, p, bound, rng):
        # restricting some of p's names makes more captured names renamable
        for b in bound:
            p = New(b, p)
        for _ in range(3):
            q = rename_restrictions(p, rng)
            assert congruent(p, q)
            assert top_equal(translate_top(p), translate_top(q)), (pretty(p), pretty(q))


class TestContexts:
    def test_count_holes(self):
        assert count_holes(Hole()) == 1
        assert count_holes(parse("0")) == 0
        assert count_holes(Par(Hole(), Hole())) == 2

    def test_plug_term(self):
        c = Par(Hole(), parse("a!()"))
        assert plug_term(c, parse("b!()")) == parse("b!() | a!()")

    def test_identity_context(self):
        p = parse("x?(y) => y!() | x!(u)")
        ctx = translate_context(Hole(), tuple(sorted(free_names(p))))
        assert equal(plug_diagram(ctx, translate(p)), translate(p))

    def test_par_context(self):
        p = parse("a?(y) => 0")
        c = Par(Hole(), parse("x!(u)"))
        ctx = translate_context(c, tuple(sorted(free_names(p))))
        assert equal(plug_diagram(ctx, translate(p)), translate(plug_term(c, p)))

    def test_capturing_context(self):
        # context binds a name free in the plug
        p = parse("x!(u)")
        c = New(Name("x"), Hole())
        ctx = translate_context(c, tuple(sorted(free_names(p))))
        assert equal(plug_diagram(ctx, translate(p)), translate(plug_term(c, p)))

    def test_hole_under_prefix(self):
        p = parse("b!()")
        c = parse("a?() => 0")
        c = c.__class__(c.subject, c.params, Hole())
        ctx = translate_context(c, tuple(sorted(free_names(p))))
        assert equal(plug_diagram(ctx, translate(p)), translate(plug_term(c, p)))

    def test_plugging_a_hole_inside_a_thunk_drops_cached_signatures(self):
        # a?(y) => (y!() | []): the hole sits in the receive's boxed continuation
        c = Input(Name("a"), (Name("y"),), Par(Output(Name("y"), ()), Hole()))
        p = parse("b!(a)")
        order = tuple(sorted(free_names(p)))
        ctx = translate_context(c, order)
        before = signature(ctx.diagram)  # signs the context and its thunk's body
        plugged = plug_diagram(ctx, translate(p))
        fresh = plug_diagram(translate_context(c, order), translate(p))
        assert signature(plugged) == signature(fresh)
        assert signature(plugged) != before
        assert equal(plugged, translate(plug_term(c, p)))

    def test_plugging_leaves_a_deep_context_unchanged(self):
        # a?(x) => b?() => (x!() | []): the hole sits two thunks deep
        x, y = Name("x"), Name("y")
        c = Input(Name("a"), (x,), Input(Name("b"), (), Par(Output(x, ()), Hole())))
        ctx = translate_context(c, (x, y))
        fresh = translate_context(c, (x, y)).diagram
        image = (dumps(fresh), signature(fresh))
        plugged = []
        for p in (parse("x!(y)"), parse("y?() => x!()")):
            plugged.append(plug_diagram(ctx, translate(p)))
            assert (dumps(ctx.diagram), signature(ctx.diagram)) == image
            assert equal(plugged[-1], translate(plug_term(c, p)))
        assert not equal(*plugged)

    def test_exactly_one_hole_required(self):
        try:
            translate_context(parse("0"), ())
        except ValueError as exc:
            assert "hole" in str(exc)
        else:
            raise AssertionError("missing hole not rejected")

    def test_plug_interface_mismatch_rejected(self):
        from pitwo.diagram import InterfaceError

        ctx = translate_context(Par(Hole(), parse("a!()")), (Name("b"),))
        wrong = translate(parse("0"))  # plug with no name ports
        try:
            plug_diagram(ctx, wrong)
        except InterfaceError:
            pass
        else:
            raise AssertionError("interface mismatch not rejected")


def _thunk_bodies(d: Diagram) -> list[Diagram]:
    return [node.inner for node in d.nodes.values() if node.inner is not None]


def _pars_fed_by_pars(d: Diagram) -> list[int]:
    """The par nodes of d, or of a body at any depth, with an input from another par."""
    found = []
    for nid, node in d.nodes.items():
        if node.kind == "par" and any(
                d.producer(port)[0] == "out" and d.nodes[d.producer(port)[1]].kind == "par"
                for port in d.in_ports(nid)):
            found.append(nid)
    return found + [nid for body in _thunk_bodies(d) for nid in _pars_fed_by_pars(body)]


class TestFlatConstruction:
    """Each parallel tree is built as one par node, so normalize has no tree to rebuild."""

    def test_no_tree_is_rebuilt(self, monkeypatch):
        # fresh bodies, so that boxing them is counted as well
        monkeypatch.setattr(translation, "_THUNKS", weakref.WeakKeyDictionary())
        rebuilt = []
        for name in ("_rebuild_fanin", "_rebuild_fanout"):
            def counted(*args, real=getattr(dg, name), name=name):
                rebuilt.append(name)
                return real(*args)
            monkeypatch.setattr(dg, name, counted)
        translate_top(Stop())
        assert rebuilt  # par(stop, permit) loses its stop: the counter counts
        rebuilt.clear()
        terms = [p for p in enumerate_terms(SMALL_SPEC) if p is not Stop()]
        for p in terms:
            translate_top(p)
        assert len(terms) > 100 and rebuilt == []

    def test_restrictions_do_not_split_a_parallel_tree(self):
        d = translate(parse("(new x)(x!() | a!()) | b?() => (new y)(y!() | c!()) | d!()"))
        assert sorted(n.arity for n in d.nodes.values() if n.kind == "par") == [4]
        assert [n.arity for b in _thunk_bodies(d) for n in b.nodes.values() if n.kind == "par"] == [2]

    @settings(max_examples=100, deadline=None)
    @given(process_st(max_leaves=8))
    def test_no_par_feeds_a_par(self, p):
        assert _pars_fed_by_pars(translate(p)) == []


# Two terms with the same continuation term b7?(k3) => k3!(), boxed once per process.
SHARED_LEFT = "b7?(k3) => k3!() | b7!(a)"
SHARED_RIGHT = "b7?(k3) => k3!() | c!()"


class TestSharedThunks:
    """A continuation term outside a context is boxed once; its node and body are shared values."""

    @staticmethod
    def _body(td) -> Diagram:
        (body,) = _thunk_bodies(td.diagram)
        return body

    def test_one_body_signed_once(self, monkeypatch):
        monkeypatch.setattr(translation, "_THUNKS", weakref.WeakKeyDictionary())
        signed = []

        def counted(d, real=dg.signature):
            signed.append(d)
            return real(d)

        monkeypatch.setattr(dg, "signature", counted)
        terms = [parse(SHARED_LEFT), parse(SHARED_RIGHT)]  # held: the cache is weak
        left, right = map(translate_top, terms)
        body = self._body(left)
        assert self._body(right) is body
        assert left.sig != right.sig
        assert sum(d is body for d in signed) == 1

    def test_firing_and_plugging_leave_the_shared_body_unchanged(self):
        terms = [parse(SHARED_LEFT), parse(SHARED_RIGHT)]
        left, right = map(translate_top, terms)
        body = self._body(left)
        image = (dumps(body), signature(body))
        (r,) = find_diagram_redexes(left)
        fired = apply_comm(left, r)
        assert all(node.inner is not body for node in fired.diagram.nodes.values())
        # plug the other term under a prefix, then seal and fire the plugged diagram
        plug = terms[1]
        order = tuple(sorted(free_names(plug)))
        ctx = translate_context(Par(Input(Name("d"), (), Hole()), Output(Name("d"), ())), order)
        top = seal(plug_diagram(ctx, translate(plug)), ctx.dom_names)
        apply_comm(top, find_diagram_redexes(top)[0])
        assert self._body(right) is body and (dumps(body), signature(body)) == image

    def test_a_context_continuation_gets_its_own_body(self):
        # a?(y) => (y!() | [ ]): the hole sits in the boxed continuation
        c = Input(Name("a"), (Name("y"),), Par(Output(Name("y"), ()), Hole()))
        first, second = (translate_context(c, (Name("b"),)).diagram for _ in range(2))
        assert _thunk_bodies(first)[0] is not _thunk_bodies(second)[0]
        assert c not in translation._THUNKS
