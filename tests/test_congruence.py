import time
from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from conftest import (
    CLASS_BUDGET,
    ClassBudgetError,
    congruence_class_terms,
    naive_canonical_form,
    process_st,
)
from oracles import alpha_key, congruence_closure_keys, oracle_congruent
from pitwo import congruence
from pitwo.congruence import _canonical_form, canonical_form, congruent, term_size
from pitwo.syntax import Name, New, Output, Par, Stop, free_names, parse, pretty

a, b, x, z = Name("a"), Name("b"), Name("x"), Name("z")


class TestCanonicalForm:
    def test_unit_law(self):
        assert canonical_form(Par(Stop(), Output(x, ()))) == Output(x, ())

    def test_commutativity(self):
        p = Par(Output(b, ()), Output(a, ()))
        q = Par(Output(a, ()), Output(b, ()))
        assert canonical_form(p) == canonical_form(q)

    def test_scope_extrusion(self):
        p = Par(New(x, Output(x, ())), Output(z, ()))
        q = New(Name("n0"), Par(Output(Name("n0"), ()), Output(z, ())))
        assert canonical_form(p) == canonical_form(q)

    def test_shadowed_binder_collapses(self):
        p = New(x, New(x, Output(x, ())))
        q = New(Name("n0"), Output(Name("n0"), ()))
        assert canonical_form(p) == canonical_form(q)

    def test_binder_swap(self):
        p = parse("(new x)(new z)(x!(z))")
        q = parse("(new z)(new x)(x!(z))")
        assert canonical_form(p) == canonical_form(q)

    def test_vacuous_restriction_kept(self):
        assert canonical_form(parse("(new x) 0")) != canonical_form(parse("0"))
        assert not congruent(parse("(new x) 0"), parse("0"))

    def test_vacuous_chain_keeps_one(self):
        assert canonical_form(parse("(new x)(new z) 0")) == canonical_form(parse("(new x) 0"))

    def test_gc_vacuous_flag(self):
        assert congruent(parse("(new x) 0"), parse("0"), gc_vacuous=True)
        assert congruent(parse("(new x) a!()"), parse("a!()"), gc_vacuous=True)
        assert not congruent(parse("(new x) x!()"), parse("x!()"), gc_vacuous=True)

    def test_no_hoisting_through_input(self):
        assert not congruent(parse("a?() => (new x) 0"), parse("(new x) a?() => 0"))

    def test_congruence_inside_input_bodies(self):
        assert congruent(parse("a?() => (0 | b!())"), parse("a?() => b!()"))

    @settings(max_examples=200)
    @given(process_st())
    def test_idempotent(self, p):
        # The uncached algorithm: canonical_form returns a recorded form as it is.
        for gc in (False, True):
            c = _canonical_form(p, gc)
            assert _canonical_form(c, gc) == c

    @pytest.mark.parametrize("gc", [False, True])
    def test_recorded_form_skips_the_search(self, gc, monkeypatch):
        canonical_form.cache_clear()
        p = parse("(new x)(x!(a) | a?(y) => y!(x)) | 0")
        c = canonical_form(p, gc)
        assert c is not p
        canonical_form.cache_clear()

        def no_search(*args):
            raise AssertionError("binder search on a canonical form")

        with monkeypatch.context() as m:
            m.setattr(congruence, "_skeleton", no_search)
            assert canonical_form(c, gc) is c
        assert canonical_form(p, gc) is c
        assert p not in congruence._FIXED[gc]

    @settings(max_examples=200)
    @given(process_st())
    def test_preserves_free_names(self, p):
        assert free_names(canonical_form(p)) == free_names(p)

    @settings(max_examples=40, deadline=None)
    @given(process_st(max_leaves=4))
    def test_result_is_congruent_to_input(self, p):
        # soundness: the canonical form is reachable by axiom steps
        assert oracle_congruent(p, canonical_form(p), depth=50)


class TestCongruent:
    def test_reflexive(self):
        p = parse("x?(y) => y!() | x!(u)")
        assert congruent(p, p)

    def test_associativity(self):
        p = parse("a!() | (b!() | x!())")
        q = parse("(a!() | b!()) | x!()")
        assert congruent(p, q)

    def test_free_names_not_identified(self):
        assert not congruent(Output(x, ()), Output(z, ()))


class TestOracle:
    def test_unit_one_step(self):
        assert oracle_congruent(Par(Stop(), Output(x, ())), Output(x, ()), depth=2)

    def test_distinct_outputs_never(self):
        assert not oracle_congruent(Output(x, ()), Output(z, ()), depth=8)

    def test_extrusion_two_steps(self):
        p = Par(New(x, Output(x, ())), Output(z, ()))
        q = New(x, Par(Output(x, ()), Output(z, ())))
        assert oracle_congruent(p, q, depth=2)

    def test_insertion_direction(self):
        assert oracle_congruent(Output(x, ()), Par(Output(x, ()), Stop()), depth=2)

    @settings(max_examples=60, deadline=None)
    @given(process_st(max_leaves=4))
    def test_agreement_with_canonical_form(self, p):
        try:
            variants = list(congruence_class_terms(p, budget=CLASS_BUDGET))
            cap = max(term_size(t) for t in variants) + 1
            keys = congruence_closure_keys(p, cap, budget=4 * CLASS_BUDGET)
        except ClassBudgetError as exc:
            # too large a class for the oracles: say so, and check its first members
            event(f"oracle budget: {exc}")
            for q in islice(congruence_class_terms(p), 12):
                assert congruent(p, q)
            return
        for q in variants:
            assert congruent(p, q)
            assert alpha_key(q) in keys

    def test_closure_is_sound(self):
        p = parse("(new x)(x!() | 0) | a?() => 0")
        for q in congruence_class_terms(p):
            assert congruent(p, q), pretty(q)


def _level(k: int, comps: list[str]) -> str:
    """k restrictions x0..x(k-1) over the parallel composition of comps."""
    return "".join(f"(new x{i}) " for i in range(k)) + "(" + " | ".join(comps) + ")"


class TestShadowedParameter:
    # The inner y shadows the outer one; z must still get a position of its own.
    P = "a?(y) => b?(y) => (new z)(z!(y))"
    Q = "a?(y) => b?(y) => (new z)(z!(z))"

    @pytest.mark.parametrize("gc", [False, True])
    def test_sends_on_z_are_told_apart(self, gc):
        p, q = parse(self.P), parse(self.Q)
        assert not oracle_congruent(p, q, depth=50)
        assert not congruent(p, q, gc)
        assert pretty(canonical_form(p, gc)) == "a?(n0) => b?(n1) => (new n2) n2!(n1)"
        assert pretty(canonical_form(q, gc)) == "a?(n0) => b?(n1) => (new n2) n2!(n2)"

    @pytest.mark.parametrize("text", [P, Q])
    def test_form_is_congruent_to_input(self, text):
        p = parse(text)
        assert oracle_congruent(p, canonical_form(p), depth=50)


# Levels of 2 to 6 binders: symmetric and asymmetric components, rings,
# vacuous binders, and inner levels that read the outer binders.
MULTI_BINDER_TERMS = [
    "(new x)(new z)(x!(z) | z!(x))",
    "(new x)(new z)(a!(x) | a!(z) | x?() => z!())",
    _level(3, ["x0!(x1)", "x1!(x2)", "a!(x0)"]),
    _level(3, ["a?() => 0", "b!()"]),
    _level(4, ["x0!()", "x1!()", "x2!(x3)", "x3!(x2)"]),
    _level(4, ["a?(y) => (new w)(w!(x0) | y!(x1))", "x2!(x0)", "x3!(x3)"]),
    _level(4, ["x0?(y) => (new w)(new v)(w!(v) | v!(x3) | y!(w))", "x1!(x2)", "x2!(x1)"]),
    _level(5, [f"x{i}!(x{(i + 1) % 5})" for i in range(5)]),
    _level(5, ["x0!(x1)", "x1!(x0)", "x2?() => x3!(x4)", "x4?() => x2!(x3)", "x3!(a)"]),
    _level(6, ["x0!(x1)", "x1!(x0)", "x2!(x3)", "x3!(x2)", "x4!(x5)", "x5!(x5)", "b!()"]),
    _level(6, ["a?(y) => x0!(y)", "a?(y) => x1!(y)", "x2?() => x3!(x4)", "x4!(x5)",
               "(new x0) x0!(x1)"]),
    _level(6, [f"a?(y) => x{i}!(y) | x{i}!(x{(2 * i + 1) % 6})" for i in range(6)]),
]


class TestAgainstNaiveOracle:
    """canonical_form against the renamed-copy, every-binder-order search."""

    @settings(max_examples=200)
    @given(process_st(), st.booleans())
    def test_random_terms(self, p, gc):
        assert canonical_form(p, gc) == naive_canonical_form(p, gc)

    @pytest.mark.parametrize("gc", [False, True])
    @pytest.mark.parametrize("text", MULTI_BINDER_TERMS)
    def test_multi_binder_levels(self, text, gc):
        p = parse(text)
        assert canonical_form(p, gc) == naive_canonical_form(p, gc)


class TestBinderSearchBudget:
    """Levels the every-order search takes seconds or more on.

    The budget is generous: on a 2-vCPU VM each took at most 0.1 s.  The
    uncached algorithm is timed, so an earlier call cannot make it pass.
    """

    PROBES = {
        "12 independent binders": _level(12, [f"x{i}!()" for i in range(12)]),
        "12-binder ring": _level(12, [f"x{i}!(x{(i + 1) % 12})" for i in range(12)]),
        "8 binders read by inputs": _level(
            8, [f"a?(y) => x{i}!(y) | x{i}!(x{3 * i % 8})" for i in range(8)]),
    }

    @pytest.mark.parametrize("name", list(PROBES))
    def test_under_one_second(self, name):
        p = parse(self.PROBES[name])
        for gc in (False, True):
            t0 = time.perf_counter()
            c = _canonical_form(p, gc)
            assert time.perf_counter() - t0 < 1.0
            assert canonical_form(c, gc) == c

    def test_ring_form(self):
        c = canonical_form(parse(self.PROBES["12-binder ring"]))
        ring = " | ".join(f"n{i}!(n{(i + 1) % 12})" for i in range(12))
        assert pretty(c) == "".join(f"(new n{i}) " for i in range(12)) + f"({ring})"
