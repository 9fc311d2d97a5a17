"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance and bound is pinned here, not configurable.
"""

import random
import time

import pytest

from conftest import random_term, substitution_oracle
from oracles import alpha_key, congruence_closure_keys
from pitwo.congruence import canonical_form, term_size
from pitwo.diagram import Diagram, P, equal, generator, identity, normalize, signature, tensor, compose
from pitwo.harness import (
    DESK_SPEC,
    SMALL_SPEC,
    enumerate_all_terms,
    verify_contextual_congruence,
    verify_full_abstraction,
    verify_observation_lemma,
    verify_reduction_lemma,
)
from pitwo.opsem import reduce_step, reduce_step_detailed
from pitwo.rewrite import (
    apply_comm,
    apply_concurrent,
    concurrent_step,
    count_permits,
    find_diagram_redexes,
    strip_permits,
)
from pitwo.syntax import Input, alpha_eq, free_names, parse, pretty, substitute
from pitwo.translate import top_equal, translate_top


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


RACE = parse("x?(y) => y!() | x!(u) | x?(v) => v!()")


class TestCriterion01Racing:
    def test_racing_example(self):
        t0 = time.perf_counter()
        firings = reduce_step_detailed(RACE)
        ok = len(firings) == 2
        # in each outcome the losing input remains guarded on x
        for _, succ in firings:
            comps = pretty(succ)
            ok = ok and "x?(" in comps and "u!()" in comps
        expected = {
            canonical_form(parse("u!() | x?(v) => v!()")),
            canonical_form(parse("x?(y) => y!() | u!()")),
        }
        ok = ok and {succ for _, succ in firings} == expected
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 1.0
        report(1, "racing", ok, f"{len(firings)} firings, {elapsed:.3f}s")

    def test_racing_with_distinct_continuations(self):
        # with inequivalent continuations the two outcomes stay distinct
        race = parse("x?(y) => y!() | x!(u) | x?(v) => 0")
        succs = reduce_step(race)
        assert len(succs) == 2
        for s in succs:
            assert any(isinstance(c, Input) for c in _components(s))

    @pytest.mark.xfail(
        strict=True,
        reason="with P=y!() and Q=v!() the two losers are alpha-equivalent, so "
        "the two firings are one congruence class; the two-successor count "
        "holds per redex, not per class",
    )
    def test_literal_two_class_reading(self):
        assert len(reduce_step(RACE)) == 2


def _components(p):
    from pitwo.syntax import New, Par

    while isinstance(p, New):
        p = p.body
    out = []

    def walk(t):
        if isinstance(t, Par):
            walk(t.left)
            walk(t.right)
        else:
            out.append(t)

    walk(p)
    return out


class TestCriterion02CommRule:
    def test_comm_instance_and_arity_gate(self):
        t0 = time.perf_counter()
        got = reduce_step(parse("x?(y) => y!() | x!(u)"))
        ok = got == {canonical_form(parse("u!()"))}
        mismatch = reduce_step(parse("x?(y, z) => 0 | x!(u)"))
        ok = ok and mismatch == frozenset()
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 1.0
        report(2, "comm-rule", ok, f"{elapsed:.3f}s")


class TestCriterion03Congruence:
    def test_canonical_form_agrees_with_axiom_closure(self):
        t0 = time.perf_counter()
        corpus = enumerate_all_terms(3)
        rng = random.Random(20260808)
        corpus = corpus + [random_term(rng, rng.randint(4, 6)) for _ in range(150)]
        cap = max(term_size(t) for t in corpus) + 1
        closures = [congruence_closure_keys(p, cap) for p in corpus]
        keys = [alpha_key(p) for p in corpus]
        canons = [canonical_form(p) for p in corpus]
        mismatches = 0
        for i in range(len(corpus)):
            for j in range(len(corpus)):
                if (canons[i] == canons[j]) != (keys[j] in closures[i]):
                    mismatches += 1
        elapsed = time.perf_counter() - t0
        ok = mismatches == 0 and elapsed < 120.0
        report(3, "congruence-oracle", ok,
               f"{len(corpus)} terms, {len(corpus) ** 2} pairs, "
               f"{mismatches} mismatches, {elapsed:.1f}s")


def _leaf(label: str) -> Diagram:
    return compose(generator("name", label=label), generator("send", arity=0))


def _par2(f: Diagram, g: Diagram) -> Diagram:
    return compose(tensor(f, g), generator("par", arity=2))


class TestCriterion04DiagramEquations:
    def test_monoid_comonoid_normal_forms(self):
        failures = []
        a, b, c = _leaf("a"), _leaf("b"), _leaf("c")
        unit = generator("stop")
        reference = signature(normalize(_par2(_par2(a, b), c)))
        variants = {
            "right-assoc": _par2(a, _par2(b, c)),
            "left-assoc": _par2(_par2(a, b), c),
            "swap-outer": _par2(c, _par2(a, b)),
            "swap-inner": _par2(_par2(b, a), c),
            "rotate": _par2(b, _par2(c, a)),
            "unit-left": _par2(unit, _par2(_par2(a, b), c)),
            "unit-right": _par2(_par2(a, _par2(b, unit)), c),
            "unit-double": _par2(unit, _par2(_par2(a, unit), _par2(b, c))),
        }
        for tag, d in variants.items():
            if signature(normalize(d)) != reference:
                failures.append(f"par:{tag}")

        # copy fans: every way to fan one source into three sinks
        def fan(shape: str) -> Diagram:
            d = Diagram()
            src = d.add("name", label="x")
            c1 = d.add("copy", arity=2)
            c2 = d.add("copy", arity=2)
            d.connect(("out", src, 0), ("in", c1, 0))
            legs = {}
            if shape == "left":
                d.connect(("out", c1, 0), ("in", c2, 0))
                outs = [("out", c2, 0), ("out", c2, 1), ("out", c1, 1)]
            else:
                d.connect(("out", c1, 1), ("in", c2, 0))
                outs = [("out", c1, 0), ("out", c2, 0), ("out", c2, 1)]
            for k, o in enumerate(outs):
                s = d.add("send", arity=0)
                d.connect(o, ("in", s, 0))
                legs[k] = s
            spine = d.add("par", arity=3)
            for k in range(3):
                d.connect(("out", legs[k], 0), ("in", spine, k))
            d.connect(("out", spine, 0), d.add_cod(P))
            return d

        if signature(normalize(fan("left"))) != signature(normalize(fan("right"))):
            failures.append("copy:reassoc")

        # counit pruning: fan to a discard collapses to the direct wire
        from pitwo.diagram import N as NameType

        d = Diagram()
        cp = d.add("copy", arity=2)
        dd = d.add("discard")
        d.connect(d.add_dom(NameType), ("in", cp, 0))
        d.connect(("out", cp, 0), ("in", dd, 0))
        d.connect(("out", cp, 1), d.add_cod(NameType))
        if not equal(d, identity([NameType])):
            failures.append("copy:counit")

        report(4, "diagram-equations", not failures, f"failures={failures}")


class TestCriterion05ReductionLemma:
    def test_reduction_lemma_on_desk_corpus(self):
        r = verify_reduction_lemma(DESK_SPEC)
        ok = r.passed and r.elapsed < 180.0
        report(5, "reduction-lemma", ok, r.summary())


class TestCriterion06ObservationLemma:
    def test_observation_lemma_on_desk_corpus(self):
        r = verify_observation_lemma(DESK_SPEC)
        ok = r.passed and r.elapsed < 60.0
        report(6, "observation-lemma", ok, r.summary())


class TestCriterion07FullAbstraction:
    def test_full_abstraction_on_trimmed_corpus(self):
        r = verify_full_abstraction(DESK_SPEC, max_terms=200, max_pairs=20_000)
        ok = r.passed and r.corpus_size <= 200 and r.checked <= 20_000 and r.elapsed < 300.0
        report(7, "full-abstraction", ok, r.summary())


class TestCriterion08CatalystGating:
    def test_gating_and_permit_conservation(self):
        t0 = time.perf_counter()
        from pitwo.harness import enumerate_terms

        failures = 0
        reducing = 0
        for p in enumerate_terms(DESK_SPEC):
            td = translate_top(p, 1, True)
            rs = find_diagram_redexes(td)
            if rs:
                reducing += 1
            if find_diagram_redexes(strip_permits(td)):
                failures += 1
                continue
            for r in rs:
                if count_permits(apply_comm(td, r)) != 1:
                    failures += 1
                    break
        elapsed = time.perf_counter() - t0
        ok = failures == 0 and reducing > 0
        report(8, "catalyst-gating", ok,
               f"{reducing} reducing terms, {failures} failures, {elapsed:.1f}s")


class TestCriterion09TrueConcurrency:
    def test_two_permits_fire_in_parallel(self):
        t0 = time.perf_counter()
        soup = parse("(a?() => 0 | a!()) | (b?() => 0 | b!())")
        two = translate_top(soup, 2, True)
        joint = concurrent_step(two, 2)
        ok = len(joint) == 1 and len(joint[0]) == 2
        final_parallel = apply_concurrent(two, joint[0])

        one = translate_top(soup, 1, True)
        singles = concurrent_step(one, 1)
        ok = ok and len(singles) == 2 and all(len(s) == 1 for s in singles)
        mid = apply_concurrent(one, singles[0])
        (last,) = concurrent_step(mid, 1)
        final_sequential = apply_concurrent(mid, last)

        # same inert end state under diagram equality (permit counts aside)
        stopped2 = translate_top(parse("0"), 2, True)
        stopped1 = translate_top(parse("0"), 1, True)
        ok = ok and top_equal(final_parallel, stopped2)
        ok = ok and top_equal(final_sequential, stopped1)
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 1.0
        report(9, "true-concurrency", ok, f"{elapsed:.3f}s")


class TestCriterion10Functoriality:
    def test_contexts_commute_with_translation(self):
        r = verify_contextual_congruence(SMALL_SPEC, context_bound=4, max_plugs=8)
        ok = r.passed and r.elapsed < 120.0
        report(10, "context-functoriality", ok, r.summary())


class TestCriterion11Substitution:
    def test_against_rename_apart_oracle(self):
        t0 = time.perf_counter()
        rng = random.Random(271828)
        pool = [n for n in "abxyuvz"]
        failures = 0
        for _ in range(1000):
            p = random_term(rng, rng.randint(1, 8))
            fn = sorted(free_names(p))
            mapping = {}
            for n in fn:
                if rng.random() < 0.6:
                    from pitwo.syntax import Name

                    mapping[n] = Name(rng.choice(pool))
            got = substitute(p, mapping)
            want = substitution_oracle(p, mapping)
            if not alpha_eq(got, want):
                failures += 1
        elapsed = time.perf_counter() - t0
        report(11, "substitution", failures == 0, f"1000 samples, {failures} failures, {elapsed:.1f}s")
