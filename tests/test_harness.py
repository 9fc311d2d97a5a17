import sys
from itertools import combinations

import pytest

from pitwo import diagram as dg
from pitwo import harness, rewrite
from pitwo.bisim import barbs, blocks
from pitwo.congruence import canonical_form
from pitwo.opsem import StateBudgetError, reduction_union
from pitwo.harness import (
    ARITY2_SPEC,
    CorpusSpec,
    DESK_SPEC,
    SMALL_SPEC,
    DiagramLTS,
    corpus_names,
    enumerate_all_terms,
    enumerate_contexts,
    enumerate_terms,
    semantic_barbs,
    verify_catalyst_gating,
    verify_contextual_congruence,
    verify_full_abstraction,
    verify_observation_lemma,
    verify_reduction_lemma,
)
from pitwo.syntax import Hole, Input, Name, New, Output, Par, free_names, parse, pretty
from pitwo.translate import (
    plug_diagram,
    plug_term,
    seal,
    top_equal,
    translate,
    translate_context,
    translate_top,
)


class TestEnumerate:
    def test_alphabet_size_is_bounded(self):
        assert [n.id for n in corpus_names(CorpusSpec(8))] == list("abcdefgh")
        with pytest.raises(ValueError):
            corpus_names(CorpusSpec(9))

    def test_zero_prefixes(self):
        terms = enumerate_terms(CorpusSpec(1, 0, 0, 1, False))
        assert terms == [parse("0")]

    def test_one_prefix_one_name(self):
        terms = enumerate_terms(CorpusSpec(1, 1, 0, 1, False))
        assert {pretty(t) for t in terms} == {"0", "a!()", "a?() => 0"}

    def test_monotone_in_bounds(self):
        small = len(enumerate_terms(CorpusSpec(1, 2, 1, 2, True)))
        more_names = len(enumerate_terms(CorpusSpec(2, 2, 1, 2, True)))
        more_prefixes = len(enumerate_terms(CorpusSpec(1, 3, 1, 2, True)))
        assert small <= more_names
        assert small <= more_prefixes

    def test_no_two_terms_congruent(self):
        terms = enumerate_terms(SMALL_SPEC)
        canons = {canonical_form(t) for t in terms}
        assert len(canons) == len(terms)

    def test_desk_covers_key_phenomena(self):
        corpus = {pretty(t) for t in enumerate_terms(DESK_SPEC)}
        racing = canonical_form(parse("a?() => 0 | a!() | a?() => 0"))
        passing = canonical_form(parse("a?(y) => y!() | a!(b)"))
        private = canonical_form(parse("(new c)(c?() => 0 | c!())"))
        assert pretty(racing) in corpus
        assert pretty(passing) in corpus
        assert pretty(private) in corpus

    def test_raw_enumeration_counts(self):
        assert len(enumerate_all_terms(1)) == 7  # stop + 2 subjects x 3 arg choices

    def test_contexts_have_one_hole(self):
        from pitwo.translate import count_holes

        ctxs = enumerate_contexts((Name("a"), Name("b")), 3)
        assert all(count_holes(c) == 1 for c in ctxs)
        assert len(ctxs) > 10


class TestSemanticBarbs:
    def test_output(self):
        assert semantic_barbs(translate_top(parse("x!(y)"), 1, True)) == {Name("x")}

    def test_input_silent(self):
        assert semantic_barbs(translate_top(parse("x?(y) => x!(y)"), 1, True)) == frozenset()

    def test_restricted_subject_hidden(self):
        td = translate_top(parse("(new u)(u!(a) | z!(u))"), 1, True)
        assert semantic_barbs(td) == {Name("z")}

    def test_open_diagram_ports(self):
        td = translate_top(parse("x!(y)"), 1, False)
        assert semantic_barbs(td) == {Name("x")}


class TestVerifiers:
    def test_reduction_smoke(self):
        report = verify_reduction_lemma(SMALL_SPEC)
        assert report.passed, report.counterexamples[:3]
        assert report.corpus_size == len(enumerate_terms(SMALL_SPEC))

    def test_reduction_on_two_name_messages(self, monkeypatch):
        report = verify_reduction_lemma(ARITY2_SPEC)
        assert report.passed, report.counterexamples[:3]
        assert report.corpus_size == 6795
        # a firing that feeds the continuation its message names reversed
        fire_on = rewrite._fire_on

        def reversed_messages(d, r):
            ports = [("in", r.output_node, 1 + t) for t in range(r.arity)]
            prods = [d.disconnect(port) for port in ports]
            for port, prod in zip(ports, reversed(prods)):
                d.connect(prod, port)
            fire_on(d, r)

        monkeypatch.setattr(rewrite, "_fire_on", reversed_messages)
        assert verify_reduction_lemma(ARITY2_SPEC).counterexamples

    def test_observation_smoke(self):
        report = verify_observation_lemma(SMALL_SPEC)
        assert report.passed, report.counterexamples[:3]

    def test_full_abstraction_smoke(self):
        report = verify_full_abstraction(SMALL_SPEC, max_terms=60, max_pairs=2000)
        assert report.passed, report.counterexamples[:3]
        assert report.checked > 0

    def test_gating_smoke(self):
        report = verify_catalyst_gating(SMALL_SPEC)
        assert report.passed, report.counterexamples[:3]

    def test_contextual_smoke(self):
        report = verify_contextual_congruence(SMALL_SPEC, context_bound=2,
                                              max_plugs=6, max_verdict_terms=4,
                                              max_verdict_contexts=8)
        assert report.passed, report.counterexamples[:3]

    def test_functoriality_checks_never_sign(self, monkeypatch):
        # plug-then-translate and translate-then-plug wire their diagrams in
        # one port order, so a witness decides every functoriality check
        signature, isomorphic = dg.signature, dg.isomorphic
        signed, signs_per_check = [], []

        def traced(d1, d2):
            before = len(signed)
            same = isomorphic(d1, d2)
            signs_per_check.append(len(signed) - before)
            return same

        monkeypatch.setattr(dg, "signature", lambda d: signed.append(d) or signature(d))
        monkeypatch.setattr(harness, "isomorphic", traced)
        report = verify_contextual_congruence(SMALL_SPEC, context_bound=2, max_plugs=4)
        assert report.passed, report.counterexamples[:3]
        contexts = enumerate_contexts(corpus_names(SMALL_SPEC), 2)
        assert len(signs_per_check) == len(contexts) * 4
        assert set(signs_per_check) == {0}

    def test_report_round_trips(self):
        report = verify_observation_lemma(CorpusSpec(1, 1, 0, 1, False))
        data = report.to_json()
        assert data["passed"] is True
        assert data["lemma"] == "observation"
        assert "elapsed_seconds" in data

    def test_reports_deterministic(self):
        a = verify_observation_lemma(SMALL_SPEC).to_json()
        b = verify_observation_lemma(SMALL_SPEC).to_json()
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b


class TestDiagramLTS:
    def test_interning_identifies_equal_diagrams(self):
        lts = DiagramLTS()
        i = lts.intern(translate_top(parse("a!() | b!()"), 1, True))
        j = lts.intern(translate_top(parse("b!() | a!()"), 1, True))
        k = lts.intern(translate_top(parse("a!()"), 1, True))
        assert i == j != k

    def test_a_diamond_is_interned_without_signing(self, monkeypatch):
        # two firing orders reach one state: its key matches, and a witness decides
        signature, signed = dg.signature, []
        for mod in (dg, sys.modules["pitwo.translate"]):  # pitwo.translate is also a function
            monkeypatch.setattr(mod, "signature", lambda d: signed.append(d) or signature(d))
        lts = DiagramLTS()
        lts.intern(translate_top(parse("a!() | a?() => c!() | b!() | b?() => d!()")))
        lts.close()
        assert len(lts.states) == 4
        assert not any(d is td.diagram for d in signed for td in lts.states)

    def test_budget_bounds_the_closure(self):
        lts = DiagramLTS()
        lts.max_states = 1
        lts.intern(translate_top(parse("x?(y) => 0 | x!(u)"), 1, True))
        with pytest.raises(StateBudgetError):
            lts.refine()

    @pytest.mark.parametrize("weak", [False, True])
    def test_blocks_agree_with_the_term_side(self, weak):
        terms = enumerate_terms(SMALL_SPEC)
        lts = reduction_union(terms)
        syn_blocks = blocks(lts, barbs, weak)
        syn = [syn_blocks[lts.index[p]] for p in terms]
        diagrams = DiagramLTS()
        roots = [diagrams.intern(translate_top(p, 1, True)) for p in terms]
        sem_blocks = blocks(diagrams, semantic_barbs, weak)
        sem = [sem_blocks[r] for r in roots]
        disagree = [(pretty(terms[i]), pretty(terms[j]))
                    for i, j in combinations(range(len(terms)), 2)
                    if (syn[i] == syn[j]) != (sem[i] == sem[j])]
        assert disagree == []

    def test_seal_of_translation_matches_translate_top(self):
        p = parse("x?(y) => y!() | x!(u)")
        order = tuple(sorted(free_names(p)))
        for k in (0, 1, 2):
            assert top_equal(seal(translate(p), order, k), translate_top(p, k, True))

    def test_seal_of_plugged_context_matches_translate_top(self):
        x, y, u = Name("x"), Name("y"), Name("u")
        c = Par(Input(x, (y,), Hole()), New(u, Output(x, (u,))))
        p = parse("y!(a)")
        ctx = translate_context(c, tuple(sorted(free_names(p))))
        td = seal(plug_diagram(ctx, translate(p)), ctx.dom_names)
        assert top_equal(td, translate_top(plug_term(c, p), 1, True))
