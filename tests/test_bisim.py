import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import gfp_bisimilar, gfp_relation, per_root_union, process_st
from pitwo.bisim import (
    _saturate,
    barbs,
    bisimilar,
    bisimilarity_verdict,
    partition_refine,
    reduction_union,
)
from pitwo.congruence import congruent
from pitwo.harness import CorpusSpec, enumerate_terms
from pitwo.opsem import StateBudgetError
from pitwo.syntax import Name, free_names, parse

x = Name("x")


class TestBarbs:
    def test_output(self):
        assert barbs(parse("x!(y)")) == {x}

    def test_input_has_no_barb(self):
        assert barbs(parse("x?(y) => x!(y)")) == frozenset()

    def test_restriction_hides(self):
        assert barbs(parse("(new u)(u!(a) | z!(u))")) == {Name("z")}

    def test_stop(self):
        assert barbs(parse("0")) == frozenset()

    @given(process_st())
    def test_barbs_are_free(self, p):
        assert barbs(p) <= free_names(p)


class TestBisimilar:
    def test_reflexive(self):
        p = parse("x?(y) => y!() | x!(u)")
        assert bisimilar(p, p)

    def test_barb_distinguishes(self):
        ok, cert = bisimilarity_verdict(parse("x!(u)"), parse("0"))
        assert not ok
        assert "barb x" in cert

    def test_stop_vs_idle_input(self):
        assert bisimilar(parse("0"), parse("x?(y) => 0"))

    def test_renamed_receiver(self):
        assert bisimilar(parse("x?(y) => 0 | x!(u)"), parse("x?(v) => 0 | x!(u)"))

    def test_move_certificate(self):
        # both have barb x, but only one can reach a state with barb u
        ok, cert = bisimilarity_verdict(parse("x?(y) => u!() | x!(a)"), parse("x?(y) => 0 | x!(a)"))
        assert not ok
        assert "step" in cert

    def test_weak_flag(self):
        # weak matching absorbs an internal step on a hidden channel
        p = parse("(new x)(x?() => u!() | x!())")
        q = parse("u!()")
        assert not bisimilar(p, q)
        assert bisimilar(p, q, weak=True)
        assert not bisimilar(p, parse("z!()"), weak=True)


class TestProperties:
    def corpus(self):
        return enumerate_terms(CorpusSpec(2, 2, 1, 2, True))[:40]

    def test_equivalence_on_corpus(self):
        terms = self.corpus()
        verdicts = {}
        for i, p in enumerate(terms):
            for j, q in enumerate(terms):
                verdicts[i, j] = bisimilar(p, q)
        for i in range(len(terms)):
            assert verdicts[i, i]
            for j in range(len(terms)):
                assert verdicts[i, j] == verdicts[j, i]
                for k in range(len(terms)):
                    if verdicts[i, j] and verdicts[j, k]:
                        assert verdicts[i, k]

    def test_congruent_implies_bisimilar(self):
        terms = self.corpus()
        for p in terms:
            for q in terms:
                if congruent(p, q):
                    assert bisimilar(p, q)

    def test_bisimilar_implies_equal_barbs(self):
        terms = self.corpus()
        for p in terms:
            for q in terms:
                if bisimilar(p, q):
                    assert barbs(p) == barbs(q)

    @pytest.mark.parametrize("weak", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(p=process_st(max_leaves=4), q=process_st(max_leaves=4))
    def test_partition_refinement_matches_gfp(self, weak, p, q):
        assert bisimilar(p, q, weak=weak) == gfp_bisimilar(p, q, weak=weak)

    def test_weak_refinement_matches_gfp_on_every_state_pair(self):
        terms = enumerate_terms(CorpusSpec(2, 3, 1, 3, True))[:150]
        lts = reduction_union(terms)
        states, succ = lts.states, lts.succ
        labels = [barbs(s) for s in states]
        blocks = partition_refine(*_saturate(succ, labels))
        rel = gfp_relation(succ, labels, weak=True)
        n = len(states)
        assert n > 150
        assert {(i, j) for i in range(n) for j in range(n) if blocks[i] == blocks[j]} == rel


class TestReductionUnion:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(process_st(max_leaves=5), max_size=4))
    def test_matches_per_root_search(self, ps):
        lts = reduction_union(ps)
        assert (lts.states, lts.succ) == per_root_union(ps)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_root_search_on_corpus_lists(self, seed):
        terms = random.Random(seed).sample(enumerate_terms(CorpusSpec(2, 3, 1, 3, True)), 40)
        lts = reduction_union(terms)
        assert (lts.states, lts.succ) == per_root_union(terms)

    def test_budget_bounds_the_union(self):
        # two states each, and no state in common
        p, q = parse("a?() => c!() | a!()"), parse("b?() => d!() | b!()")
        assert len(reduction_union([p], max_states=3).states) == 2
        assert len(reduction_union([q], max_states=3).states) == 2
        with pytest.raises(StateBudgetError):
            reduction_union([p, q], max_states=3)
