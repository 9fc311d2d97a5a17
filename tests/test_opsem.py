from dataclasses import replace
from itertools import islice

import pytest
import hypothesis.strategies as st
from hypothesis import event, given, settings

from conftest import (
    CLASS_BUDGET,
    ClassBudgetError,
    congruence_class_terms,
    naive_raw_step,
    naive_reduce_step,
    process_st,
    soup_st,
)
from pitwo.congruence import canonical_form
from pitwo.opsem import (
    Redex,
    StaleRedexError,
    StateBudgetError,
    find_redexes,
    fire,
    reachable,
    reduce_step,
    reduce_step_detailed,
)
from pitwo.syntax import Name, free_names, parse, pretty

RACE = parse("x?(y) => y!() | x!(u) | x?(v) => v!()")
RACE_DISTINCT = parse("x?(y) => y!() | x!(u) | x?(v) => 0")


class TestFindRedexes:
    def test_race_has_two(self):
        rs = find_redexes(RACE)
        assert len(rs) == 2
        assert {r.receiver_index for r in rs} == {0, 1}
        senders = {r.sender_index for r in rs}
        assert len(senders) == 1

    def test_stop_has_none(self):
        assert find_redexes(parse("0")) == []

    def test_arity_mismatch(self):
        assert find_redexes(parse("x?(y, z) => 0 | x!(u)")) == []

    def test_under_restriction(self):
        rs = find_redexes(parse("(new x)(x?(v) => 0 | x!(a))"))
        assert len(rs) == 1


class TestFire:
    def test_comm_instance(self):
        p = parse("x?(y) => y!() | x!(u)")
        (r,) = find_redexes(p)
        assert fire(p, r) == canonical_form(parse("u!()"))

    def test_under_new(self):
        p = parse("(new x)(x?(v) => 0 | x!(a))")
        (r,) = find_redexes(p)
        assert fire(p, r) == canonical_form(parse("(new x) 0"))

    def test_zero_arity(self):
        p = parse("x?() => 0 | x!()")
        (r,) = find_redexes(p)
        assert fire(p, r) == canonical_form(parse("0"))

    def test_stale_redex_rejected(self):
        p = parse("x?(y) => y!() | x!(u)")
        with pytest.raises(StaleRedexError):
            fire(p, Redex(Name("x"), 5, 0, 1))
        with pytest.raises(StaleRedexError):
            fire(p, Redex(Name("z"), 1, 0, 1))

    def test_changing_any_field_of_a_found_redex_is_stale(self):
        # negative indices count from the end in Python; they name no redex here
        p = parse("x?(y) => y!() | x!(u) | z!(u)")
        (r,) = find_redexes(p)
        n = 3  # components: the input and the two outputs
        wrong = [replace(r, subject=Name(c)) for c in "uyz"]
        wrong += [replace(r, arity=a) for a in (0, 2)]
        for field in ("sender_index", "receiver_index"):
            wrong += [replace(r, **{field: i}) for i in range(-n, n + 1) if i != getattr(r, field)]
        for bad in wrong:
            with pytest.raises(StaleRedexError):
                fire(p, bad)


class TestReduceStep:
    def test_race_successors_collapse_when_alpha_equal(self):
        # both continuations are the same process up to alpha, so the two
        # firings land in one congruence class
        detailed = reduce_step_detailed(RACE)
        assert len(detailed) == 2
        assert len(reduce_step(RACE)) == 1

    def test_race_successors_distinct_continuations(self):
        succs = reduce_step(RACE_DISTINCT)
        assert succs == {
            canonical_form(parse("u!() | x?(v) => 0")),
            canonical_form(parse("x?(y) => y!() | 0")),
        }
        # each successor keeps the losing input guarded
        for s in succs:
            assert "x?(" in pretty(s)

    def test_no_receiver(self):
        assert reduce_step(parse("x!(u)")) == frozenset()

    def test_four_redexes_one_class(self):
        p = parse("(x?(y) => 0 | x!(a)) | (x?(y) => 0 | x!(a))")
        detailed = reduce_step_detailed(p)
        assert len(detailed) == 4
        succs = reduce_step(p)
        assert succs == {canonical_form(parse("x?(y) => 0 | x!(a)"))}


class TestReachable:
    def test_stop(self):
        g = reachable(parse("0"))
        assert len(g.states) == 1 and not g.edges

    def test_single_comm(self):
        g = reachable(parse("x?(y) => 0 | x!(u)"))
        assert len(g.states) == 2 and len(g.edges) == 1

    def test_race_with_distinct_continuations(self):
        g = reachable(RACE_DISTINCT)
        assert len(g.states) == 3 and len(g.edges) == 2

    def test_budget(self):
        with pytest.raises(StateBudgetError):
            reachable(RACE_DISTINCT, max_states=1)

    def test_json_shape(self):
        data = reachable(parse("x?(y) => 0 | x!(u)")).to_json()
        assert set(data) == {"states", "edges"}
        assert all(len(e) == 2 for e in data["edges"])


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(process_st())
    def test_free_names_never_grow(self, p):
        for q in reduce_step(p):
            assert free_names(q) <= free_names(p)

    @settings(max_examples=80, deadline=None)
    @given(process_st(max_leaves=5))
    def test_invariant_under_congruence(self, p):
        base = reduce_step(p)
        for variant in islice(congruence_class_terms(p), 12):
            assert reduce_step(variant) == base

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(process_st(max_leaves=5), soup_st()))
    def test_detailed_step_fires_each_found_redex(self, p):
        assert reduce_step_detailed(p) == [(r, fire(p, r)) for r in find_redexes(p)]

    @settings(max_examples=80, deadline=None)
    @given(process_st(max_leaves=5))
    def test_against_naive_inductive_semantics(self, p):
        try:
            naive = naive_reduce_step(p, budget=CLASS_BUDGET)
        except ClassBudgetError as exc:
            # too large a class for the oracle: say so, and check its first members
            event(f"oracle budget: {exc}")
            for variant in islice(congruence_class_terms(p), 12):
                assert {canonical_form(q) for q in naive_raw_step(variant)} <= reduce_step(p)
            return
        assert reduce_step(p) == naive

    @settings(max_examples=60, deadline=None)
    @given(process_st(max_leaves=5))
    def test_termination(self, p):
        # no replication: reduction strictly consumes prefixes
        reachable(p, max_states=2000)
