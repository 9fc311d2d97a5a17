import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

import pitwo
from conftest import POOL, process_st, substitution_oracle
from pitwo.harness import enumerate_all_terms
from pitwo.syntax import (
    Hole,
    Input,
    Name,
    New,
    Output,
    Par,
    ParseError,
    Stop,
    _TABLE,
    all_names,
    alpha_eq,
    dumps,
    free_names,
    fresh_name,
    from_json,
    loads,
    parse,
    pretty,
    substitute,
    to_json,
)

a, b, u, v, x, y, z, w = (Name(c) for c in "abuvxyzw")


class TestParse:
    def test_stop(self):
        assert parse("0") == Stop()

    def test_par_of_prefixes(self):
        got = parse("x?(y) => y!() | x!(u)")
        assert got == Par(Input(x, (y,), Output(y, ())), Output(x, (u,)))

    def test_new_scopes_over_par(self):
        got = parse("(new x)(x!(u) | x?(v) => 0)")
        assert got == New(x, Par(Output(x, (u,)), Input(x, (v,), Stop())))

    def test_input_body_extends_right(self):
        got = parse("x?(y) => z?(w) => 0")
        assert got == Input(x, (y,), Input(z, (w,), Stop()))

    def test_par_left_associative(self):
        got = parse("a!() | b!() | x!()")
        assert got == Par(Par(Output(a, ()), Output(b, ())), Output(x, ()))

    def test_multiple_params(self):
        got = parse("x?(y, z) => 0")
        assert got == Input(x, (y, z), Stop())

    def test_duplicate_params_rejected(self):
        with pytest.raises(ParseError):
            parse("x?(y, y) => 0")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x!() |\n  !")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("0 0")

    def test_reserved_word(self):
        with pytest.raises(ParseError):
            parse("new!()")

    def test_whitespace_insensitive(self):
        assert parse(" x ?( y )=>  0 ") == parse("x?(y) => 0")


class TestPretty:
    def test_round_trip_exhaustive(self):
        for p in enumerate_all_terms(4):
            assert parse(pretty(p)) == p

    @settings(max_examples=300)
    @given(process_st(max_leaves=10))
    def test_round_trip_random(self, p):
        assert parse(pretty(p)) == p

    def test_round_trip_structured_corpus(self):
        from pitwo.harness import SMALL_SPEC, enumerate_terms

        for p in enumerate_terms(SMALL_SPEC):
            assert parse(pretty(p)) == p

    def test_right_nested_par_parenthesized(self):
        p = Par(Output(a, ()), Par(Output(b, ()), Stop()))
        assert pretty(p) == "a!() | (b!() | 0)"
        assert parse(pretty(p)) == p


class TestNameAlgebra:
    def test_free_names_stop(self):
        assert free_names(Stop()) == frozenset()

    def test_free_names_output(self):
        assert free_names(Output(x, (Name("y1"), Name("y2")))) == {x, Name("y1"), Name("y2")}

    def test_free_names_input_binds(self):
        assert free_names(Input(x, (y,), Output(y, ()))) == {x}

    def test_free_names_new_binds(self):
        assert free_names(New(x, Output(x, (z,)))) == {z}

    def test_all_names(self):
        assert all_names(Stop()) == frozenset()
        assert all_names(New(x, Stop())) == {x}
        assert all_names(Input(x, (y,), Output(z, ()))) == {x, y, z}

    def test_fresh_name(self):
        assert fresh_name([]) == Name("n0")
        assert fresh_name([Name("n0")]) == Name("n1")
        assert fresh_name([Name("n0"), Name("n2")]) == Name("n1")

    @given(process_st())
    def test_free_subset_of_all(self, p):
        assert free_names(p) <= all_names(p)


class TestAlphaEq:
    def test_binder_rename(self):
        assert alpha_eq(Input(x, (y,), Output(y, ())), Input(x, (z,), Output(z, ())))

    def test_free_vs_bound_usage(self):
        assert not alpha_eq(Input(x, (y,), Output(y, ())), Input(x, (y,), Output(x, ())))

    def test_new_rename(self):
        assert alpha_eq(New(x, Output(x, ())), New(w, Output(w, ())))

    def test_free_names_must_agree(self):
        assert not alpha_eq(Output(x, ()), Output(y, ()))

    @given(process_st())
    def test_reflexive(self, p):
        assert alpha_eq(p, p)

    @given(process_st(), process_st())
    def test_symmetric(self, p, q):
        assert alpha_eq(p, q) == alpha_eq(q, p)

    @given(process_st())
    def test_transitive_through_variants(self, p):
        from conftest import rename_binders_apart

        q = rename_binders_apart(p, set(all_names(p)))
        r = rename_binders_apart(q, set(all_names(p)) | set(all_names(q)))
        assert alpha_eq(p, q) and alpha_eq(q, r) and alpha_eq(p, r)


class TestSubstitute:
    def test_output_subject(self):
        assert substitute(Output(y, ()), {y: u}) == Output(u, ())

    def test_capture_avoided(self):
        # replacing y by u under a binder u must rename the binder
        p = New(u, Output(y, (u,)))
        got = substitute(p, {y: u})
        assert isinstance(got, New)
        assert got.binder != u
        assert got.body == Output(u, (got.binder,))
        assert alpha_eq(got, New(Name("n0"), Output(u, (Name("n0"),))))

    def test_stop_noop(self):
        assert substitute(Stop(), {y: u}) == Stop()

    def test_non_free_entry_ignored(self):
        p = Input(x, (y,), Output(y, ()))
        assert substitute(p, {y: z}) == p

    def test_identity_map(self):
        p = parse("x?(y) => y!(z) | z!(x)")
        assert alpha_eq(substitute(p, {n: n for n in free_names(p)}), p)

    @settings(max_examples=300)
    @given(process_st(), process_st())
    def test_against_rename_apart_oracle(self, p, _):
        fn = sorted(free_names(p))
        if not fn:
            return
        mapping = {fn[i]: POOL[(i * 2 + 1) % len(POOL)] for i in range(0, len(fn), 2)}
        assert alpha_eq(substitute(p, mapping), substitution_oracle(p, mapping))

    @given(process_st())
    def test_free_names_bound(self, p):
        fn = sorted(free_names(p))
        if not fn:
            return
        yname, zname = fn[0], Name("zz")
        got = free_names(substitute(p, {yname: zname}))
        assert got <= (free_names(p) - {yname}) | {zname}


class TestJson:
    def test_round_trip(self):
        for p in enumerate_all_terms(3):
            assert from_json(to_json(p)) == p
            assert loads(dumps(p)) == p

    def test_tags(self):
        d = to_json(parse("(new x)(x!(u) | x?(v) => 0)"))
        assert d["tag"] == "new"
        assert d["body"]["tag"] == "par"

    def test_hole_not_serializable(self):
        with pytest.raises(TypeError):
            to_json(Hole())


class TestInterning:
    """Each distinct term is one object; checked against serialisation, not identity code."""

    @given(process_st())
    def test_round_trips_return_the_same_object(self, p):
        assert from_json(to_json(p)) is p
        assert parse(pretty(p)) is p

    @given(process_st(max_leaves=3), process_st(max_leaves=3))
    def test_identical_iff_same_json(self, p, q):
        assert (p is q) == (to_json(p) == to_json(q))

    def test_dropped_term_leaves_the_table(self):
        p = Par(Output(Name("probe_a"), (Name("probe_b"),)), Stop())
        alive = weakref.ref(p)
        assert ("Name", "probe_a") in _TABLE
        del p
        gc.collect()
        assert alive() is None
        assert ("Name", "probe_a") not in _TABLE and ("Name", "probe_b") not in _TABLE

    def test_hash_is_the_same_in_fresh_interpreters(self):
        text = "(new x)(x!(a) | a?(y, z) => y!(x, z)) | b?() => 0"
        src = str(Path(pitwo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = [
            subprocess.run(
                [sys.executable, "-c",
                 # the second interpreter allocates other terms first
                 f"{prelude}from pitwo.syntax import parse; print(hash(parse({text!r})))"],
                check=True, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="7"),
            ).stdout
            for prelude in ("", "import pitwo.harness as h; h.enumerate_all_terms(2); ")
        ]
        assert outs[0] == outs[1] and outs[0].strip().lstrip("-").isdigit()

    def test_validation_runs_on_new_fields(self):
        alive = [Input(x, (y, z), Stop()), Name("ok")]
        with pytest.raises(ValueError):
            Input(x, (y, y), Stop())
        for bad in ("new", "1ok", "o-k", ""):
            with pytest.raises(ValueError):
                Name(bad)
        assert alive == [Input(x, (y, z), Stop()), Name("ok")]

    def test_fields_are_read_only(self):
        p = parse("x?(y) => y!()")
        for field, value in (("subject", y), ("params", ()), ("body", Stop()), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(p, field, value)
        with pytest.raises(AttributeError):
            del p.body
        with pytest.raises(AttributeError):
            x.id = "q"
        assert pretty(p) == "x?(y) => y!()" and x.id == "x"

    def test_repr_names_the_fields(self):
        assert repr(Input(x, (y,), Par(Stop(), Hole()))) == (
            "Input(subject=Name(id='x'), params=(Name(id='y'),), body=Par(left=Stop(), right=Hole()))"
        )

    def test_names_order_by_identifier(self):
        assert sorted([y, a, x, b]) == [a, b, x, y]
        assert a < b <= b and y > x >= x
