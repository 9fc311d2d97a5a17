import functools
import gc
import itertools
import os
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import pitwo

from conftest import HOLE_IN_BODY, bodies, is_normal, naive_isomorphic, process_st, rename_restrictions
from pitwo import diagram as dg
from pitwo.diagram import (
    Diagram,
    DiagramError,
    HomT,
    InterfaceError,
    N,
    P,
    apply_ev,
    compose,
    curry,
    empty,
    equal,
    generator,
    identity,
    normalize,
    permutation,
    signature,
    tensor,
)
from pitwo.rewrite import (
    apply_comm,
    apply_concurrent,
    comm_step,
    concurrent_step,
    find_diagram_redexes,
    strip_permits,
)
from pitwo.syntax import Name, New, Par, free_names, parse
from pitwo.translate import (
    TopDiagram,
    plug_diagram,
    top_equal,
    translate,
    translate_context,
    translate_top,
)


def closed_proc(label: str) -> Diagram:
    """A distinguishable closed process diagram: send on a name constant."""
    return compose(generator("name", label=label), generator("send", arity=0))


class TestCompose:
    def test_identity_unit(self):
        f = closed_proc("x")
        assert equal(compose(f, identity([P])), f)

    def test_name_then_discard_is_scalar(self):
        d = compose(generator("name", label="x"), generator("discard"))
        assert d.dom == [] and d.cod == []
        assert equal(d, empty())

    def test_stops_tensor_par(self):
        d = compose(tensor(generator("stop"), generator("stop")), generator("par", arity=2))
        assert equal(d, translate(parse("0 | 0")))

    def test_interface_mismatch(self):
        with pytest.raises(InterfaceError):
            compose(generator("stop"), generator("discard"))

    def test_associative(self):
        f = generator("name", label="x")
        g = generator("copy", arity=2)
        h = tensor(generator("discard"), identity([N]))
        assert equal(compose(compose(f, g), h), compose(f, compose(g, h)))


class TestTensor:
    def test_empty_unit(self):
        assert equal(tensor(empty(), empty()), empty())
        f = closed_proc("x")
        assert equal(tensor(f, empty()), f)
        assert equal(tensor(empty(), f), f)

    def test_interfaces_concatenate(self):
        f = generator("discard")      # N -> I
        g = generator("stop")         # I -> P
        t = tensor(f, g)
        assert t.dom == [N] and t.cod == [P]

    def test_symmetry_naturality(self):
        f = generator("name", label="x")   # I -> N
        g = generator("stop")              # I -> P
        lhs = compose(tensor(f, g), permutation([N, P], [1, 0]))
        rhs = tensor(g, f)
        assert equal(lhs, rhs)


class TestCurryAndApply:
    def test_curry_constant(self):
        box = curry(0, translate(parse("0")))
        assert box.dom == [] and box.cod == [HomT(0)]

    def test_curry_rejects_bad_body(self):
        with pytest.raises(InterfaceError):
            curry(0, generator("discard"))

    def test_beta_with_argument(self):
        body = translate(parse("y!()"))          # N -> P, port is y
        thunk = curry(1, body)
        arg = generator("name", label="u")
        applied = apply_ev(thunk, arg)
        expected = compose(generator("name", label="u"), translate(parse("u!()")))
        assert equal(applied, expected)

    def test_beta_zero_arity(self):
        applied = apply_ev(curry(0, translate(parse("0"))), empty())
        assert equal(applied, translate(parse("0")))

    def test_apply_stuck_on_open_continuation(self):
        stuck = apply_ev(identity([HomT(1)]), generator("name", label="u"))
        n = normalize(stuck)
        assert any(node.kind == "apply" for node in n.nodes.values())

    def test_captured_names_enter_the_box(self):
        body = translate(parse("z!(y)"))   # dom ports: y, z sorted
        thunk = curry(1, body)             # param y designated, z captured
        assert thunk.dom == [N] and thunk.cod == [HomT(1)]
        got = apply_ev(thunk, generator("name", label="u"))  # leaves z open
        assert got.dom == [N] and got.cod == [P]
        # feed u into the translation of the expected result; z stays open
        expected = compose(
            tensor(generator("name", label="u"), identity([N])),
            translate(parse("z!(u)")),
        )
        assert equal(got, expected)


def par_tree(leaves, shape):
    """Compose three P-producers through a given binary par tree shape."""
    l0, l1, l2 = leaves
    d = Diagram()
    outs = []
    for leaf in leaves:
        nid = d.add("name", label=leaf)
        sid = d.add("send", arity=0)
        d.connect(("out", nid, 0), ("in", sid, 0))
        outs.append(("out", sid, 0))
    if shape == "left":
        p1 = d.add("par", arity=2)
        d.connect(outs[0], ("in", p1, 0))
        d.connect(outs[1], ("in", p1, 1))
        p2 = d.add("par", arity=2)
        d.connect(("out", p1, 0), ("in", p2, 0))
        d.connect(outs[2], ("in", p2, 1))
        top = p2
    else:
        p1 = d.add("par", arity=2)
        d.connect(outs[1], ("in", p1, 0))
        d.connect(outs[2], ("in", p1, 1))
        p2 = d.add("par", arity=2)
        d.connect(outs[0], ("in", p2, 0))
        d.connect(("out", p1, 0), ("in", p2, 1))
        top = p2
    d.connect(("out", top, 0), d.add_cod(P))
    return d


class TestNormalize:
    def test_par_reassociation(self):
        left = par_tree(["a", "b", "c"], "left")
        right = par_tree(["a", "b", "c"], "right")
        assert equal(left, right)

    def test_par_commutation_all_orders(self):
        trees = [par_tree(list(perm), "left") for perm in itertools.permutations("abc")]
        for t in trees[1:]:
            assert equal(trees[0], t)

    def test_unit_insertion(self):
        with_unit = compose(
            tensor(closed_proc("a"), generator("stop")), generator("par", arity=2)
        )
        assert equal(with_unit, closed_proc("a"))

    def test_copy_counit_collapse(self):
        # fan out a name, discard one branch: same as the direct wire
        d = Diagram()
        nc = d.add("copy", arity=2)
        dd = d.add("discard")
        d.connect(d.add_dom(N), ("in", nc, 0))
        d.connect(("out", nc, 0), ("in", dd, 0))
        d.connect(("out", nc, 1), d.add_cod(N))
        assert equal(d, identity([N]))

    def test_copy_fan_flattening(self):
        # (copy ; copy on left leg) == (copy ; copy on right leg) == copy3
        def nested(first_left: bool) -> Diagram:
            d = Diagram()
            c1 = d.add("copy", arity=2)
            c2 = d.add("copy", arity=2)
            d.connect(d.add_dom(N), ("in", c1, 0))
            legs = [("out", c1, 0), ("out", c1, 1)]
            inner, direct = (legs[0], legs[1]) if first_left else (legs[1], legs[0])
            d.connect(inner, ("in", c2, 0))
            d.connect(direct, d.add_cod(N))
            d.connect(("out", c2, 0), d.add_cod(N))
            d.connect(("out", c2, 1), d.add_cod(N))
            return d

        flat = generator("copy", arity=3)
        # codomain orderings differ, but copy legs are unordered: compare via
        # normal form signature after routing all legs into discards
        def seal(d: Diagram) -> Diagram:
            return compose(d, tensor(tensor(generator("discard"), generator("discard")),
                                     generator("discard")))

        assert equal(seal(nested(True)), seal(nested(False)))
        assert equal(seal(nested(True)), seal(flat))

    def test_scalar_gc_flag(self):
        scalar = compose(generator("name", label="x"), generator("discard"))
        d = tensor(scalar, closed_proc("a"))
        assert equal(d, closed_proc("a"))

    def test_fresh_scalar_gc(self):
        scalar = compose(generator("fresh"), generator("discard"))
        assert equal(tensor(scalar, closed_proc("a")), closed_proc("a"))

    @settings(max_examples=80, deadline=None)
    @given(process_st(max_leaves=5))
    def test_idempotent(self, p):
        d = translate(p)
        n1 = normalize(d)
        n2 = normalize(n1)
        assert signature(n1) == signature(n2)
        assert equal(n1, n2)

    @pytest.mark.parametrize("kind", ["par", "copy"])
    def test_deep_binary_chain_flattens_to_one_node(self, kind):
        # 2000 binary nodes, each nested on the first port of the next
        depth, wire = 2000, (P if kind == "par" else N)
        d = Diagram()
        prev = d.add_dom(wire)
        for _ in range(depth):
            nid = d.add(kind, arity=2)
            d.connect(prev, ("in", nid, 0))
            if kind == "par":
                d.connect(d.add_dom(P), ("in", nid, 1))
            else:
                d.connect(("out", nid, 1), d.add_cod(N))
            prev = ("out", nid, 0)
        d.connect(prev, d.add_cod(wire))
        d.validate()
        t0 = time.perf_counter()
        n = normalize(d)
        assert time.perf_counter() - t0 < 1.0
        assert len(d.nodes) == depth  # the argument is left as it was
        (nid, node), = n.nodes.items()
        assert (node.kind, node.arity) == (kind, depth + 1)
        # leaves keep their left-to-right order
        if kind == "par":
            leaves = [n.producer(("in", nid, k)) for k in range(depth + 1)]
            assert leaves == [("dom", k) for k in range(depth + 1)]
        else:
            leaves = [n.consumer(("out", nid, k)) for k in range(depth + 1)]
            assert leaves == [("cod", depth - k) for k in range(depth + 1)]


class TestEqual:
    def test_reflexive(self):
        d = translate(parse("x?(y) => y!() | x!(u)"))
        assert equal(d, d)

    def test_par_commutes_through_translation(self):
        assert equal(translate(parse("a!() | b!()")), translate(parse("b!() | a!()")))

    def test_distinct_name_constants_differ(self):
        assert not equal(closed_proc("x"), closed_proc("y"))

    def test_interface_distinguishes(self):
        assert not equal(generator("stop"), closed_proc("x"))
        assert not equal(identity([N]), identity([P]))

    def test_automorphic_components(self):
        d1 = translate(parse("a!() | a!()"))
        d2 = translate(parse("a!() | a!()"))
        assert equal(d1, d2)
        assert not equal(d1, translate(parse("a!()")))

    @settings(max_examples=60, deadline=None)
    @given(process_st(max_leaves=4), process_st(max_leaves=4))
    def test_symmetric(self, p, q):
        assert equal(translate(p), translate(q)) == equal(translate(q), translate(p))


# Terms with a stop in a par tree at every level, two deep, which translation drops.
NESTED = "a?(x) => (x!() | 0 | b?() => (x!() | 0)) | 0"
BODY = "x!() | 0 | b?() => (x!() | 0)"
# Two redexes on distinct subjects, whose reducts splice bodies with thunks in them.
TWO_REDEXES = "a?(x) => (x!() | b?() => x!()) | a!(c) | d?() => (b!() | c?() => 0) | d!()"


def _open(src: str) -> Diagram:
    return translate(parse(src))


def _stopped(src: str) -> Diagram:
    """src's diagram beside a stop, joined by a second par: built by the combinators, not normal."""
    return compose(tensor(_open(src), generator("stop")), generator("par", arity=2))


def _top(catalysts: int = 1):
    return translate_top(parse(TWO_REDEXES), catalysts)


def _hole_in_body():
    # HOLE_IN_BODY's hole, two thunks deep, for BODY's free names b, x
    return translate_context(HOLE_IN_BODY, (Name("b"), Name("x")))


# name -> (a function building fresh inputs, the call made on them)
ALIASING_CALLS = {
    "normalize": (lambda: (_stopped(NESTED),), normalize),
    "equal": (lambda: (_stopped(NESTED), _stopped(BODY)), equal),
    "compose": (lambda: (tensor(generator("name", label="u"), generator("name", label="v")),
                         _stopped(NESTED)),
                lambda f, g: normalize(compose(f, g))),
    "tensor": (lambda: (_stopped(NESTED), _stopped(BODY)), lambda f, g: normalize(tensor(f, g))),
    "curry": (lambda: (_stopped(BODY),), lambda body: normalize(curry(1, body))),
    "generator": (lambda: (_stopped(BODY),), lambda body: generator("thunk", arity=1, cap=1, inner=body)),
    "plug_diagram": (lambda: (_hole_in_body(), _open(BODY)), plug_diagram),
    "apply_ev": (lambda: (curry(1, _stopped(BODY)), generator("name", label="u")),
                 lambda thunk, arg: normalize(apply_ev(thunk, arg))),
    "apply_comm": (lambda: (_top(),), lambda td: apply_comm(td, find_diagram_redexes(td)[0])),
    "comm_step": (lambda: (_top(),), comm_step),
    "strip_permits": (lambda: (_top(),), strip_permits),
    "apply_concurrent": (lambda: (_top(2),), lambda td: apply_concurrent(td, concurrent_step(td)[0])),
}


def _image(x) -> tuple[str, str]:
    d = getattr(x, "diagram", x)
    return dg.dumps(d), signature(d)


class TestAliasing:
    """Copies share nodes and thunk bodies, so no operation may change a diagram it is given."""

    @pytest.mark.parametrize("name", sorted(ALIASING_CALLS))
    def test_inputs_unchanged(self, name):
        make, call = ALIASING_CALLS[name]
        inputs = make()
        expected = [_image(x) for x in make()]
        call(*inputs)
        assert [_image(x) for x in inputs] == expected

    def test_normalize_changes_the_outer_diagram(self):
        # the inputs above are only a check if normalize has work to do on them
        d = _stopped(NESTED)
        assert dg.dumps(normalize(d)) != dg.dumps(d)

    def test_two_concurrent_redexes(self):
        assert len(concurrent_step(_top(2))[0]) == 2

    def test_copy_shares_bodies(self):
        d = _open(NESTED)
        c = d.copy()
        assert all(c.nodes[nid].inner is node.inner for nid, node in d.nodes.items())
        assert c.nodes is not d.nodes and c._dst is not d._dst and c.dom is not d.dom

    def test_nodes_are_immutable(self):
        node = generator("stop").nodes[0]
        with pytest.raises(AttributeError):
            node.kind = "comm"


# name -> a function building diagrams whose thunk bodies must all be normal
BOXING_CALLS = {
    "translate": lambda: [_open(NESTED)],
    "translate_top": lambda: [translate_top(parse(NESTED)).diagram],
    "curry": lambda: [curry(1, _stopped(BODY))],
    "generator": lambda: [generator("thunk", arity=1, cap=1, inner=_stopped(BODY))],
    "plug_diagram": lambda: [plug_diagram(_hole_in_body(), _open(BODY))],
    "comm_step": lambda: [td.diagram for td in comm_step(_top())],
}


class TestNormalBodies:
    """A thunk body is boxed in normal form, so normalize never has to descend into it."""

    @pytest.mark.parametrize("name", sorted(BOXING_CALLS))
    def test_every_body_is_normal(self, name):
        found = [b for d in BOXING_CALLS[name]() for b in bodies(d)]
        assert found and all(is_normal(b) for b in found)

    def test_raw_bodies_are_not_normal(self):
        # curry and generator above are only a check if what they box is not normal
        assert not is_normal(_stopped(BODY))


class TestValidation:
    def test_type_mismatch_rejected(self):
        d = Diagram()
        s = d.add("stop")
        dd = d.add("discard")
        with pytest.raises(InterfaceError):
            d.connect(("out", s, 0), ("in", dd, 0))

    def test_double_wiring_rejected(self):
        d = Diagram()
        c = d.add("copy", arity=2)
        d.connect(d.add_dom(N), ("in", c, 0))
        with pytest.raises(DiagramError):
            d.connect(d.add_dom(N), ("in", c, 0))

    def test_unwired_port_caught(self):
        d = Diagram()
        d.add("stop")
        with pytest.raises(DiagramError):
            d.validate()

    def test_par_feeding_itself_is_a_cycle(self):
        d = Diagram()
        p = d.add("par", arity=2)
        d.connect(("out", p, 0), ("in", p, 0))
        d.connect(("out", d.add("stop"), 0), ("in", p, 1))
        with pytest.raises(DiagramError, match=f"cycle through node {p}"):
            d.validate()

    def test_two_node_cycle(self):
        d = Diagram()
        a, b = d.add("par", arity=2), d.add("par", arity=2)
        d.connect(("out", a, 0), ("in", b, 0))
        d.connect(("out", b, 0), ("in", a, 0))
        for n in (a, b):
            d.connect(("out", d.add("stop"), 0), ("in", n, 1))
        with pytest.raises(DiagramError, match="cycle through node [01]$"):
            d.validate()

    @settings(max_examples=100, deadline=None)
    @given(process_st(max_leaves=5))
    def test_translation_is_well_typed(self, p):
        d = translate(p)
        d.validate()
        normalize(d).validate()


class TestExport:
    def test_json_shape(self):
        data = dg.to_json(translate(parse("x?(y) => y!() | x!(u)")))
        assert set(data) == {"dom", "cod", "nodes", "wires"}
        kinds = {n["kind"] for n in data["nodes"]}
        assert "recv" in kinds and "send" in kinds
        assert any("inner" in n for n in data["nodes"])

    def test_dot_mentions_generators(self):
        dot = dg.to_dot(normalize(translate(parse("x!(u) | 0"))))
        assert dot.startswith("digraph")
        assert "!1" in dot and '"N"' in dot and '"P"' in dot

    def test_stable_ids(self):
        d = normalize(translate(parse("a!() | b!(a)")))
        assert dg.to_json(d) == dg.to_json(d.copy())


def relabel(d: Diagram, rng, ports: bool = False) -> Diagram:
    """A copy of d whose nodes (also inside thunks) are added in a shuffled order.

    With ``ports``, each par's inputs and each copy's outputs are also wired
    in a shuffled order, so the copy no longer pairs port k with port k.
    """
    order = sorted(d.nodes)
    rng.shuffle(order)
    out = Diagram()
    ids, perms = {}, {}
    for nid in order:
        node = d.nodes[nid]
        inner = relabel(node.inner, rng, ports) if node.inner is not None else None
        ids[nid] = out.add(node.kind, node.arity, node.cap, node.label, inner)
        perms[nid] = rng.sample(range(node.arity), node.arity) if ports else range(node.arity)
    for t in d.dom:
        out.add_dom(t)
    for t in d.cod:
        out.add_cod(t)

    def move(port):
        if port[0] in ("dom", "cod"):
            return port
        side, nid, k = port
        if (d.nodes[nid].kind, side) in dg._UNORDERED:
            k = perms[nid][k]
        return (side, ids[nid], k)

    for src, dst in d.wires():
        out.connect(move(src), move(dst))
    return out


def cycles(*lengths: int) -> str:
    """Private names x0, x1, ..., each sent on the one before it, in cycles of these lengths."""
    parts, k = [], 0
    for n in lengths:
        parts += [f"x{k + i}!(x{k + (i + 1) % n})" for i in range(n)]
        k += n
    return "".join(f"(new x{i})" for i in range(k)) + "(" + " | ".join(parts) + ")"


# Top diagrams whose stable colouring has ties; in the 2-cycle plus 3-cycle,
# the tied cell of private names is not one orbit.
TIED_TERMS = [
    "x?() => x?() => 0 | x!() | x!()",
    cycles(5),
    cycles(2, 3),
    " | ".join(["a!(b)"] * 6),
]

# Small tied shapes for the naive oracle, which is exponential in a colour class.
TIED_SHAPES = [
    "x?() => x?() => 0 | x!() | x!()",
    cycles(3),
    cycles(1, 2),
    cycles(1, 1, 1),
    "a!(b) | a!(b) | a!(b)",
    "a!(b) | a!(b) | b!(a)",
    "a?(x) => x!() | a?(x) => x!() | a!(b)",
]

HASH_SEED_TERMS = [
    "x?(y) => y!() | x!(u)",
    "(new r)(r!(a) | r?(v) => v!(b) | a?() => b!())",
    "a!(b) | a!(b) | b?(x, y) => (new z) x!(z, y)",
]


class TestColoring:
    @settings(max_examples=80, deadline=None)
    @given(process_st(max_leaves=5), st.randoms(use_true_random=False))
    def test_relabelling_keeps_signature_and_equality(self, p, rng):
        d = translate(p)
        tied = [translate_top(parse(t)).diagram for t in TIED_TERMS]
        assert all(len(set(dg._coloring(x)[1].values())) < len(x.nodes) for x in tied)
        for x in (d, normalize(d), *tied):
            y = relabel(x, rng)
            assert signature(y) == signature(x)
            assert equal(y, x)

    def test_a_boxed_body_keeps_the_cached_signature_valid(self):
        d = translate(parse("a?(x) => (0 | x!())"))
        sig = signature(d)  # the body was boxed in normal form, so normalize changes nothing
        assert signature(normalize(d)) == sig == signature(translate(parse("a?(x) => x!()")))

    def test_a_top_diagram_is_signed_once(self, monkeypatch):
        signed = []

        def counted(d):
            signed.append(d)
            return signature(d)

        td = translate_top(parse("a!(b) | b!(a)"))  # no thunk body to sign
        for mod in (dg, sys.modules["pitwo.translate"]):  # pitwo.translate is also a function
            monkeypatch.setattr(mod, "signature", counted)
        # the key hashes a top diagram, and a diagram is equal to itself
        hash(td)
        hash(td)
        assert top_equal(td, td)
        assert signed == []
        assert td.sig == td.sig
        assert signed == [td.diagram]
        assert td.sig == signature(td.diagram)

    def test_a_body_signature_is_dropped_with_its_body(self):
        d = translate(parse("probe?(x) => x!(probe)"))
        (body,) = [node.inner for node in d.nodes.values() if node.inner is not None]
        signature(d)
        assert dg._BODY_SIGNATURES[body] == signature(body)
        alive, entries = weakref.ref(body), len(dg._BODY_SIGNATURES)
        del d, body
        gc.collect()
        assert alive() is None
        assert len(dg._BODY_SIGNATURES) < entries

    def test_the_signature_follows_each_mutation(self):
        d = translate(parse("a!()"))
        sigs = [signature(d)]
        src = d.add_dom(N)
        sigs.append(signature(d))
        dst = d.add_cod(N)
        sigs.append(signature(d))
        d.connect(src, dst)
        sigs.append(signature(d))
        assert signature(d) == signature(relabel(d, random.Random(0)))
        d.disconnect(dst)
        sigs.append(signature(d))
        assert len(set(sigs[:4])) == 4
        assert sigs[4] == sigs[2]
        nid = d.add("send", arity=0)
        d.connect(src, ("in", nid, 0))
        d.connect(("out", nid, 0), d.add_cod(P))
        assert signature(d) not in sigs
        assert signature(d) == signature(d.copy()) == signature(relabel(d, random.Random(1)))

    def test_signature_and_export_ignore_the_hash_seed(self):
        code = (
            "from pitwo.diagram import dumps, signature\n"
            "from pitwo.syntax import parse\n"
            "from pitwo.translate import translate_top\n"
            f"for text in {HASH_SEED_TERMS!r}:\n"
            "    d = translate_top(parse(text)).diagram\n"
            "    print(signature(d))\n"
            "    print(dumps(d))\n"
        )
        src = str(Path(pitwo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = [
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "4242")
        ]
        assert outs[0] == outs[1]
        assert outs[0].count("\n") > len(HASH_SEED_TERMS)
        # the same run-stable values as this interpreter computes
        first = translate_top(parse(HASH_SEED_TERMS[0])).diagram
        assert outs[0].startswith(signature(first) + "\n" + dg.dumps(first))


def tied_pool(p, q, shapes: list[str], seed: int) -> list[Diagram]:
    """Diagrams of p, q, tied shapes and their rewrites, with relabelled and alpha-renamed copies."""
    tops = [translate_top(t) for t in (p, q, Par(p, p), *map(parse, shapes))]
    pool = [normalize(translate(p)), normalize(translate(q))]
    pool += [td.diagram for td in tops]
    pool += [apply_comm(td, r).diagram for td in tops[:3] for r in find_diagram_redexes(td)]
    rng = random.Random(seed)
    # alpha-variants whose thunks capture their names in another order:
    # with every free name restricted, each captured name is renamed
    for t in (p, q):
        closed = functools.reduce(lambda body, x: New(x, body), sorted(free_names(t)), t)
        pool += [translate_top(u).diagram for u in (closed, rename_restrictions(closed, rng))]
    # every other copy permutes par inputs and copy outputs, which the witness misses
    pool += [relabel(x, rng, ports=i % 2 == 1) for i, x in enumerate(pool)]
    return pool


# Pairs of terms whose thunks take their captured wires in different orders,
# and whether the diagrams are isomorphic up to the exchange law.
EXCHANGE_PAIRS = [
    ("(new p)(new q)(new r)(a?() => (p!(q) | q!(r) | r!(p)))",
     "(new p)(new r)(new q)(a?() => (p!(r) | r!(q) | q!(p)))", True),
    ("(new x)(new y)(y?() => x?(x) => (y!() | u!()))",
     "(new m86)(new c60)(c60?() => m86?(x) => (c60!() | u!()))", True),
    ("a?() => (p!(q) | q!(r) | r!(p))", "a?() => (p!(r) | r!(q) | q!(p))", False),
]


class TestCanonicalLabelling:
    @settings(max_examples=60, deadline=None)
    @given(process_st(max_leaves=4), process_st(max_leaves=4),
           st.lists(st.sampled_from(TIED_SHAPES), min_size=2, max_size=2),
           st.integers(0, 2**32))
    def test_signature_equality_is_naive_isomorphism(self, p, q, shapes, seed):
        pool = tied_pool(p, q, shapes, seed)
        sigs = [signature(x) for x in pool]
        for x, sx in zip(pool, sigs):
            for y, sy in zip(pool, sigs):
                same = naive_isomorphic(x, y)
                assert (sx == sy) == same
                assert dg.isomorphic(x, y) == same
                assert same or not dg._witness(x, y)

    @pytest.mark.parametrize("left, right, same", EXCHANGE_PAIRS)
    def test_oracle_permutes_captured_wires(self, left, right, same):
        # the translation captures names in name order, so each pair's thunks
        # take their captured wires in different orders
        x, y = (translate_top(parse(t)).diagram for t in (left, right))
        assert naive_isomorphic(x, y) == same
        # no port-for-port witness: signatures decide
        assert not dg._witness(x, y)
        assert dg.isomorphic(x, y) == same

    @pytest.mark.parametrize("left, right", [
        ("a!(b) | b!(a)", "a!(a) | b!(b)"),  # equal node multisets, wired differently
        ("a?(x) => x!()", "a?(x) => x!(x)"),  # equal thunk nodes whose bodies differ
    ])
    def test_equal_nodes_are_not_enough(self, left, right):
        x, y = (translate_top(parse(t)).diagram for t in (left, right))
        assert not dg._witness(x, y)
        assert not dg.isomorphic(x, y) and not naive_isomorphic(x, y)

    def test_swapped_par_inputs_miss_the_witness(self):
        x = translate_top(parse("a!() | b!() | c?() => 0")).diagram
        (par,) = [nid for nid, node in x.nodes.items() if node.kind == "par"]
        y = x.copy()
        prods = [y.disconnect(("in", par, k)) for k in range(3)]
        for k, src in enumerate(prods[::-1]):
            y.connect(src, ("in", par, k))
        assert dg._witness(x, x.copy()) and dg._witness(x, relabel(x, random.Random(0)))
        assert not dg._witness(x, y)
        assert dg.isomorphic(x, y)

    def test_a_component_off_the_interface_is_never_witnessed(self):
        x = translate_top(parse("a!(b) | b?(y) => y!()")).diagram
        named = tensor(x, compose(generator("name", label="c"), generator("discard")))
        fresh = tensor(x, compose(generator("fresh"), generator("discard")))
        assert not dg._witness(named, fresh) and not dg._witness(named, named.copy())
        assert not dg.isomorphic(named, fresh)
        assert dg.isomorphic(named, named.copy())

    def test_the_witness_walks_out_ports(self):
        # not normal: the discard is reached only from its copy's output
        d = compose(generator("copy", arity=2), tensor(generator("discard"), identity([N])))
        assert dg._witness(d, relabel(d, random.Random(0)))

    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    def test_cycle_probe_answers_quickly(self, n):
        whole, split = translate_top(parse(cycles(n))), translate_top(parse(cycles(2, n - 2)))
        t0 = time.perf_counter()
        assert not top_equal(whole, split)
        assert time.perf_counter() - t0 < 1.0
        for seed in range(4):
            for td in (whole, split):
                assert signature(td.diagram) == signature(relabel(td.diagram, random.Random(seed)))

    @pytest.mark.parametrize("part", ["a!(b)", "a?(x) => x!()"])
    def test_signature_of_parallel_copies_is_quick(self, part):
        d = translate_top(parse(" | ".join([part] * 12))).diagram
        t0 = time.perf_counter()
        signature(d)
        assert time.perf_counter() - t0 < 1.0
        assert signature(d) == signature(relabel(d, random.Random(0)))


def assert_key_contract(pool: list[Diagram]) -> None:
    """On every pair: equal signatures imply equal keys and hashes; top_equal is sig equality."""
    tops = [TopDiagram(x, ()) for x in pool]
    for x, a in zip(pool, tops):
        for y, b in zip(pool, tops):
            same = a.sig == b.sig
            # fresh forms, not yet signed, so the key and the witness decide first
            assert top_equal(TopDiagram(x, ()), TopDiagram(y, ())) == same
            assert not same or (a.key == b.key and hash(a) == hash(b))


# A term whose thunk captures a name, and one left open over its free names.
KEY_HASH_TERMS = [("a?(x) => x!(b) | b?() => (a!() | c!(a))", True),
                  ("a?(x) => x!(b) | c!()", False)]


class TestTopKey:
    """A top diagram hashes its key and signs only when a key collision is not witnessed."""

    @settings(max_examples=40, deadline=None)
    @given(process_st(max_leaves=4), process_st(max_leaves=4),
           st.lists(st.sampled_from(TIED_SHAPES), min_size=2, max_size=2),
           st.integers(0, 2**32))
    def test_key_agrees_with_signature_on_tied_pools(self, p, q, shapes, seed):
        assert_key_contract(tied_pool(p, q, shapes, seed))

    def test_key_agrees_with_signature_on_tied_terms(self):
        pool = [translate_top(parse(t)).diagram for t in TIED_TERMS]
        rng = random.Random(0)
        pool += [relabel(x, rng, ports=ports) for x in pool for ports in (False, True)]
        assert_key_contract(pool)

    @pytest.mark.parametrize("left, right, same", EXCHANGE_PAIRS)
    def test_key_forgets_the_capture_order(self, left, right, same):
        x, y = (translate_top(parse(t)).diagram for t in (left, right))
        assert_key_contract([x, y, relabel(y, random.Random(0), ports=True)])
        assert top_equal(TopDiagram(x, ()), TopDiagram(y, ())) == same

    def test_a_shared_key_costs_one_walk_per_diagram(self, monkeypatch):
        # each permutation sends on every name once and sends every name once:
        # six diagrams, pairwise distinct, with one key
        tops = [translate_top(parse(" | ".join(f"{x}!({y})" for x, y in zip("abc", perm))))
                for perm in itertools.permutations("abc")]
        walks, witness = [], dg._witness
        monkeypatch.setattr(sys.modules["pitwo.translate"], "_witness",
                            lambda a, b: walks.append(a) or witness(a, b))
        assert len(set(tops)) == 6
        assert len({td.key for td in tops}) == 1
        assert len(walks) < len(tops)

    def test_hash_ignores_the_hash_seed(self):
        code = (
            "from pitwo.syntax import parse\n"
            "from pitwo.translate import translate_top\n"
            f"for text, closed in {KEY_HASH_TERMS!r}:\n"
            "    print(hash(translate_top(parse(text), 1, closed)))\n"
        )
        src = str(Path(pitwo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = [
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("1", "2")
        ]
        here = [hash(translate_top(parse(text), 1, closed)) for text, closed in KEY_HASH_TERMS]
        assert outs[0] == outs[1] == "".join(f"{h}\n" for h in here)
