"""Shared strategies and independent oracle implementations for the tests.

The oracles here deliberately re-derive results through a different route
than the library code: canonical forms by renamed copies and every binder
order, naive inductive reduction, rename-apart substitution, a
greatest-fixpoint bisimulation over the full relation lattice, shared
reachability by a separate search per root, and diagram isomorphism by
backtracking over node mappings.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import reduce
from itertools import permutations
from typing import Iterator

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

settings.register_profile(
    "pitwo",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("pitwo")

from pitwo.bisim import barbs, reduction_union
from oracles import ClassBudgetError, _axiom_neighbors, alpha_key
from pitwo.congruence import _rebuild, canonical_form, term_size
from pitwo.diagram import _UNORDERED, Diagram, Node, _coloring, normalize
from pitwo.opsem import reduce_step
from pitwo.syntax import (
    Hole,
    Input,
    Name,
    New,
    Output,
    Par,
    Process,
    Stop,
    all_names,
    free_names,
    fresh_names,
    pretty,
    substitute,
)

POOL = tuple(Name(c) for c in "abxyu")


def name_st():
    return st.sampled_from(POOL)


def process_st(max_leaves: int = 6):
    base = st.one_of(
        st.just(Stop()),
        st.builds(
            lambda s, a: Output(s, tuple(a)),
            name_st(),
            st.lists(name_st(), max_size=2),
        ),
    )

    def extend(children):
        return st.one_of(
            st.builds(Par, children, children),
            st.builds(New, name_st(), children),
            st.builds(
                lambda s, ps, b: Input(s, tuple(ps), b),
                name_st(),
                st.lists(name_st(), max_size=2, unique=True),
                children,
            ),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def soup_st(max_pairs: int = 3):
    """Parallel sender/receiver pairs on two channels: every soup reduces, most in several ways."""
    pair = st.builds(lambda s, a, body: Par(Output(s, (a,)), Input(s, (Name("y"),), body)),
                     st.sampled_from(POOL[:2]), name_st(), process_st(max_leaves=3))
    return st.lists(pair, min_size=1, max_size=max_pairs).map(lambda ps: reduce(Par, ps))


def random_term(rng: random.Random, size: int, names=POOL) -> Process:
    """Deterministic raw term of the exact AST size (for stratified corpora)."""
    if size <= 1:
        if rng.random() < 0.3:
            return Stop()
        ar = rng.randint(0, 1)
        return Output(rng.choice(names), tuple(rng.choice(names) for _ in range(ar)))
    shape = rng.choice(["input", "new", "par"] if size >= 3 else ["input", "new"])
    if shape == "input":
        ar = rng.randint(0, 1)
        params = tuple({rng.choice(names)}) if ar else ()
        return Input(rng.choice(names), params, random_term(rng, size - 1, names))
    if shape == "new":
        return New(rng.choice(names), random_term(rng, size - 1, names))
    ls = rng.randint(1, size - 2)
    return Par(random_term(rng, ls, names), random_term(rng, size - 1 - ls, names))


def rename_restrictions(p: Process, rng: random.Random) -> Process:
    """An alpha-variant of p with each restriction binder renamed to a random unused name.

    The new names sort anywhere among p's names, so a thunk's captured names,
    which the translation orders by name, come in another order.
    """
    taken = {n.id for n in all_names(p)}

    def fresh() -> Name:
        while True:
            cand = rng.choice("abcmuvxyz") + str(rng.randrange(100))
            if cand not in taken:
                taken.add(cand)
                return Name(cand)

    def go(q: Process) -> Process:
        match q:
            case New(binder, body):
                nb = fresh()
                return New(nb, go(substitute(body, {binder: nb})))
            case Input(subject, params, body):
                return Input(subject, params, go(body))
            case Par(left, right):
                return Par(go(left), go(right))
        return q

    return go(p)


# ---------------------------------------------------------------------------
# Canonical-form oracle: rename every restriction of a scope level apart with
# substitute, then take the minimum skeleton over every order of its binders.
# It builds the same skeletons as the library (shared by _rebuild), but by
# brute force: exponential in the binders of one level, for small terms only.


class _Gensym:
    """Fresh, globally distinct placeholder names for renaming binders apart."""

    def __init__(self, taken: set[str]) -> None:
        self.taken = set(taken)
        self.i = 0

    def __call__(self) -> Name:
        while f"g{self.i}" in self.taken:
            self.i += 1
        name = Name(f"g{self.i}")
        self.taken.add(name.id)
        self.i += 1
        return name


def _naive_flatten(p: Process, gensym: _Gensym) -> tuple[list[Name], list[Process]]:
    match p:
        case Stop():
            return [], []
        case Output() | Input():
            return [], [p]
        case New(binder, body):
            g = gensym()
            binders, comps = _naive_flatten(substitute(body, {binder: g}), gensym)
            return [g] + binders, comps
        case Par(left, right):
            bl, cl = _naive_flatten(left, gensym)
            br, cr = _naive_flatten(right, gensym)
            return bl + br, cl + cr
    raise TypeError(f"not a process: {p!r}")


def _naive_ref(n: Name, env: dict[Name, int]) -> tuple:
    return ("b", env[n]) if n in env else ("f", n.id)


def _naive_component(c: Process, env: dict[Name, int], depth: int, gensym: _Gensym,
                     gc: bool) -> tuple:
    match c:
        case Output(subject, args):
            return ("out", _naive_ref(subject, env), tuple(_naive_ref(a, env) for a in args))
        case Input(subject, params, body):
            env2 = {**env, **{y: depth + i for i, y in enumerate(params)}}
            return ("in", _naive_ref(subject, env), len(params),
                    _naive_skeleton(body, env2, depth + len(params), gensym, gc))
    raise TypeError(f"not a component: {c!r}")


def _naive_skeleton(p: Process, env: dict[Name, int], depth: int, gensym: _Gensym,
                    gc: bool) -> tuple:
    binders, comps = _naive_flatten(p, gensym)
    used = [b for b in binders if any(b in free_names(c) for c in comps)]
    keep = used if gc or used else binders[:1]
    best: tuple | None = None
    for perm in permutations(keep):
        env2 = {**env, **{b: depth + i for i, b in enumerate(perm)}}
        skels = tuple(sorted(
            _naive_component(c, env2, depth + len(keep), gensym, gc) for c in comps))
        if not keep and len(skels) == 1:
            cand = skels[0]
        elif not keep and not skels:
            cand = ("stop",)
        else:
            cand = ("level", len(keep), skels)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def naive_canonical_form(p: Process, gc_vacuous: bool = False) -> Process:
    gensym = _Gensym({n.id for n in all_names(p)})
    return _rebuild(_naive_skeleton(p, {}, 0, gensym, gc_vacuous), [], fresh_names(free_names(p)))


# ---------------------------------------------------------------------------
# Independent reduction oracle: the four inference rules applied inductively.


def naive_raw_step(p: Process) -> list[Process]:
    """Successors by the axiom and the two structural context rules only."""
    out: list[Process] = []
    match p:
        case Par(Input(x, ys, body), Output(x2, zs)) if x == x2 and len(ys) == len(zs):
            out.append(substitute(body, dict(zip(ys, zs))))
    match p:
        case Par(left, right):
            out.extend(Par(l2, right) for l2 in naive_raw_step(left))
        case New(binder, body):
            out.extend(New(binder, b2) for b2 in naive_raw_step(body))
        case _:
            pass
    return out


# Members of a congruence class that a test may enumerate whole (an axiom
# closure gets four times as many keys): most drawn terms have classes of a
# few hundred members at most, but one found term has 31,812 (21 s to
# enumerate), and its closure 117,012 keys (84 s).
CLASS_BUDGET = 2000


def congruence_class_terms(p: Process, slack: int = 1, budget: int | None = None
                           ) -> Iterator[Process]:
    """One representative term per alpha-class reachable by axiom steps.

    Lazy and breadth-first, p first, so a caller that needs only the first
    few members (``itertools.islice``) does not build the whole class.
    Raises ``ClassBudgetError`` before yielding more than ``budget`` members.
    """
    cap = term_size(p) + slack
    seen = {alpha_key(p)}
    frontier = [p]
    yield p
    while frontier:
        nxt = []
        for t in frontier:
            for t2 in _axiom_neighbors(t):
                if term_size(t2) > cap:
                    continue
                k = alpha_key(t2)
                if k not in seen:
                    seen.add(k)
                    if budget is not None and len(seen) > budget:
                        raise ClassBudgetError(f"class over {budget} members")
                    nxt.append(t2)
                    yield t2
        frontier = nxt


def naive_reduce_step(p: Process, budget: int | None = None) -> frozenset[Process]:
    """Reduction closed under congruence on both sides, computed brute-force.

    Raises ``ClassBudgetError`` if p's class has more than ``budget`` members.
    """
    out = set()
    for variant in congruence_class_terms(p, budget=budget):
        for q in naive_raw_step(variant):
            out.add(canonical_form(q))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Substitution oracle: rename every binder apart, then replace textually.


def rename_binders_apart(p: Process, taken: set[Name]) -> Process:
    counter = [0]

    def gensym() -> Name:
        while True:
            cand = Name(f"r{counter[0]}")
            counter[0] += 1
            if cand not in taken:
                taken.add(cand)
                return cand

    def go(p: Process, ren: dict[Name, Name]) -> Process:
        match p:
            case Stop():
                return p
            case Output(s, args):
                return Output(ren.get(s, s), tuple(ren.get(a, a) for a in args))
            case Par(l, r):
                return Par(go(l, ren), go(r, ren))
            case New(b, body):
                nb = gensym()
                return New(nb, go(body, {**ren, b: nb}))
            case Input(s, params, body):
                nps = []
                ren2 = dict(ren)
                for y in params:
                    ny = gensym()
                    ren2[y] = ny
                    nps.append(ny)
                return Input(ren.get(s, s), tuple(nps), go(body, ren2))
        raise TypeError(p)

    return go(p, {})


def textual_replace(p: Process, mapping: dict[Name, Name]) -> Process:
    match p:
        case Stop():
            return p
        case Output(s, args):
            return Output(mapping.get(s, s), tuple(mapping.get(a, a) for a in args))
        case Par(l, r):
            return Par(textual_replace(l, mapping), textual_replace(r, mapping))
        case New(b, body):
            return New(mapping.get(b, b), textual_replace(body, mapping))
        case Input(s, params, body):
            return Input(
                mapping.get(s, s),
                tuple(mapping.get(y, y) for y in params),
                textual_replace(body, mapping),
            )
    raise TypeError(p)


def substitution_oracle(p: Process, mapping: dict[Name, Name]) -> Process:
    taken = set(all_names(p)) | set(mapping) | set(mapping.values())
    apart = rename_binders_apart(p, taken)
    return textual_replace(apart, mapping)


# ---------------------------------------------------------------------------
# Greatest-fixpoint bisimilarity over the full relation lattice, strong and weak.


def gfp_bisimilar(p: Process, q: Process, weak: bool = False) -> bool:
    """Bisimilarity as the largest relation that survives every check.

    Strong: each step is answered by one step.  Weak: each step is answered by
    any number of steps (zero included), and states are labelled by the barbs
    they can reach after any number of steps.
    """
    lts = reduction_union([p, q])
    rel = gfp_relation(lts.succ, [barbs(s) for s in lts.states], weak)
    return (lts.index[canonical_form(p)], lts.index[canonical_form(q)]) in rel


def gfp_relation(succ: list[list[int]], barb_sets: list, weak: bool = False) -> set[tuple[int, int]]:
    """The bisimilar state pairs of one LTS, given each state's successors and barbs."""
    n = len(succ)
    answers = succ
    labels = barb_sets
    if weak:
        # reflexive-transitive closure by iterating one-step extension to a fixpoint
        reach = [{i} for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                new = set(reach[i])
                for j in reach[i]:
                    new |= set(succ[j])
                if new != reach[i]:
                    reach[i] = new
                    changed = True
        answers = [sorted(r) for r in reach]
        labels = [frozenset(x for s2 in reach[s] for x in barb_sets[s2]) for s in range(n)]
    rel = {(i, j) for i in range(n) for j in range(n) if labels[i] == labels[j]}
    changed = True
    while changed:
        changed = False
        for i, j in sorted(rel):
            ok = all(any((a, b) in rel for b in answers[j]) for a in succ[i]) and all(
                any((a, b) in rel for a in answers[i]) for b in succ[j]
            )
            if not ok:
                rel.discard((i, j))
                changed = True
    return rel


# ---------------------------------------------------------------------------
# Shared reachability by one breadth-first search per root.


def per_root_union(ps: list[Process]) -> tuple[list[Process], list[list[int]]]:
    """States and sorted successor ids of the union of each root's own reachability graph.

    Every root gets a separate search that re-explores whatever an earlier
    root already reached, visits successors in ``pretty`` order and lists
    states in first-visit order.  The union numbers states by their first
    appearance in these lists, root by root.
    """
    states: list[Process] = []
    index: dict[Process, int] = {}
    edges: set[tuple[Process, Process]] = set()
    for p in ps:
        order = [canonical_form(p)]
        k = 0
        while k < len(order):
            for t in sorted(reduce_step(order[k]), key=pretty):
                edges.add((order[k], t))
                if t not in order:
                    order.append(t)
            k += 1
        for s in order:
            if s not in index:
                index[s] = len(states)
                states.append(s)
    succ: list[set[int]] = [set() for _ in states]
    for s, t in edges:
        succ[index[s]].add(index[t])
    return states, [sorted(ts) for ts in succ]


# ---------------------------------------------------------------------------
# Diagram isomorphism oracle: backtracking over node mappings within colour
# classes, checking the wires once a mapping is complete.  A thunk with two or
# more captured inputs matches its partner under every permutation of those
# inputs that makes the bodies isomorphic (the exchange law).  It shares only
# the stable colouring with the library, as a filter, and none of its
# individualization search; exponential in the size of a colour class and in
# the captured inputs of a thunk.


def _port_class(diagram: Diagram, port: tuple) -> int:
    if port[0] in ("dom", "cod"):
        return port[1]
    if (diagram.nodes[port[1]].kind, port[0]) in _UNORDERED:
        return -1
    return port[2]


def _mapped_wires(d: Diagram, mapping: dict[int, int], perms: dict[int, tuple]) -> Counter:
    """d's wires under a node mapping; thunk x's input j becomes input perms[x][j]."""
    def desc(port: tuple) -> tuple:
        if port[0] in ("dom", "cod"):
            return (port[0], port[1])
        side, nid, k = port
        if side == "in" and nid in perms:
            return (side, mapping[nid], perms[nid][k])
        return (side, mapping[nid], _port_class(d, port))

    return Counter((desc(src), desc(dst)) for src, dst in d._dst.items())


def _permute_captures(body: Diagram, arity: int, perm: tuple) -> Diagram:
    """A copy of body whose captured domain port arity + j becomes arity + perm[j]."""
    g = body.copy()
    cons = [g.consumer(("dom", arity + j)) for j in range(len(perm))]
    for c in cons:
        g.disconnect(c)
    for j, c in enumerate(cons):
        g.connect(("dom", arity + perm[j]), c)
    return g


def _capture_orders(x: Node, y: Node) -> list[tuple]:
    """Each order of thunk x's captured inputs under which its body is isomorphic to y's."""
    return [perm for perm in permutations(range(x.cap))
            if naive_isomorphic(_permute_captures(x.inner, x.arity, perm), y.inner)]


def naive_isomorphic(a: Diagram, b: Diagram) -> bool:
    """Exact interfaced port-graph isomorphism up to the exchange law.

    Expects normalized inputs.
    """
    if a.dom != b.dom or a.cod != b.cod:
        return False
    if len(a.nodes) != len(b.nodes) or len(a._dst) != len(b._dst):
        return False
    digest_a, ca = _coloring(a)
    digest_b, cb = _coloring(b)
    # equal digests mean equal colour tables and class sizes in every round
    if digest_a != digest_b:
        return False
    by_color: dict[int, list[int]] = {}
    for nid, c in cb.items():
        by_color.setdefault(c, []).append(nid)
    a_order = sorted(a.nodes, key=lambda nid: (ca[nid], nid))
    target = _mapped_wires(b, {nid: nid for nid in b.nodes}, {})

    def orders(x: int, y: int) -> list:
        """The capture orders under which x may map to y; [None] for a node without a body."""
        na, nb = a.nodes[x], b.nodes[y]
        if (na.kind, na.arity, na.cap, na.label) != (nb.kind, nb.arity, nb.cap, nb.label):
            return []
        if (na.inner is None) != (nb.inner is None):
            return []
        return [None] if na.inner is None else _capture_orders(na, nb)

    mapping: dict[int, int] = {}
    perms: dict[int, tuple] = {}
    used: set[int] = set()

    def assign(i: int) -> bool:
        if i == len(a_order):
            return _mapped_wires(a, mapping, perms) == target
        x = a_order[i]
        for y in by_color.get(ca[x], []):
            if y in used:
                continue
            mapping[x] = y
            used.add(y)
            for perm in orders(x, y):
                if perm is not None:
                    perms[x] = perm
                if assign(i + 1):
                    return True
            del mapping[x]
            perms.pop(x, None)
            used.discard(y)
        return False

    return assign(0)


# a?(x) => c?() => (x!() | [ ]): a hole two thunks deep.
HOLE_IN_BODY = Input(Name("a"), (Name("x"),),
                     Input(Name("c"), (), Par(Output(Name("x"), ()), Hole())))


def bodies(d: Diagram) -> list[Diagram]:
    """Every thunk body of d, at any depth."""
    found, stack = [], [d]
    while stack:
        for node in stack.pop().nodes.values():
            if node.inner is not None:
                found.append(node.inner)
                stack.append(node.inner)
    return found


def is_normal(d: Diagram) -> bool:
    """normalize(d) has d's node table and wires."""
    h = normalize(d)
    return h.nodes == d.nodes and h._dst == d._dst


def assert_normal(d: Diagram) -> None:
    """The normal-form shape, checked node by node and in every thunk body."""
    d.validate()

    def kinds(ports):
        return [d.nodes[p[1]].kind if p[0] in ("in", "out") else p[0] for p in ports]

    for nid, node in d.nodes.items():
        ins = kinds(d.producer(p) for p in d.in_ports(nid))
        outs = kinds(d.consumer(p) for p in d.out_ports(nid))
        if node.kind == "apply":
            assert ins[0] != "thunk"
        if node.kind == "par":
            assert node.arity >= 2 and not {"par", "stop"} & set(ins)
        if node.kind == "copy":
            assert node.arity >= 2 and not {"copy", "discard"} & set(outs)
        if node.kind in ("name", "fresh"):
            assert outs != ["discard"]
        if node.inner is not None:
            assert_normal(node.inner)
