"""Structural congruence decided by canonical forms.

The congruence is the least one containing alpha-equivalence that makes
parallel composition a commutative monoid with unit 0 and satisfies the
restriction laws: dropping a shadowed duplicate binder, swapping adjacent
binders, and extruding a restriction over a parallel sibling.

``canonical_form`` rewrites a term into a unique representative: at every
scope level, restrictions are hoisted outward over parallel composition,
parallel components are flattened into a sorted multiset with inert
components deleted, redundant binders in a restriction chain are pruned, and
each level's binders are put in the order that makes its representative
smallest, then relabeled n0, n1, ... in traversal order.  Two terms are
congruent iff their canonical forms are structurally identical.  The binder
order is found by an exact branch-and-bound search, pruned by lower bounds
and by binder swaps that are symmetries of the level.  It is fast on the
levels met in practice but exponential in the binders of one level in the
worst case.

Canonical forms recognise themselves: every result is recorded, weakly, and
a recorded term is returned as it is, with no binder search.  That is sound
because the canonical form of a canonical form is itself.  It pays because
forms come back as inputs: reduction returns canonical successors, and
decomposes each term it steps from into its canonical form.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .syntax import (
    Input,
    Name,
    New,
    Output,
    Par,
    Process,
    Stop,
    _alpha,
    _sref,
    free_names,
    fresh_names,
    recompose,
)

# A canonical process is an ordinary Process that canonical_form maps to
# itself; the alias documents intent at use sites.
CanonicalProcess = Process


# ---------------------------------------------------------------------------
# Canonical forms
#
# The computation goes through an intermediate "skeleton": a nested tuple in
# which bound names are de Bruijn-style stack positions ("b", depth) and free
# names are literal ("f", id).  Skeletons are totally ordered by tuple
# comparison, which gives the sorted-multiset normal form.  A scope level is
# what a term reaches through restrictions and parallel composition without
# crossing an input prefix.  Its binders are collected in one pass that maps
# each restriction to an integer token (no renamed copies), and they take the
# positions depth, depth+1, ... in the order that makes the level's skeleton
# smallest.  That minimum is exact, found by a branch-and-bound search over
# binder orders (the pruning of McKay & Piperno, "Practical graph isomorphism
# II", J. Symb. Comput. 2014):
#
# - Positions are handed out in increasing order, and a partial order is
#   bounded below by giving every unassigned binder the next free position.
#   A skeleton never grows when a position in it shrinks: an output's refs
#   compare pointwise, sorting keeps a pointwise order, and the minimum over
#   an inner level's orders keeps it too.  Each unassigned binder ends at that
#   position or a later one, so the bound holds.  Children are tried in order
#   of their bounds, and a child whose bound is not below the best complete
#   order found so far is cut.
# - Two binders whose swap maps the level's components to alpha-equal ones
#   give identical subtrees, so at each node only one binder of each such
#   class is tried.  Swapping is transitive, so the classes are computed once
#   per level.
# - A component's skeleton depends only on the positions of the level
#   binders it mentions, so it is memoised per level under those positions;
#   an order then costs a sort of cached tuples, not a re-walk.
#
# The worst case stays exponential in the binders of one level.  The bound
# puts every unassigned binder at one position, so it is weak when components
# that cannot tell binders apart sort first, and symmetries that are not
# swaps are not pruned.  Both hold for the components a?(y) => xi!(y) and
# xi!(x(3i mod k)) over k binders: k = 8 takes a tenth of a second, k = 10
# more than half a minute.

def _component_skeleton(c: Process, env: dict[str, tuple], depth: int, gc: bool,
                        levels: dict[int, tuple]) -> tuple:
    if isinstance(c, Output):
        return ("out", _sref(c.subject, env), tuple([_sref(a, env) for a in c.args]))
    if isinstance(c, Input):
        env2 = dict(env)
        for i, y in enumerate(c.params):
            env2[y.id] = ("b", depth + i)
        return ("in", _sref(c.subject, env), len(c.params),
                _skeleton(c.body, env2, depth + len(c.params), gc, levels))
    raise TypeError(f"not a component: {c!r}")


def _collect(p: Process) -> tuple[int, int, list[tuple[Process, list[tuple[str, int]]]]]:
    """One pass over the scope level rooted at p.

    Returns the number of restrictions, the number m of those some component
    mentions, and per component the (id, token) pairs of the level binders
    it mentions, with tokens numbered 0..m-1.
    """
    ntokens = 0
    found: list[tuple[Process, dict[str, int]]] = []
    stack: list[tuple[Process, dict[str, int]]] = [(p, {})]
    while stack:
        q, local = stack.pop()
        if isinstance(q, Par):
            stack.append((q.right, local))
            stack.append((q.left, local))
        elif isinstance(q, New):
            stack.append((q.body, {**local, q.binder.id: ntokens}))
            ntokens += 1
        elif isinstance(q, (Output, Input)):
            found.append((q, local))
        elif not isinstance(q, Stop):
            raise TypeError(f"not a process: {q!r}")
    index: dict[int, int] = {}
    comps = []
    for c, local in found:
        toks: list[tuple[str, int]] = []
        if local:
            if isinstance(c, Output):
                ids = {c.subject.id, *[a.id for a in c.args]}
            else:
                ids = {n.id for n in free_names(c)}
            toks = [(i, index.setdefault(local[i], len(index))) for i in ids if i in local]
        comps.append((c, toks))
    return ntokens, len(index), comps


def _swap_classes(var: list[tuple[Process, list[tuple[str, int]]]], env: dict[str, tuple],
                  m: int, depth: int) -> list[int]:
    """For each of the m tokens, the first token it can be swapped with (itself if none).

    ``var`` lists the level's components that mention a token, each with its
    (id, token) pairs; ``env`` holds the refs of the names bound outside.
    """

    def shape(ci: int, swap: dict[int, int]) -> tuple:
        c, toks = var[ci]
        env_c = dict(env)
        for n, t in toks:
            env_c[n] = ("t", swap.get(t, t))
        return _alpha(c, env_c, depth)

    base = [shape(ci, {}) for ci in range(len(var))]
    users: list[list[int]] = [[] for _ in range(m)]
    for ci, (_, toks) in enumerate(var):
        for _, t in toks:
            users[t].append(ci)
    cls = list(range(m))
    reps: list[int] = []
    for t in range(m):
        for r in reps:
            if len(users[r]) != len(users[t]):
                continue
            affected = sorted(set(users[r]) | set(users[t]))
            swapped = sorted(shape(ci, {r: t, t: r}) for ci in affected)
            if swapped == sorted(base[ci] for ci in affected):
                cls[t] = r
                break
        else:
            reps.append(t)
    return cls


def _skeleton(p: Process, env: dict[str, tuple], depth: int, gc: bool,
              levels: dict[int, tuple]) -> tuple:
    """The minimum skeleton of the scope level rooted at p.

    ``env`` maps the ids of the bound names in scope to their refs; every
    other name is free.  A component reads only its free names from it, so
    all components share it and the refs of level binders are laid over it.
    ``depth`` is the first position this level's binders take.  ``levels``
    holds the ``_collect`` result of every level already met in this
    canonicalisation, by id of its root (the term is alive throughout): an
    inner level is entered again for each set of positions of the outer
    binders it reads.  Terms are interned, so a subterm met at two positions
    is one entry; ``_collect`` depends only on structure, so that is sound.
    """
    level = levels.get(id(p))
    if level is None:
        level = levels[id(p)] = _collect(p)
    ntokens, m, comps = level
    # A redundant binder is deletable only while the chain holds another
    # restriction, so without gc a chain of vacuous binders keeps exactly one.
    k = m if gc or m else min(ntokens, 1)
    cdepth = depth + k

    # A component that mentions no level binder has one skeleton under every
    # order.  Sorted tuples of same-size multisets compare as the smallest
    # element of their difference does, so such components are left out of
    # the search and merged back at the end.
    const = [_component_skeleton(c, env, cdepth, gc, levels) for c, toks in comps if not toks]
    if m == 0:
        skels = tuple(sorted(const))
        if k == 0:
            if len(skels) == 1:
                return skels[0]
            if not skels:
                return ("stop",)
        return ("level", k, skels)

    # The other components' skeletons, each memoised under the positions of
    # the tokens it mentions (read from ``pos`` by its getter).
    var = [(c, toks) for c, toks in comps if toks]
    getters = [(itemgetter(*[t for _, t in toks]), {}) for _, toks in var]
    pos = [0] * m

    def skeletons() -> tuple:
        out = []
        for (c, toks), (get, memo) in zip(var, getters):
            key = get(pos)
            s = memo.get(key)
            if s is None:
                e = dict(env)
                for n, t in toks:
                    e[n] = ("b", depth + pos[t])
                s = memo[key] = _component_skeleton(c, e, cdepth, gc, levels)
            out.append(s)
        out.sort()
        return tuple(out)

    # With two binders the search tries at most two orders, fewer than the
    # swap test would cost.
    cls = _swap_classes(var, env, m, cdepth) if m >= 3 else list(range(m))
    best: tuple | None = None

    def search(j: int, remaining: list[int]) -> None:
        nonlocal best
        children = []
        tried = set()
        for t in remaining:
            if cls[t] in tried:
                continue
            tried.add(cls[t])
            for u in remaining:
                pos[u] = j + 1
            pos[t] = j
            bound = skeletons()
            if best is None or bound < best:
                children.append((bound, t))
        children.sort(key=lambda child: child[0])
        for bound, t in children:
            if best is not None and bound >= best:
                break
            if len(remaining) == 1:
                best = bound
            else:
                pos[t] = j
                search(j + 1, [u for u in remaining if u != t])

    search(0, list(range(m)))
    assert best is not None
    return ("level", k, tuple(sorted((*const, *best))))


def _rebuild(skel: tuple, stack: list[Name], namer: Iterator[Name]) -> Process:
    tag = skel[0]
    if tag == "stop":
        return Stop()
    if tag == "out":
        _, subj, args = skel
        return Output(_unref(subj, stack), tuple(_unref(a, stack) for a in args))
    if tag == "in":
        _, subj, n, body = skel
        params = [next(namer) for _ in range(n)]
        return Input(_unref(subj, stack), tuple(params), _rebuild(body, stack + params, namer))
    if tag == "level":
        _, k, comps = skel
        binders = [next(namer) for _ in range(k)]
        stack2 = stack + binders
        return recompose(binders, [_rebuild(c, stack2, namer) for c in comps])
    raise ValueError(f"bad skeleton tag: {tag!r}")


def _unref(ref: tuple, stack: list[Name]) -> Name:
    kind, payload = ref
    if kind == "b":
        return stack[payload]
    return Name(payload)


def _canonical_form(p: Process, gc_vacuous: bool) -> CanonicalProcess:
    """The canonical form of p, computed from scratch."""
    return _rebuild(_skeleton(p, {}, 0, gc_vacuous, {}), [], fresh_names(free_names(p)))


# The canonical forms computed so far, per value of gc_vacuous (see the module
# docstring).  Terms are interned, so a form is found whatever built it; the
# sets hold them weakly, so a form lives no longer than its other holders.
_FIXED = {False: weakref.WeakSet(), True: weakref.WeakSet()}


@lru_cache(maxsize=None)
def canonical_form(p: Process, gc_vacuous: bool = False) -> CanonicalProcess:
    """The canonical representative of p's congruence class.

    With ``gc_vacuous`` every restriction whose binder is unused is deleted;
    by default only the redundancy expressible with the chain laws is (a lone
    vacuous restriction such as (new x)0 survives).
    """
    fixed = _FIXED[bool(gc_vacuous)]
    if p in fixed:
        return p
    c = _canonical_form(p, gc_vacuous)
    fixed.add(c)
    return c


def congruent(p: Process, q: Process, gc_vacuous: bool = False) -> bool:
    """Decide structural congruence via canonical form equality."""
    return canonical_form(p, gc_vacuous) == canonical_form(q, gc_vacuous)


# ---------------------------------------------------------------------------
# Term size


def term_size(p: Process) -> int:
    """The number of constructors in p."""
    size = 0
    stack = [p]
    while stack:
        q = stack.pop()
        size += 1
        match q:
            case Stop() | Output():
                pass
            case Input(_, _, body) | New(_, body):
                stack.append(body)
            case Par(left, right):
                stack += [left, right]
            case _:
                raise TypeError(f"not a process: {q!r}")
    return size
