"""Seeded input generators for the benchmark's two closed-loop workloads.

Generation is plain text work with ``random.Random(seed)``: pitwo only ever
receives the generated term texts.  Both generators fix what a run's cost
depends on -- for large-terms the binders, components, nesting and top-level
redexes of every term, for lts-bisim the number of reachable states of every
soup -- and let the seed draw the rest: which names occur where, which
templates meet, and the order.  Two seeds then give different terms of
comparable cost.  A run's cost is dominated by its costliest terms; leaving
their number to chance made runs with different seeds incomparable.
"""

from __future__ import annotations

import hashlib
import random
import re

FREE = ("a", "b", "c", "d", "e")

# large-terms: one (binders, components, top-level redexes) triple per term.
# Binder search costs about k! per canonical form and is repeated once per
# successor, so k = 6 and 7 are few.  The 24 k = 5 terms share one shape and
# are the next costliest, so p90 (the 11th-12th costliest of 109) falls well
# inside that block rather than on the edge between two unlike ones.
LARGE_SHAPES = (
    [(7, 9, 1)]
    + [(6, 8 + 2 * i, i % 2) for i in range(3)]
    + [(5, 8, 1)] * 24
    + [(k, 4 + i % 11, i % 3) for k in range(5) for i in range(81 // 5 + (k < 81 % 5))]
)
MAX_DEPTH = 3


def _chain(rng: random.Random, subject: str, chans: list[str], depth: int, arity: int,
           params: list[int], last_arg: str | None = None) -> str:
    """`depth` nested inputs ending in one output; arities alternate from `arity`.

    The shape is fixed by the arguments; the seed only picks the names.
    """
    if depth == 0:
        arg = last_arg or (rng.choice(chans) if arity else "")
        return f"{subject}!({arg})"
    param = []
    if arity:
        param = [f"v{params[0]}"]
        params[0] += 1
    inner = chans + param
    body = _chain(rng, rng.choice(inner), inner, depth - 1, 1 - arity, params, last_arg)
    return f"{subject}?({', '.join(param)}) => {body}"


def large_term(rng: random.Random, binders: int, components: int, redexes: int) -> str:
    """One term of at least `components` parallel parts under `binders` restrictions.

    Top-level outputs and inputs use disjoint channels except for `redexes`
    channels that carry one output and one input of equal arity each, so the
    term has exactly that many top-level reductions.  Component j of the
    rest alternates between an output and an input chain of depth 1 to 3,
    and the first `binders` of them send one binder each, so every binder
    occurs.
    """
    bound = [f"r{i}" for i in range(binders)]
    chans = list(FREE) + bound
    order = chans[:]
    rng.shuffle(order)
    shared, rest = order[:redexes], order[redexes:]
    out_chans, in_chans = rest[: len(rest) // 2], rest[len(rest) // 2:]
    params = [0]
    comps = []
    for j, ch in enumerate(shared):
        comps.append(_chain(rng, ch, chans, 0, j % 2, params))
        comps.append(_chain(rng, ch, chans, 1 + j, j % 2, params))
    for j in range(max(components - 2 * redexes, binders)):
        depth = 0 if j % 2 == 0 else 1 + (j // 2) % MAX_DEPTH
        subject = rng.choice(in_chans if depth else out_chans)
        last = bound[j] if j < binders else None
        comps.append(_chain(rng, subject, chans, depth, (j // 2) % 2, params, last))
    rng.shuffle(comps)
    return "".join(f"(new {b}) " for b in bound) + "(" + " | ".join(comps) + ")"


def large_terms(seed: int) -> list[str]:
    rng = random.Random(seed)
    shapes = list(LARGE_SHAPES)
    rng.shuffle(shapes)
    return [large_term(rng, *shape) for shape in shapes]


# lts-bisim: pairs of soups of independent channel groups.  Group i talks only
# on its own channels p<i> and q<i>, so the reachable states of a soup are the
# product of its groups' states.  Every template below reaches exactly three
# states, so every soup has 3**GROUPS states whichever templates it draws, and
# the seed changes the pairs but not their size.

GROUP_TEMPLATES = [
    "p!(q) | p?(u) => u!() | p?(u) => q!(u)",
    "p!(q) | p?(u) => u!() | p?(u) => u?() => q!()",
    "p!(q) | p?(u) => u!() | q?() => p!()",
    "p!(q) | p?(u) => u!() | q?() => 0",
    "p!(q) | p?(u) => u!() | p?(u) => u!(p)",
    "p!(q) | p?(u) => q!(u) | p?(u) => u?() => q!()",
    "p!(q) | p?(u) => q!(u) | q?(w) => p!()",
    "p!(q) | p?(u) => q!(u) | p?(u) => u!(p)",
    "p!(q) | p?(u) => q!(u) | q?(u) => u!()",
    "p!(q) | p?(u) => u?() => q!() | p?(u) => u!(p)",
    "p!(q) | q?(w) => p!() | p?(u) => u!(p)",
    "p!(q) | p?(u) => u!(p) | q?(u) => u!()",
    "p!(p) | p?(u) => u!() | p?(u) => q!(u)",
    "p!(p) | p?(u) => u!() | p?(u) => u?() => q!()",
    "p!(p) | p?(u) => u!() | p?() => q!()",
    "p!(p) | p?(u) => u!() | p?() => q?() => p!()",
    "p!(p) | p?(u) => u!() | p?() => p!()",
    "p!(p) | p?(u) => q!(u) | p?(u) => u?() => q!()",
    "p!(p) | p?(u) => q!(u) | q?(w) => p!()",
    "p!(p) | p?(u) => q!(u) | q?(u) => u!()",
    "p!() | p?() => q!() | p?() => q?() => p!()",
    "p!() | p?() => q!() | q?() => p!()",
    "p!() | p?() => q!() | q?() => 0",
    "q!(p) | p?() => q!() | q?(w) => p!()",
    "q!(p) | p?() => q!() | q?(u) => u!()",
    "q!(p) | p?() => q?() => p!() | q?(w) => p!()",
    "q!(p) | p?() => q?() => p!() | q?(u) => u!()",
    "q!(p) | q?(w) => p!() | p?() => p!()",
    "q!(p) | q?(w) => p!() | q?(u) => u!()",
    "q!(p) | p?() => p!() | q?(u) => u!()",
    "q!() | p?() => q!() | q?() => p!()",
    "q!() | p?() => q?() => p!() | q?() => p!()",
    "q!() | q?() => p!() | p?() => p!()",
    "q!() | q?() => p!() | q?() => 0",
]
GROUPS = 2
LTS_PAIRS = 120


def _group(template: str, i: int) -> list[str]:
    text = re.sub(r"\b([pquw])\b", rf"\g<1>{i}", template)
    return text.split(" | ")


def lts_pairs(seed: int) -> list[tuple[str, str, bool]]:
    """(left, right, congruent) triples; every third pair is congruent.

    Templates are dealt from a shuffled deck, so each appears about equally
    often in a run.  A congruent pair reverses the component order, so both
    sides must find it bisimilar.  The other pairs replace one group of the
    right soup by another template on fresh channels.  Its send then offers
    a barb the left soup lacks, so both sides must find the pair not
    bisimilar, and the two soups share no state, so every such pair explores
    the same number of states.  A congruent pair explores half as many; with
    one third congruent, p50 and p90 both fall inside the other block rather
    than on the edge between the two.
    """
    rng = random.Random(seed)
    deck: list[str] = []

    def deal() -> str:
        if not deck:
            deck.extend(GROUP_TEMPLATES)
            rng.shuffle(deck)
        return deck.pop()

    pairs = []
    for n in range(LTS_PAIRS):
        congruent = n % 3 == 0
        groups = [deal() for _ in range(GROUPS)]
        left = [c for i, t in enumerate(groups) for c in _group(t, i)]
        if congruent:
            right = left[::-1]
        else:
            j = rng.randrange(GROUPS)
            names = list(range(GROUPS))
            groups[j], names[j] = deal(), GROUPS + j
            right = [c for i, t in zip(names, groups) for c in _group(t, i)]
        pairs.append((" | ".join(left), " | ".join(right), congruent))
    return pairs


def inputs_hash(items: object) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]
