"""Exhaustive desk-scale verification of the two-semantics correspondences.

The harness enumerates bounded term corpora, runs both the operational and
the diagrammatic semantics over them, and reports any disagreement:

  * reduction:   operational successors vs. one-step diagram rewrites
  * observation: syntactic barbs vs. observable sends in the diagram
  * full abstraction: barbed bisimilarity vs. its diagram-side counterpart
  * contexts:    plugging then translating vs. translating then plugging,
                 and contextual-congruence verdicts on both sides

Both bisimilarity checks take ``bisim.blocks`` of an ``opsem.LTS`` of at most
10,000 states: terms under reduction (``opsem.reduction_union``) and top
diagrams under ``comm_step`` (``DiagramLTS``), whose states are told apart by
``TopDiagram`` equality alone, never by the term side's canonical forms.

These are finite checks, not proofs: a pass certifies the property on every
term (or pair, or context) within the corpus bounds.  Reports are
deterministic given the corpus specification and serialize to JSON with
replayable counterexamples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, islice, product

from .bisim import barbs, blocks
from .congruence import canonical_form, term_size
from .opsem import LTS, reduction_union, successors
from .rewrite import (_spine, apply_comm, comm_step, count_permits, find_diagram_redexes,
                      strip_permits, trace_subject)
from .syntax import Hole, Input, Name, New, Output, Par, Process, Stop, free_names, pretty, recompose
from .translate import (
    DiagramContext,
    TopDiagram,
    plug_diagram,
    plug_term,
    seal,
    translate,
    translate_context,
    translate_top,
)
from .diagram import isomorphic


# ---------------------------------------------------------------------------
# Corpora


@dataclass(frozen=True)
class CorpusSpec:
    """Bounds for term enumeration; every bound keeps the corpus finite."""

    name_alphabet_size: int = 2
    max_prefixes: int = 4
    max_arity: int = 1
    max_parallel_width: int = 4
    allow_new: bool = True


DESK_SPEC = CorpusSpec()
SMALL_SPEC = CorpusSpec(name_alphabet_size=2, max_prefixes=2, max_arity=1,
                        max_parallel_width=2, allow_new=True)
# Messages of two names: unlike the two specs above, its reduction lemma tells
# a step that keeps the message order from one that reverses it.
ARITY2_SPEC = CorpusSpec(name_alphabet_size=2, max_prefixes=3, max_arity=2,
                         max_parallel_width=2, allow_new=False)


def _continuations(spec: CorpusSpec, names: tuple[Name, ...], ins: int, outs: int):
    """Input continuation bodies: at most one further prefix, curated shapes.

    Yields (body, input_count, output_count).  The shapes cover the phenomena
    the corpora must exercise (name passing, private counterparts, guarded
    inputs) without the combinatorial blowup of arbitrary nesting.
    """
    yield Stop(), 0, 0
    if spec.allow_new:
        nu = Name("w9")
        yield New(nu, Stop()), 0, 0
        if outs >= 1:
            for ar in range(spec.max_arity + 1):
                for args in product(names + (nu,), repeat=ar):
                    yield New(nu, Output(nu, tuple(args))), 0, 1
    if outs >= 1:
        for x in names:
            for ar in range(spec.max_arity + 1):
                for args in product(names, repeat=ar):
                    yield Output(x, tuple(args)), 0, 1
    if ins >= 1:
        for x in names:
            for ar in range(spec.max_arity + 1):
                params = tuple(Name(f"v9{j}") for j in range(ar))
                yield Input(x, params, Stop()), 1, 0


def _components(spec: CorpusSpec, ins: int, outs: int, names: tuple[Name, ...], depth: int):
    """Candidate parallel components: (term, input_count, output_count, rich)."""
    if outs >= 1:
        for x in names:
            for ar in range(spec.max_arity + 1):
                for args in product(names, repeat=ar):
                    yield Output(x, tuple(args)), 0, 1, False
    if ins >= 1:
        for ar in range(spec.max_arity + 1):
            params = tuple(Name(f"v{depth}{j}") for j in range(ar))
            for x in names:
                for body, bi, bo in _continuations(spec, names + params, ins - 1, outs):
                    yield Input(x, params, body), 1 + bi, bo, not isinstance(body, Stop)


def _soups(spec: CorpusSpec, ins: int, outs: int, total: int, names: tuple[Name, ...], depth: int):
    width = spec.max_parallel_width
    pool = list(_components(spec, ins, outs, names, depth))

    def rec(start: int, ins_left: int, outs_left: int, total_left: int,
            width_left: int, rich_left: int):
        yield ()
        if width_left == 0:
            return
        for idx in range(start, len(pool)):
            t, ci, co, rich = pool[idx]
            if (ci <= ins_left and co <= outs_left and ci + co <= total_left
                    and (rich_left > 0 or not rich)):
                for rest in rec(idx, ins_left - ci, outs_left - co, total_left - ci - co,
                                width_left - 1, rich_left - (1 if rich else 0)):
                    yield (t,) + rest

    # at most one component carries a non-trivial continuation, which keeps
    # desk corpora minutes-scale while still covering racing and name passing
    for combo in rec(0, ins, outs, total, width, 1):
        yield recompose((), combo)


def _level(spec: CorpusSpec, ins: int, outs: int, total: int, names: tuple[Name, ...], depth: int):
    yield from _soups(spec, ins, outs, total, names, depth)
    if spec.allow_new:
        nu = Name(f"w{depth}")
        for body in _soups(spec, ins, outs, total, names + (nu,), depth):
            if nu in free_names(body):
                yield New(nu, body)


NAME_ALPHABET = "abcdefgh"


def corpus_names(spec: CorpusSpec) -> tuple[Name, ...]:
    if spec.name_alphabet_size > len(NAME_ALPHABET):
        raise ValueError(f"name alphabet size must be at most {len(NAME_ALPHABET)}")
    return tuple(Name(c) for c in NAME_ALPHABET[: spec.name_alphabet_size])


_corpus_cache: dict[CorpusSpec, list[Process]] = {}


def enumerate_terms(spec: CorpusSpec = DESK_SPEC) -> list[Process]:
    """Every corpus term within the bounds, one canonical form per congruence class.

    The prefix budget is split evenly between inputs and outputs (a budget of
    4 means at most 2 of each), which is what keeps desk corpora minutes-scale.
    """
    if spec in _corpus_cache:
        return list(_corpus_cache[spec])
    side_cap = (spec.max_prefixes + 1) // 2
    seen: set[Process] = set()
    out: list[Process] = []
    for t in _level(spec, side_cap, side_cap, spec.max_prefixes, corpus_names(spec), 0):
        c = canonical_form(t)
        if c not in seen:
            seen.add(c)
            out.append(c)
    _corpus_cache[spec] = out
    return list(out)


def enumerate_all_terms(max_size: int, alphabet: int = 2) -> list[Process]:
    """Exhaustive raw AST enumeration by node count (binders share the alphabet).

    Unlike enumerate_terms this does not quotient by congruence; it is meant
    for validating the congruence machinery itself and for grammar round-trips.
    """
    names = tuple(Name(c) for c in NAME_ALPHABET[:alphabet])
    max_arity = 1
    memo: dict[int, list[Process]] = {}

    def terms(size: int) -> list[Process]:
        if size in memo:
            return memo[size]
        out: list[Process] = []
        if size == 1:
            out.append(Stop())
            for x in names:
                for ar in range(max_arity + 1):
                    for args in product(names, repeat=ar):
                        out.append(Output(x, tuple(args)))
        elif size >= 2:
            for body in terms(size - 1):
                for x in names:
                    out.append(New(x, body))
                    for ar in range(max_arity + 1):
                        for params in product(names, repeat=ar):
                            if len(set(params)) == len(params):
                                out.append(Input(x, tuple(params), body))
            for ls in range(1, size - 1):
                for left in terms(ls):
                    for right in terms(size - 1 - ls):
                        out.append(Par(left, right))
        memo[size] = out
        return out

    all_terms: list[Process] = []
    for s in range(1, max_size + 1):
        all_terms.extend(terms(s))
    return all_terms


def enumerate_contexts(names: tuple[Name, ...], max_size: int) -> list[Process]:
    """Single-hole contexts with at most max_size non-hole constructors."""
    side_terms = enumerate_all_terms(2, alphabet=len(names))

    def contexts(size: int) -> list[Process]:
        out: list[Process] = [Hole()] if size == 0 else []
        if size >= 1:
            for inner in contexts(size - 1):
                for x in names:
                    out.append(New(x, inner))
                    out.append(Input(x, (), inner))
                    if size >= 2:
                        # binder name distinct from the channel alphabet
                        out.append(Input(x, (Name("v0"),), inner))
            for side_size in range(1, size):
                for inner in contexts(size - 1 - side_size):
                    for r in side_terms:
                        if term_size(r) == side_size:
                            out.append(Par(inner, r))
                            out.append(Par(r, inner))
        return out

    # terms are interned, so one context built twice is the same object
    return list(dict.fromkeys(c for s in range(max_size + 1) for c in contexts(s)))


# ---------------------------------------------------------------------------
# Semantic observables and the diagram-side transition system


def semantic_barbs(td: TopDiagram) -> frozenset[Name]:
    """Channels with an observable send in the top multiset of the diagram.

    A send is observable when its subject wire traces back to a name constant
    or an open domain port; subjects rooted at a fresh source are hidden.
    """
    d = td.diagram
    _, comps = _spine(d)
    out: set[Name] = set()
    for c in comps:
        if d.nodes[c].kind != "send":
            continue
        src = trace_subject(d, d.producer(("in", c, 0)))
        if src[0] == "dom":
            out.add(td.name_order[src[1]])
        elif src[0] == "out":
            node = d.nodes[src[1]]
            if node.kind == "name":
                out.add(Name(node.label))
            elif node.kind == "fresh":
                continue
            else:
                raise ValueError(f"diagram not translation-shaped at node {src[1]}")
        else:
            raise ValueError(f"unexpected subject source {src}")
    return frozenset(out)


class DiagramLTS(LTS):
    """The LTS of top diagrams under ``comm_step``, states told apart by ``TopDiagram`` equality."""

    def __init__(self) -> None:
        super().__init__(comm_step)

    def refine(self) -> list[int]:
        """Close, then give each state its block id under diagram-side bisimilarity."""
        return blocks(self, semantic_barbs)


def _bisim_blocks(terms: list[Process], tops: list[TopDiagram]) -> tuple[list[int], list[int]]:
    """Block ids per input under term-side and diagram-side bisimilarity.

    ``terms[i]`` and ``tops[i]`` are the two sides of one input.  Terms are
    refined in their shared reduction LTS and diagrams in a ``DiagramLTS``; two
    inputs are bisimilar on a side iff their block ids on that side are equal.
    """
    lts = reduction_union(terms)
    syn_blocks = blocks(lts, barbs)
    diagrams = DiagramLTS()
    roots = [diagrams.intern(td) for td in tops]
    sem_blocks = diagrams.refine()
    return ([syn_blocks[lts.index[canonical_form(p)]] for p in terms],
            [sem_blocks[r] for r in roots])


# ---------------------------------------------------------------------------
# Reports


@dataclass
class VerificationReport:
    lemma: str
    corpus_size: int
    checked: int
    counterexamples: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "corpus_size": self.corpus_size,
            "checked": self.checked,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def summary(self) -> str:
        verdict = "pass" if self.passed else f"FAIL ({len(self.counterexamples)} counterexamples)"
        return (
            f"{self.lemma}: {verdict} | corpus={self.corpus_size} "
            f"checks={self.checked} elapsed={self.elapsed:.2f}s"
        )


# ---------------------------------------------------------------------------
# Lemma suites


def verify_reduction_lemma(spec: CorpusSpec = DESK_SPEC) -> VerificationReport:
    """Operational successors and diagram rewrites coincide, both directions.

    Each distinct successor is translated once per run: a table maps the
    interned term to its top diagram, which the checks share because nothing
    mutates a top diagram's diagram.
    """
    t0 = time.perf_counter()
    terms = enumerate_terms(spec)
    report = VerificationReport("reduction", len(terms), 0)
    tops: dict[Process, TopDiagram] = {}
    for p in terms:
        report.checked += 1
        ops = successors(p)
        for q in ops:
            if q not in tops:
                tops[q] = translate_top(q, 1, True)
        lhs = {tops[q] for q in ops}
        rhs = set(comm_step(translate_top(p, 1, True)))
        if lhs != rhs:
            report.counterexamples.append({
                "term": pretty(p),
                "operational_successors": [pretty(q) for q in ops],
                "translated_classes": len(lhs),
                "rewrite_classes": len(rhs),
            })
    report.elapsed = time.perf_counter() - t0
    return report


def verify_observation_lemma(spec: CorpusSpec = DESK_SPEC) -> VerificationReport:
    """Syntactic barbs equal semantic barbs for every corpus term."""
    t0 = time.perf_counter()
    terms = enumerate_terms(spec)
    report = VerificationReport("observation", len(terms), 0)
    for p in terms:
        report.checked += 1
        syntactic = barbs(p)
        semantic = semantic_barbs(translate_top(p, 1, True))
        if syntactic != semantic:
            report.counterexamples.append({
                "term": pretty(p),
                "syntactic_barbs": sorted(n.id for n in syntactic),
                "semantic_barbs": sorted(n.id for n in semantic),
            })
    report.elapsed = time.perf_counter() - t0
    return report


def verify_full_abstraction(spec: CorpusSpec = DESK_SPEC, max_terms: int = 200,
                            max_pairs: int = 20_000) -> VerificationReport:
    """Syntactic and diagram-side bisimilarity verdicts agree on all pairs."""
    t0 = time.perf_counter()
    terms = enumerate_terms(spec)[:max_terms]
    syn_blocks, sem_blocks = _bisim_blocks(terms, [translate_top(p, 1, True) for p in terms])
    report = VerificationReport("full-abstraction", len(terms), 0)
    for i, j in islice(combinations(range(len(terms)), 2), max_pairs):
        report.checked += 1
        syn = syn_blocks[i] == syn_blocks[j]
        sem = sem_blocks[i] == sem_blocks[j]
        if syn != sem:
            report.counterexamples.append({
                "left": pretty(terms[i]),
                "right": pretty(terms[j]),
                "syntactic_bisimilar": syn,
                "semantic_bisimilar": sem,
            })
    report.elapsed = time.perf_counter() - t0
    return report


def verify_contextual_congruence(spec: CorpusSpec = SMALL_SPEC, context_bound: int = 4,
                                 max_plugs: int = 12, max_verdict_terms: int = 8,
                                 max_verdict_contexts: int = 24) -> VerificationReport:
    """(a) plug-then-translate equals translate-then-plug, exhaustively; and
    (b) contextual-congruence verdicts agree between the two semantics."""
    t0 = time.perf_counter()
    names = corpus_names(spec)
    contexts = enumerate_contexts(names, context_bound)
    plugs = enumerate_terms(spec)[:max_plugs]
    report = VerificationReport("contextual-congruence", len(contexts), 0)

    # Both sides are built normal and never mutated: each plug is translated once,
    # each context once per plug name order, and isomorphic compares them as built.
    plug_diagrams = [translate(p) for p in plugs]
    orders = [tuple(sorted(free_names(p))) for p in plugs]
    for c in contexts:
        ctxs: dict[tuple[Name, ...], DiagramContext] = {}
        for p, f, order in zip(plugs, plug_diagrams, orders):
            report.checked += 1
            if order not in ctxs:
                ctxs[order] = translate_context(c, order)
            via_functor = plug_diagram(ctxs[order], f)
            direct = translate(plug_term(c, p))
            if not isomorphic(via_functor, direct):
                report.counterexamples.append({
                    "kind": "functoriality",
                    "context": pretty(c),
                    "plug": pretty(p),
                })

    # verdict agreement on a small sub-corpus
    terms = plugs[:max_verdict_terms]
    stride = max(1, len(contexts) // max_verdict_contexts)
    picked = contexts[::stride][:max_verdict_contexts]
    filled: list[Process] = []
    tops: list[TopDiagram] = []
    for ti, p in enumerate(terms):
        for c in picked:
            filled.append(plug_term(c, p))
            ctx = translate_context(c, orders[ti])
            tops.append(seal(plug_diagram(ctx, plug_diagrams[ti]), ctx.dom_names))
    syn_blocks, sem_blocks = _bisim_blocks(filled, tops)
    n = len(picked)
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            report.checked += 1
            syn = all(syn_blocks[i * n + ci] == syn_blocks[j * n + ci] for ci in range(n))
            sem = all(sem_blocks[i * n + ci] == sem_blocks[j * n + ci] for ci in range(n))
            if syn != sem:
                report.counterexamples.append({
                    "kind": "verdict-disagreement",
                    "left": pretty(terms[i]),
                    "right": pretty(terms[j]),
                    "syntactic": syn,
                    "semantic": sem,
                })
    report.elapsed = time.perf_counter() - t0
    return report


def verify_catalyst_gating(spec: CorpusSpec = DESK_SPEC) -> VerificationReport:
    """No permit, no rewrite; and firing never changes the permit count."""
    t0 = time.perf_counter()
    terms = enumerate_terms(spec)
    report = VerificationReport("catalyst-gating", len(terms), 0)
    for p in terms:
        report.checked += 1
        td = translate_top(p, 1, True)
        stripped = strip_permits(td)
        if find_diagram_redexes(stripped):
            report.counterexamples.append({
                "term": pretty(p),
                "issue": "redex found without a permit",
            })
            continue
        for r in find_diagram_redexes(td):
            after = apply_comm(td, r)
            if count_permits(after) != count_permits(td):
                report.counterexamples.append({
                    "term": pretty(p),
                    "issue": "permit count changed by firing",
                })
                break
    report.elapsed = time.perf_counter() - t0
    return report


VERIFIERS = {
    "reduction": verify_reduction_lemma,
    "observation": verify_observation_lemma,
    "fullabstraction": verify_full_abstraction,
    "congruence": verify_contextual_congruence,
    "gating": verify_catalyst_gating,
}
