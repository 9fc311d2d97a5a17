"""The reduction relation: communication redexes and reachability graphs.

A step synchronizes one unguarded output with one unguarded input on the same
channel with matching arity.  All context bookkeeping (reduction under
parallel composition, under restriction, and up to structural congruence) is
absorbed by working on canonical forms: after canonicalization every
communication candidate is a pair of components of the single top-level
parallel multiset, below the hoisted restriction chain.

Replication does not exist in this calculus, so every reduction removes two
prefixes and every state space is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import CanonicalProcess, canonical_form
from .syntax import Input, Name, New, Output, Process, Stop, par_leaves, pretty, recompose, substitute


class StateBudgetError(RuntimeError):
    """Raised when exploration would exceed the caller's state budget."""


class StaleRedexError(ValueError):
    """Raised when a redex does not describe the given process."""


@dataclass(frozen=True)
class Redex:
    """A firable sender/receiver pair, indexed into the canonical multiset."""

    subject: Name
    sender_index: int
    receiver_index: int
    arity: int


def decompose(p: Process) -> tuple[tuple[Name, ...], tuple[Process, ...]]:
    """Split canonical_form(p) into its restriction chain and components."""
    t = canonical_form(p)
    binders: list[Name] = []
    while isinstance(t, New):
        binders.append(t.binder)
        t = t.body
    return tuple(binders), tuple(c for c in par_leaves(t) if not isinstance(c, Stop))


def find_redexes(p: Process) -> list[Redex]:
    """All sender/receiver pairs of canonical_form(p), in index order."""
    _, comps = decompose(p)
    receivers = [(ri, c) for ri, c in enumerate(comps) if isinstance(c, Input)]
    redexes = []
    for si, sender in enumerate(comps):
        if not isinstance(sender, Output):
            continue
        for ri, receiver in receivers:
            if receiver.subject == sender.subject and len(receiver.params) == len(sender.args):
                redexes.append(Redex(sender.subject, si, ri, len(sender.args)))
    return redexes


def fire(p: Process, r: Redex) -> CanonicalProcess:
    """Consume the redex's sender and receiver; the result is canonical."""
    binders, comps = decompose(p)
    if r.sender_index >= len(comps) or r.receiver_index >= len(comps):
        raise StaleRedexError(f"redex {r} out of range for {pretty(p)}")
    sender = comps[r.sender_index]
    receiver = comps[r.receiver_index]
    if (
        not isinstance(sender, Output)
        or not isinstance(receiver, Input)
        or sender.subject != r.subject
        or receiver.subject != r.subject
        or len(sender.args) != r.arity
        or len(receiver.params) != r.arity
    ):
        raise StaleRedexError(f"redex {r} does not match {pretty(p)}")
    continuation = substitute(receiver.body, dict(zip(receiver.params, sender.args)))
    rest = tuple(c for i, c in enumerate(comps) if i not in (r.sender_index, r.receiver_index))
    return canonical_form(recompose(binders, rest + (continuation,)))


def reduce_step(p: Process) -> frozenset[CanonicalProcess]:
    """Canonical successors of p, quotiented by congruence."""
    return frozenset(fire(p, r) for r in find_redexes(p))


def reduce_step_detailed(p: Process) -> list[tuple[Redex, CanonicalProcess]]:
    """One entry per redex, before quotienting (successors may repeat)."""
    return [(r, fire(p, r)) for r in find_redexes(p)]


@dataclass(frozen=True)
class ReductionGraph:
    """A finite reduction state space rooted at states[0]."""

    states: tuple[CanonicalProcess, ...]
    edges: frozenset[tuple[int, int]]

    def to_json(self) -> dict:
        return {
            "states": [pretty(s) for s in self.states],
            "edges": sorted([i, j] for i, j in self.edges),
        }


def reachable(p: Process, max_states: int = 10_000) -> ReductionGraph:
    """BFS closure of reduce_step from canonical_form(p)."""
    root = canonical_form(p)
    states = [root]
    index = {root: 0}
    edges: set[tuple[int, int]] = set()
    frontier = [root]
    while frontier:
        nxt = []
        for s in frontier:
            for t in sorted(reduce_step(s), key=pretty):
                if t not in index:
                    if len(states) >= max_states:
                        raise StateBudgetError(f"more than {max_states} reachable states")
                    index[t] = len(states)
                    states.append(t)
                    nxt.append(t)
                edges.add((index[s], index[t]))
        frontier = nxt
    return ReductionGraph(tuple(states), frozenset(edges))
