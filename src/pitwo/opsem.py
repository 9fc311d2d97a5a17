"""The reduction relation, and the one explorer of transition systems.

A step synchronizes one unguarded output with one unguarded input on the same
channel with matching arity.  All context bookkeeping (reduction under
parallel composition, under restriction, and up to structural congruence) is
absorbed by working on canonical forms: after canonicalization every
communication candidate is a pair of components of the single top-level
parallel multiset, below the hoisted restriction chain.

``LTS`` builds the states reachable from interned roots under any step
function, breadth-first and within a state budget.  Both semantics explore
with it: terms under reduction (``reduction_union``, and ``reachable`` for one
root) and top diagrams under ``comm_step`` (``harness.DiagramLTS``).

Replication does not exist in this calculus, so every reduction removes two
prefixes and every state space is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

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


def _redexes(comps: tuple[Process, ...]) -> list[Redex]:
    receivers = [(ri, c) for ri, c in enumerate(comps) if isinstance(c, Input)]
    redexes = []
    for si, sender in enumerate(comps):
        if not isinstance(sender, Output):
            continue
        for ri, receiver in receivers:
            if receiver.subject == sender.subject and len(receiver.params) == len(sender.args):
                redexes.append(Redex(sender.subject, si, ri, len(sender.args)))
    return redexes


def _fire(binders: tuple[Name, ...], comps: tuple[Process, ...], r: Redex) -> CanonicalProcess:
    sender, receiver = comps[r.sender_index], comps[r.receiver_index]
    continuation = substitute(receiver.body, dict(zip(receiver.params, sender.args)))
    rest = tuple(c for i, c in enumerate(comps) if i not in (r.sender_index, r.receiver_index))
    return canonical_form(recompose(binders, rest + (continuation,)))


def find_redexes(p: Process) -> list[Redex]:
    """All sender/receiver pairs of canonical_form(p), in index order."""
    return _redexes(decompose(p)[1])


def fire(p: Process, r: Redex) -> CanonicalProcess:
    """Consume the sender and receiver of r, a redex that find_redexes(p) finds."""
    binders, comps = decompose(p)
    if r not in _redexes(comps):
        raise StaleRedexError(f"redex {r} does not match {pretty(p)}")
    return _fire(binders, comps, r)


def reduce_step(p: Process) -> frozenset[CanonicalProcess]:
    """Canonical successors of p, quotiented by congruence."""
    return frozenset(q for _, q in reduce_step_detailed(p))


def reduce_step_detailed(p: Process) -> list[tuple[Redex, CanonicalProcess]]:
    """One entry per redex, before quotienting (successors may repeat)."""
    binders, comps = decompose(p)
    return [(r, _fire(binders, comps, r)) for r in _redexes(comps)]


def successors(p: Process) -> list[CanonicalProcess]:
    """reduce_step(p) in pretty order, the order in which exploration numbers them."""
    return sorted(reduce_step(p), key=pretty)


class LTS:
    """The states reachable from interned roots under a step function.

    States are numbered in the order they are first interned.  ``close``
    explores them breadth-first in that order, so each state's successors
    are computed once, however many roots reach it; ``succ[i]`` is then the
    sorted ids of state i's successors.  The class only explores: states
    are told apart by their own equality, never canonicalised here.
    """

    def __init__(self, step: Callable[[Hashable], Iterable[Hashable]], max_states: int = 10_000) -> None:
        self.step = step
        self.max_states = max_states
        self.states: list[Hashable] = []
        self.index: dict[Hashable, int] = {}
        self.succ: list[list[int]] = []

    def intern(self, state: Hashable) -> int:
        n = len(self.states)
        if n >= self.max_states and state not in self.index:
            raise StateBudgetError(f"more than {self.max_states} reachable states")
        # one lookup, so the state is hashed once; a top diagram hashes its signature
        i = self.index.setdefault(state, n)
        if i == n:
            self.states.append(state)
        return i

    def close(self) -> LTS:
        """Explore every interned state not yet explored, and all it reaches."""
        while len(self.succ) < len(self.states):
            s = self.states[len(self.succ)]
            self.succ.append(sorted({self.intern(t) for t in self.step(s)}))
        return self

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, ts in enumerate(self.succ) for j in ts]

    def to_json(self) -> dict:
        return {"states": [pretty(s) for s in self.states], "edges": [list(e) for e in self.edges]}


def reduction_union(ps: Sequence[Process], max_states: int = 10_000) -> LTS:
    """One reduction LTS rooted at every term of ps; max_states bounds all of it.

    Each root is interned and closed in turn, so a state reached from
    several roots is explored once.
    """
    lts = LTS(successors, max_states)
    for p in ps:
        lts.intern(canonical_form(p))
        lts.close()
    return lts


def reachable(p: Process, max_states: int = 10_000) -> LTS:
    """The reduction LTS rooted at canonical_form(p), state 0."""
    return reduction_union([p], max_states)
