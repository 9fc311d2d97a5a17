"""Observables (barbs) and barbed bisimulation on finite reduction LTSs.

A barb is an unguarded output on a free channel: inputs are unobservable, so
an observer cannot tell whether a sent message was consumed.  Bisimilarity is
the greatest symmetric relation that matches single reduction steps and
preserves barb sets; it is computed by partition refinement over one reduction
LTS rooted at both terms (``opsem.reduction_union``), starting from the
partition induced by barb sets.

``weak=True`` gives weak barbed bisimilarity, where a step may be answered
by any number of steps and barbs are compared after any number of steps.  It
is strong bisimilarity on the saturated transition system, whose moves are
the reflexive-transitive closure of reduction and whose labels are the weak
barbs (the barbs of every reachable state), so the same partition refinement
decides it.

``blocks`` is the one block computation, strong or weak, for any ``opsem.LTS``
and barb labelling: terms with ``barbs``, top diagrams with their own barbs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Hashable, Sequence

from .congruence import canonical_form
from .opsem import LTS, reduction_union
from .syntax import Input, Name, New, Output, Par, Process, Stop, par_leaves, pretty

BarbSet = frozenset[Name]


@lru_cache(maxsize=None)
def barbs(p: Process) -> BarbSet:
    """The channels on which p offers an unguarded output, minus restricted ones."""
    match p:
        case Stop() | Input():
            return frozenset()
        case Output(subject, _):
            return frozenset({subject})
        case Par():
            return frozenset().union(*map(barbs, par_leaves(p)))
        case New(binder, body):
            return barbs(body) - {binder}
    raise TypeError(f"not a process: {p!r}")


def partition_refine(succ: Sequence[Sequence[int]], labels: Sequence[Hashable]) -> list[int]:
    """Coarsest partition compatible with state labels and one-step moves.

    States start in blocks given by their labels and are split until each
    block's members reach exactly the same set of blocks.  Returns a block id
    per state; two states are strongly bisimilar iff they share a block.
    """
    ids: dict[Hashable, int] = {}
    blocks = [ids.setdefault(lab, len(ids)) for lab in labels]
    while True:
        sigs = [
            (blocks[i], frozenset(blocks[j] for j in succ[i]))
            for i in range(len(blocks))
        ]
        fresh: dict[tuple, int] = {}
        nxt = [fresh.setdefault(sig, len(fresh)) for sig in sigs]
        if len(fresh) == len(set(blocks)):
            return nxt
        blocks = nxt


def _saturate(succ: Sequence[Sequence[int]], labels: Sequence[BarbSet]
              ) -> tuple[list[list[int]], list[BarbSet]]:
    """The saturated LTS: each state's reflexive-transitive successors and weak barbs."""
    reach: list[list[int]] = []
    for s in range(len(succ)):
        seen, stack = {s}, [s]
        while stack:
            fresh = [t for t in succ[stack.pop()] if t not in seen]
            seen.update(fresh)
            stack.extend(fresh)
        reach.append(sorted(seen))
    return reach, [frozenset().union(*(labels[t] for t in r)) for r in reach]


def blocks(lts: LTS, label: Callable[[Hashable], BarbSet], weak: bool = False) -> list[int]:
    """Close lts; a block id per state under (weak) bisimilarity, label giving its barbs."""
    lts.close()
    labels = [label(s) for s in lts.states]
    return partition_refine(*(_saturate(lts.succ, labels) if weak else (lts.succ, labels)))


def bisimilar(p: Process, q: Process, max_states: int = 10_000, weak: bool = False) -> bool:
    verdict, _ = bisimilarity_verdict(p, q, max_states=max_states, weak=weak)
    return verdict


def bisimilarity_verdict(
    p: Process, q: Process, max_states: int = 10_000, weak: bool = False
) -> tuple[bool, str | None]:
    """Verdict plus, on failure, a human-readable distinguishing certificate."""
    lts = reduction_union([p, q], max_states)
    i, j = lts.index[canonical_form(p)], lts.index[canonical_form(q)]
    ids = blocks(lts, barbs, weak)
    if ids[i] == ids[j]:
        return True, None
    if weak:
        return False, f"no weak bisimulation relates {pretty(lts.states[i])} and {pretty(lts.states[j])}"
    return False, _certificate(lts.states, lts.succ, ids, i, j, depth=4)


def _certificate(states, succ, blocks, i, j, depth: int) -> str:
    bi, bj = barbs(states[i]), barbs(states[j])
    if bi != bj:
        extra = sorted(bi ^ bj)[0]
        alone = states[i] if extra in bi else states[j]
        other = states[j] if extra in bi else states[i]
        return f"barb {extra}: observable at {pretty(alone)} but not at {pretty(other)}"
    for a, b in ((i, j), (j, i)):
        for s2 in succ[a]:
            if all(blocks[s2] != blocks[t2] for t2 in succ[b]):
                msg = (
                    f"{pretty(states[a])} can step to {pretty(states[s2])}, "
                    f"which {pretty(states[b])} cannot match"
                )
                if depth > 0 and succ[b]:
                    t2 = succ[b][0]
                    msg += "; " + _certificate(states, succ, blocks, s2, t2, depth - 1)
                return msg
    return "states separated by refinement"
