"""The diagram rewrite engine: locating and firing communication redexes.

A redex is a send node and a receive node of equal arity sitting in the same
top-level parallel multiset, whose subject wires trace back through copy
fan-outs to one shared name source, together with a communication permit
(comm node) in that same multiset.  Without a permit nothing fires, no matter
how many prefixes match: the permit is the control mechanism that keeps the
eager rewriting in step with the calculus.

Firing is one rewriting step (``diagram._replace_nodes``): the matched
send/receive pair is removed and the comm rule's right-hand side is spliced
into its boundary.  That right-hand side (``_comm_rule``) ends both subject
wires in discards, applies the receiver's continuation to the message names
in the send's slot of the multiset (the beta step of normalization then
inlines the boxed continuation), and puts a stop in the receive's slot.  The
rest of the multiset, the permit included, is left alone: the permit
enables the rewrite but is not spent.

A redex is what ``find_diagram_redexes`` finds, and nothing else decides it:
``apply_comm`` and ``apply_concurrent`` check their input against the finder,
and ``comm_step`` fires what it finds without checking it again.  A joint
step fires several redexes in one parallel step.  It is valid when each
member's send/receive pair is found, each catalyst is a permit of the
multiset, no two members share a send or receive node, and no two share a
permit: with k permits, at most k disjoint redexes fire at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import combinations

from .diagram import Diagram, Port, _normalized, _replace_nodes, generator, tensor
from .translate import TopDiagram


class StaleDiagramRedexError(ValueError):
    """The redex does not (or no longer does) describe the diagram."""


@dataclass(frozen=True)
class DiagramRedex:
    """A firable send/receive pair gated by a specific permit node."""

    output_node: int
    input_node: int
    catalyst: int
    arity: int


def _spine(d: Diagram) -> tuple[int | None, list[int]]:
    """The top parallel node (if any) and the node ids of its components."""
    if len(d.cod) != 1:
        raise StaleDiagramRedexError("top diagram must have a single P output")
    prod = d.producer(("cod", 0))
    if prod[0] != "out":
        raise StaleDiagramRedexError("top output is not produced by a node")
    nid = prod[1]
    if d.nodes[nid].kind != "par":
        return None, [nid]
    comps = []
    for k in range(d.nodes[nid].arity):
        p = d.producer(("in", nid, k))
        if p[0] == "out":
            comps.append(p[1])
    return nid, comps


def trace_subject(d: Diagram, port: Port) -> Port:
    """Follow a name wire backward through copy fan-outs to its source port."""
    while port[0] == "out" and d.nodes[port[1]].kind == "copy":
        port = d.producer(("in", port[1], 0))
    return port


def _permits(d: Diagram) -> list[int]:
    """The permit (comm) nodes of the top-level multiset, in id order."""
    return sorted(c for c in _spine(d)[1] if d.nodes[c].kind == "comm")


def find_diagram_redexes(td: TopDiagram) -> list[DiagramRedex]:
    """All (send, receive) matches in the top-level multiset, each gated by the first permit."""
    d = td.diagram
    permits = _permits(d)
    if not permits:
        return []
    _, comps = _spine(d)
    sends = sorted(c for c in comps if d.nodes[c].kind == "send")
    recvs = sorted(c for c in comps if d.nodes[c].kind == "recv")
    redexes = []
    for o in sends:
        for i in recvs:
            if d.nodes[o].arity != d.nodes[i].arity:
                continue
            so = trace_subject(d, d.producer(("in", o, 0)))
            si = trace_subject(d, d.producer(("in", i, 0)))
            if so == si:
                redexes.append(DiagramRedex(o, i, permits[0], d.nodes[o].arity))
    return redexes


def _disjoint(rs: tuple[DiagramRedex, ...]) -> bool:
    """No two redexes share a send or receive node."""
    nodes = [x for r in rs for x in (r.output_node, r.input_node)]
    return len(nodes) == len(set(nodes))


@functools.cache
def _comm_rule(n: int) -> Diagram:
    """The comm rule's right-hand side at arity n: N.N.(N^n -o P).N^n -> P.P.

    Its domain takes the send's and the receive's subjects, the continuation
    and the message names; its codomain fills the send's and the receive's
    slots of the multiset.
    """
    return tensor(tensor(tensor(generator("discard"), generator("discard")),
                         generator("apply", arity=n)), generator("stop"))


def _fire_on(d: Diagram, r: DiagramRedex) -> None:
    """Rewrite one redex of d in place, which the caller has checked; caller normalizes."""
    o, i = r.output_node, r.input_node
    prods = [d.producer(("in", o, 0)), d.producer(("in", i, 0)), d.producer(("in", i, 1)),
             *(d.producer(("in", o, 1 + t)) for t in range(r.arity))]
    cons = [d.consumer(("out", o, 0)), d.consumer(("out", i, 0))]
    _replace_nodes(d, (o, i), _comm_rule(r.arity), prods, cons)


def _fire(td: TopDiagram, rs: tuple[DiagramRedex, ...]) -> TopDiagram:
    """Fire a valid joint step of td on one copy, then normalize that copy in place."""
    d = td.diagram.copy()
    for r in rs:
        _fire_on(d, r)
    return TopDiagram(_normalized(d), td.name_order)


def apply_comm(td: TopDiagram, r: DiagramRedex) -> TopDiagram:
    """Fire one redex; the permit survives and the result is normalized."""
    return apply_concurrent(td, (r,))


def comm_step(td: TopDiagram) -> list[TopDiagram]:
    """The distinct one-step rewrites of td: the first of each diagram-equality class."""
    return list(dict.fromkeys(_fire(td, (r,)) for r in find_diagram_redexes(td)))


def count_permits(td: TopDiagram) -> int:
    return sum(1 for node in td.diagram.nodes.values() if node.kind == "comm")


_STOP = generator("stop")


def strip_permits(td: TopDiagram) -> TopDiagram:
    """A copy of td with every communication permit removed (for gating tests)."""
    d = td.diagram.copy()
    for nid in sorted(d.nodes):
        if d.nodes[nid].kind == "comm":
            # an inert stop takes the permit's place; normalization drops it
            _replace_nodes(d, (nid,), _STOP, [], [d.consumer(("out", nid, 0))])
    return TopDiagram(_normalized(d), td.name_order)


def concurrent_step(td: TopDiagram, permits: int | None = None) -> list[tuple[DiagramRedex, ...]]:
    """All maximal sets of pairwise node-disjoint redexes of size <= permits.

    Each set fires jointly in one parallel step; every member is assigned a
    distinct permit node.  With one permit this degenerates to single steps.
    """
    permit_ids = _permits(td.diagram)
    k = len(permit_ids) if permits is None else min(permits, len(permit_ids))
    redexes = find_diagram_redexes(td)
    joint = [rs for size in range(1, k + 1) for rs in combinations(redexes, size) if _disjoint(rs)]
    maximal = (rs for rs in joint
               if len(rs) == k or not any(_disjoint(rs + (r,)) for r in redexes if r not in rs))
    return [tuple(replace(r, catalyst=c) for r, c in zip(rs, permit_ids)) for rs in maximal]


def apply_concurrent(td: TopDiagram, rs: tuple[DiagramRedex, ...]) -> TopDiagram:
    """Fire a joint step of td, then normalize once.

    Raises ``StaleDiagramRedexError`` unless rs is a joint step by the rule in
    the module docstring.
    """
    found = {(r.output_node, r.input_node, r.arity) for r in find_diagram_redexes(td)}
    permits = _permits(td.diagram)
    if not (all((r.output_node, r.input_node, r.arity) in found and r.catalyst in permits
                for r in rs)
            and _disjoint(rs) and len({r.catalyst for r in rs}) == len(rs)):
        raise StaleDiagramRedexError(f"{rs} is not a joint step of the diagram")
    return _fire(td, rs)
