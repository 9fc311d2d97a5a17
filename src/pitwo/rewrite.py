"""The diagram rewrite engine: locating and firing communication redexes.

A redex is a send node and a receive node of equal arity sitting in the same
top-level parallel multiset, whose subject wires trace back through copy
fan-outs to one shared name source, together with a communication permit
(comm node) in that same multiset.  Without a permit nothing fires, no matter
how many prefixes match: the permit is the control mechanism that keeps the
eager rewriting in step with the calculus.

Firing is one rewriting step (``diagram._replace_nodes``) on a normal
diagram that leaves it normal: the send, the receive and the receiver's
thunk are replaced by the thunk's body (the comm step and its beta step at
once), fed the message names and the captured names, with its result in the
send's slot of the multiset.  Only what the step touched is rebuilt: the
multiset's par node, with the body's result leaves in the send's slot and
no receive's slot, and the copy tree under each name source that fed a
removed node, over its remaining leaves.  The rest of the multiset, the
permit included, is left alone: the permit enables the rewrite but is not
spent.

A redex is what ``find_diagram_redexes`` finds, and nothing else decides it:
``apply_comm`` and ``apply_concurrent`` check their input against the finder,
and ``comm_step`` fires what it finds without checking it again.  A joint
step fires several redexes in one parallel step.  It is valid when each
member's send/receive pair is found, each catalyst is a permit of the
multiset, no two members share a send or receive node, and no two share a
permit: with k permits, at most k disjoint redexes fire at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .diagram import (Diagram, Port, _detach, _normalized, _rebuild_fanin, _rebuild_fanout,
                      _replace_nodes, generator)
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


def _components(d: Diagram) -> dict[str, list[int]]:
    """The node ids of the top-level multiset by kind, each in id order."""
    by_kind: dict[str, list[int]] = {}
    for c in sorted(_spine(d)[1]):
        by_kind.setdefault(d.nodes[c].kind, []).append(c)
    return by_kind


def find_diagram_redexes(td: TopDiagram) -> list[DiagramRedex]:
    """All (send, receive) matches in the top-level multiset, each gated by the first permit."""
    d = td.diagram
    comps = _components(d)
    if "comm" not in comps:
        return []
    sends, recvs = comps.get("send", []), comps.get("recv", [])
    subject = {c: trace_subject(d, d.producer(("in", c, 0))) for c in sends + recvs}
    return [DiagramRedex(o, i, comps["comm"][0], d.nodes[o].arity) for o in sends for i in recvs
            if d.nodes[o].arity == d.nodes[i].arity and subject[o] == subject[i]]


def _disjoint(rs: tuple[DiagramRedex, ...]) -> bool:
    """No two redexes share a send or receive node."""
    nodes = [x for r in rs for x in (r.output_node, r.input_node)]
    return len(nodes) == len(set(nodes))


def _fire_on(d: Diagram, r: DiagramRedex) -> None:
    """Fire one checked redex of the normal diagram d in place, leaving d normal."""
    o, i = r.output_node, r.input_node
    t = d.producer(("in", i, 1))[1]
    spine, slot = d.consumer(("out", o, 0))[1:]
    prods = [*(d.producer(("in", o, 1 + k)) for k in range(r.arity)),
             *(d.producer(("in", t, j)) for j in range(d.nodes[t].cap))]
    sources = {trace_subject(d, p)
               for p in (d.producer(("in", o, 0)), d.producer(("in", i, 0)), *prods)}
    _replace_nodes(d, (o, i, t), d.nodes[t].inner, prods, [("in", spine, slot)])
    _respine(d, spine)
    # in root id order, as the normalization pass met them: new ids keep its relative order
    for src in sorted(sources, key=lambda s: d.consumer(s)[1]):
        _prune(d, src)


def _respine(d: Diagram, spine: int) -> None:
    """Rebuild the spine par over its wired slots, opening the body's result par or stop."""
    doomed, leaves = [spine], []
    for k in range(d.nodes[spine].arity):
        p = d._src.get(("in", spine, k))  # None in the receive's slot
        if p is not None and d.nodes[p[1]].kind in ("par", "stop"):
            doomed.append(p[1])
            leaves += [d.producer(q) for q in d.in_ports(p[1])]
        elif p is not None:
            leaves.append(p)
    outer = d.consumer(("out", spine, 0))
    for nid in doomed:
        _detach(d, nid)
    _rebuild_fanin(d, leaves, outer)


def _prune(d: Diagram, src: Port) -> None:
    """Rebuild the copy tree under src over its wired, non-discard leaves, where it needs it.

    A name or fresh source left with no leaf is deleted, and a domain port gets a discard.
    """
    root = d.consumer(src)
    kind = d.nodes[root[1]].kind
    if kind not in ("copy", "discard") or kind == "discard" and src[0] == "dom":
        return
    doomed, leaves, stack = [], [], [root]
    while stack:
        port = stack.pop()
        node = d.nodes[port[1]]
        if node.kind == "copy":
            outs = [d._dst.get(("out", port[1], k)) for k in range(node.arity)]
            stack += [c for c in reversed(outs) if c is not None]
        if node.kind in ("copy", "discard"):
            doomed.append(port[1])
        else:
            leaves.append(port)
    if kind == "copy" and doomed == [root[1]] and len(leaves) == d.nodes[root[1]].arity:
        return  # one copy over wired leaves: already normal
    for nid in doomed:
        _detach(d, nid)
    if leaves or src[0] == "dom":
        _rebuild_fanout(d, src, leaves)
    else:
        _detach(d, src[1])


def _fire(td: TopDiagram, rs: tuple[DiagramRedex, ...]) -> TopDiagram:
    """Fire a valid joint step of td on one copy, one redex at a time, each leaving it normal."""
    d = td.diagram.copy()
    for r in rs:
        _fire_on(d, r)
    return TopDiagram(d, td.name_order)


def apply_comm(td: TopDiagram, r: DiagramRedex) -> TopDiagram:
    """Fire one redex; the permit survives and the result is normal."""
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
    permit_ids = _components(td.diagram).get("comm", [])
    k = len(permit_ids) if permits is None else min(permits, len(permit_ids))
    redexes = find_diagram_redexes(td)
    joint = [rs for size in range(1, k + 1) for rs in combinations(redexes, size) if _disjoint(rs)]
    maximal = (rs for rs in joint
               if len(rs) == k or not any(_disjoint(rs + (r,)) for r in redexes if r not in rs))
    return [tuple(replace(r, catalyst=c) for r, c in zip(rs, permit_ids)) for rs in maximal]


def apply_concurrent(td: TopDiagram, rs: tuple[DiagramRedex, ...]) -> TopDiagram:
    """Fire a joint step of td, one redex at a time; each firing leaves the diagram normal.

    Raises ``StaleDiagramRedexError`` unless rs is a joint step by the rule in
    the module docstring.
    """
    found = {(r.output_node, r.input_node, r.arity) for r in find_diagram_redexes(td)}
    permits = _components(td.diagram).get("comm", [])
    if not (all((r.output_node, r.input_node, r.arity) in found and r.catalyst in permits
                for r in rs)
            and _disjoint(rs) and len({r.catalyst for r in rs}) == len(rs)):
        raise StaleDiagramRedexError(f"{rs} is not a joint step of the diagram")
    return _fire(td, rs)
