"""The axiom-closure oracle for structural congruence, and the reference firing.

A breadth-first closure that applies single axiom steps (in both directions)
at arbitrary subterm positions and tests reachability up to
alpha-equivalence.  It shares nothing with ``canonical_form`` beyond the
term syntax, so it checks the congruence by an independent route.

``fire_by_comm_rule`` fires diagram redexes the long way, by the comm rule
and a whole-diagram normalization of its own (``_flatten`` per tree kind,
then ``_drop_scalars``), to check the local firing of ``rewrite``, which
rebuilds trees with ``diagram._respine`` and ``diagram._prune``.
"""

from __future__ import annotations

import functools

from pitwo.congruence import term_size
from pitwo.diagram import (Diagram, Port, _detach, _fire_betas, _rebuild_fanin, _rebuild_fanout,
                           _replace_nodes, generator, tensor)
from pitwo.rewrite import DiagramRedex
from pitwo.syntax import (
    Input,
    New,
    Par,
    Process,
    Stop,
    _alpha,
    free_names,
    fresh_name,
    substitute,
)
from pitwo.translate import TopDiagram


def alpha_key(p: Process) -> tuple:
    """A hashable key equal for exactly the alpha-equivalent terms."""
    return _alpha(p, {}, 0)


def _root_moves(p: Process):
    match p:
        case Par(a, b):
            yield Par(b, a)
            if isinstance(a, Par):
                yield Par(a.left, Par(a.right, b))
            if isinstance(b, Par):
                yield Par(Par(a, b.left), b.right)
            if isinstance(b, Stop):
                yield a
            if isinstance(a, New):
                x, inner = a.binder, a.body
                if x in free_names(b):
                    x2 = fresh_name(free_names(a) | free_names(b) | {x})
                    inner = substitute(inner, {x: x2})
                    x = x2
                yield New(x, Par(inner, b))
        case New(x, body):
            yield New(x, New(x, body))
            if isinstance(body, New):
                if x not in free_names(body):
                    yield body
                if body.binder != x:
                    yield New(body.binder, New(x, body.body))
            if isinstance(body, Par) and x not in free_names(body.right):
                yield Par(New(x, body.left), body.right)
    yield Par(p, Stop())


def _axiom_neighbors(p: Process):
    yield from _root_moves(p)
    match p:
        case Par(left, right):
            for l2 in _axiom_neighbors(left):
                yield Par(l2, right)
            for r2 in _axiom_neighbors(right):
                yield Par(left, r2)
        case New(binder, body):
            for b2 in _axiom_neighbors(body):
                yield New(binder, b2)
        case Input(subject, params, body):
            for b2 in _axiom_neighbors(body):
                yield Input(subject, params, b2)
        case _:
            pass


class ClassBudgetError(Exception):
    """An enumeration of a congruence class met more members than its budget allows."""


def congruence_closure_keys(p: Process, size_cap: int, max_depth: int = 10**9,
                            budget: int | None = None) -> frozenset[tuple]:
    """Alpha-keys of every term reachable from p by axiom steps within the cap.

    Raises ``ClassBudgetError`` once more than ``budget`` keys are found.
    """
    start = alpha_key(p)
    seen = {start}
    frontier = [p]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        nxt = []
        for t in frontier:
            for t2 in _axiom_neighbors(t):
                if term_size(t2) > size_cap:
                    continue
                k = alpha_key(t2)
                if k not in seen:
                    seen.add(k)
                    nxt.append(t2)
                    if budget is not None and len(seen) > budget:
                        raise ClassBudgetError(f"closure over {budget} keys")
        frontier = nxt
    return frozenset(seen)


def oracle_congruent(p: Process, q: Process, depth: int, size_cap: int | None = None) -> bool:
    """True iff q is reachable from p, up to alpha, within ``depth`` axiom steps.

    Intermediate terms are capped at max(|p|, |q|) + 1 nodes (or ``size_cap``),
    which keeps the search finite; with enough depth the verdict coincides
    with ``congruent``.
    """
    target = alpha_key(q)
    if alpha_key(p) == target:
        return True
    cap = size_cap if size_cap is not None else max(term_size(p), term_size(q)) + 1
    keys = congruence_closure_keys(p, cap, max_depth=depth)
    return target in keys


# ---------------------------------------------------------------------------
# Reference firing: the comm rule spliced in as one rewriting step, then a
# whole-diagram normalization pass, which fires the beta step, drops the stop
# in the receive's slot and the discards on both subjects.


def _flatten(d: Diagram, kind: str, unit: str) -> None:
    """Rebuild each maximal tree of ``kind`` nodes as one node without ``unit`` leaves.

    A par tree grows through par inputs, a copy tree through copy outputs;
    leaves keep their left-to-right order.  Only trees that need it are rebuilt.
    """
    fanin = kind == "par"
    ports, peer = (d.in_ports, d.producer) if fanin else (d.out_ports, d.consumer)

    def kind_at(port: Port) -> str | None:
        return d.nodes[port[1]].kind if port[0] in ("in", "out") else None

    for root in sorted(d.nodes):
        node = d.nodes.get(root)
        if node is None or node.kind != kind:
            continue
        outer = d.consumer(("out", root, 0)) if fanin else d.producer(("in", root, 0))
        if kind_at(outer) == kind:
            continue  # an inner node; its root rebuilds the whole tree
        stack = [peer(p) for p in ports(root)][::-1]
        if node.arity >= 2 and all(kind_at(c) not in (kind, unit) for c in stack):
            continue
        doomed, leaves = [root], []
        while stack:
            port = stack.pop()
            if kind_at(port) == kind:
                stack.extend([peer(p) for p in ports(port[1])][::-1])
            if kind_at(port) in (kind, unit):
                doomed.append(port[1])
            else:
                leaves.append(port)
        for nid in doomed:
            _detach(d, nid)
        if fanin:
            _rebuild_fanin(d, leaves, outer)
        else:
            _rebuild_fanout(d, outer, leaves)


def _drop_scalars(d: Diagram) -> None:
    """Delete each name or fresh source whose one consumer is a discard."""
    for nid in [n for n in sorted(d.nodes) if d.nodes[n].kind in ("name", "fresh")]:
        cons = d.consumer(("out", nid, 0))
        if cons[0] == "in" and d.nodes[cons[1]].kind == "discard":
            _detach(d, nid)
            _detach(d, cons[1])


@functools.cache
def _comm_rule(n: int) -> Diagram:
    """The comm rule's right-hand side at arity n: N.N.(N^n -o P).N^n -> P.P.

    Its domain takes the send's and the receive's subjects, the continuation
    and the message names; its codomain fills the send's and the receive's
    slots of the multiset.
    """
    return tensor(tensor(tensor(generator("discard"), generator("discard")),
                         generator("apply", arity=n)), generator("stop"))


def fire_by_comm_rule(td: TopDiagram, rs: tuple[DiagramRedex, ...]) -> TopDiagram:
    """The joint step rs of td fired through ``_comm_rule``, then normalized once."""
    d = td.diagram.copy()
    for r in rs:
        o, i = r.output_node, r.input_node
        prods = [d.producer(("in", o, 0)), d.producer(("in", i, 0)), d.producer(("in", i, 1)),
                 *(d.producer(("in", o, 1 + t)) for t in range(r.arity))]
        cons = [d.consumer(("out", o, 0)), d.consumer(("out", i, 0))]
        _replace_nodes(d, (o, i), _comm_rule(r.arity), prods, cons)
    _fire_betas(d)
    _flatten(d, "par", "stop")
    _flatten(d, "copy", "discard")
    _drop_scalars(d)
    return TopDiagram(d, td.name_order)
