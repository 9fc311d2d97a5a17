"""Interpretation of process terms as diagrams, and contexts as diagram contexts.

The translation is structurally recursive and builds flat trees.  Every free
name of a term becomes one N port of the diagram's domain (in sorted name
order); a name used k times fans out through one copy node, and a name bound
but unused ends in a discard.  A parallel tree, seen through restrictions,
becomes one par node over its leaves, stops included.  Input continuations
are boxed into thunks whose message parameters are designated ports and whose
remaining free names enter the box as captured wires.  Restriction plugs a
fresh source into the binder's wire.  Outside a context, each input term is
boxed once per process: a weak table keyed by the interned term keeps its
thunk node, which every translation meeting the term shares (nodes and bodies
never change), so its body is normalized and signed once.

The top-level form is built in one place, ``seal``: it adds a configurable
number of communication permits in parallel with an open diagram (a
translation, or a plugged context), as further inputs of its output's par
node if it has one, and optionally instantiates every free name with a
name-constant node, closing the domain.  It owns the diagram, and normalizes
it in place.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

from .diagram import (
    Diagram,
    InterfaceError,
    N,
    Node,
    P,
    Port,
    _normalized,
    _rebuild_fanin,
    _rebuild_fanout,
    _replace_nodes,
    signature,
)
from .syntax import Hole, Input, Name, New, Output, Par, Process, Stop, fold_par, par_leaves


def _emit(p: Process, d: Diagram, hole_names: tuple[Name, ...] | None = None
          ) -> tuple[list[Port], dict[Name, list[Port]]]:
    """Build p's nodes inside d; returns its parallel leaves' P outputs and open name demands."""
    match p:
        case Stop():
            return [("out", d.add("stop"), 0)], {}
        case Output(subject, args):
            nid = d.add("send", arity=len(args))
            demands: dict[Name, list[Port]] = {}
            for i, a in enumerate((subject, *args)):
                demands.setdefault(a, []).append(("in", nid, i))
            return [("out", nid, 0)], demands
        case Par():
            outs: list[Port] = []
            demands = {}
            for q in par_leaves(p):
                qo, qd = _emit(q, d, hole_names)
                outs += qo
                for name, ports in qd.items():
                    demands.setdefault(name, []).extend(ports)
            return outs, demands
        case New(binder, body):
            bo, bd = _emit(body, d, hole_names)
            nid = d.add("fresh")
            _rebuild_fanout(d, ("out", nid, 0), bd.pop(binder, []))
            return bo, bd
        case Input(subject, params, _):
            thunk, captured = _thunk(p, hole_names)
            tid = d.put(thunk)
            rid = d.add("recv", arity=len(params))
            d.connect(("out", tid, 0), ("in", rid, 1))
            demands = {subject: [("in", rid, 0)]}
            for j, c in enumerate(captured):
                demands.setdefault(c, []).append(("in", tid, j))
            return [("out", rid, 0)], demands
        case Hole():
            if hole_names is None:
                raise ValueError("holes are only allowed in contexts")
            nid = d.add("hole", arity=len(hole_names))
            demands = {}
            for i, name in enumerate(hole_names):
                demands.setdefault(name, []).append(("in", nid, i))
            return [("out", nid, 0)], demands
    raise TypeError(f"not a process: {p!r}")


# The thunk node of each input term translated outside a context, and its captured names.
_THUNKS: weakref.WeakKeyDictionary[Input, tuple[Node, tuple[Name, ...]]] = weakref.WeakKeyDictionary()


def _thunk(p: Input, hole_names: tuple[Name, ...] | None) -> tuple[Node, tuple[Name, ...]]:
    """The thunk node boxing p's continuation, and the names it captures, in input order."""
    boxed = _THUNKS.get(p) if hole_names is None else None
    if boxed is None:
        inner, names = _open(p.body, hole_names, p.params)
        captured = names[len(p.params):]
        boxed = Node("thunk", len(p.params), len(captured), "", _normalized(inner)), captured
        if hole_names is None:
            _THUNKS[p] = boxed
    return boxed


def _open(p: Process, hole_names: tuple[Name, ...] | None = None, params: tuple[Name, ...] = ()
          ) -> tuple[Diagram, tuple[Name, ...]]:
    """The open diagram of p and its domain's names: ``params``, then the other free names, sorted."""
    d = Diagram()
    outs, demands = _emit(p, d, hole_names)
    _rebuild_fanin(d, outs, d.add_cod(P))
    names = (*params, *sorted(demands.keys() - set(params)))
    for name in names:
        _rebuild_fanout(d, d.add_dom(N), demands.get(name, []))
    return d, names


def translate(p: Process) -> Diagram:
    """The diagram of p: domain N^|fn(p)| (sorted name order), codomain P."""
    return _open(p)[0]


@dataclass(eq=False)
class TopDiagram:
    """A normalized diagram of a whole running term, permits included.

    The diagram is never changed, so its signature is computed once, on the
    first read of ``sig``.  An open form's domain ports stand for the names
    of ``name_order``, so its ``sig`` covers their ids too; an instantiated
    form has an empty domain, and its ``sig`` is its diagram's signature.
    Equality is ``top_equal`` and the hash is the ``sig``'s, so a set or dict
    of top diagrams keeps one entry per diagram-equality class.
    """

    diagram: Diagram
    name_order: tuple[Name, ...]

    @functools.cached_property
    def sig(self) -> str:
        sig = signature(self.diagram)
        if self.diagram.dom:
            sig += " " + " ".join(name.id for name in self.name_order)
        return sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopDiagram):
            return NotImplemented
        return top_equal(self, other)

    def __hash__(self) -> int:
        return hash(self.sig)


def seal(d: Diagram, names: tuple[Name, ...], catalysts: int = 1,
         instantiate: bool = True) -> TopDiagram:
    """The top-level form of an open diagram N^k -> P whose domain carries ``names``.

    Takes ownership of d, a fresh diagram from ``translate`` or ``plug_diagram``,
    and seals and normalizes it in place: ``catalysts`` communication permits join
    the par node that produces its codomain (or a new one), and with ``instantiate``
    each domain port's consumer is rewired to a name-constant node, closing the
    domain; otherwise free names stay as domain ports.
    """
    if catalysts < 0:
        raise ValueError("catalyst count must be >= 0")
    if catalysts:
        nid = d.producer(("cod", 0))[1]
        spine = d.nodes[nid]
        permits = [("out", d.add("comm"), 0) for _ in range(catalysts)]
        if spine.kind == "par":  # the permits join it: one par of arity n + catalysts
            d.nodes[nid] = spine._replace(arity=spine.arity + catalysts)
            for j, permit in enumerate(permits, spine.arity):
                d.connect(permit, ("in", nid, j))
        else:
            _rebuild_fanin(d, [d.disconnect(("cod", 0))] + permits, ("cod", 0))
    if instantiate:
        for k, name in enumerate(names):
            cons = d.consumer(("dom", k))
            d.disconnect(cons)
            d.connect(("out", d.add("name", label=name.id), 0), cons)
        d.dom = []
    return TopDiagram(_normalized(d), names)


def translate_top(p: Process, catalysts: int = 1, instantiate: bool = True) -> TopDiagram:
    """Translate p and seal it with ``catalysts`` permits (see ``seal``)."""
    return seal(*_open(p), catalysts, instantiate)


def top_equal(a: TopDiagram, b: TopDiagram) -> bool:
    """Diagram equality of top-level forms: equal signatures, and equal domain names if open."""
    return a.sig == b.sig


# ---------------------------------------------------------------------------
# Contexts


def count_holes(c: Process) -> int:
    holes = 0
    stack = [c]
    while stack:
        match stack.pop():
            case Hole():
                holes += 1
            case Input(_, _, body) | New(_, body):
                stack.append(body)
            case Par(left, right):
                stack += [left, right]
    return holes


def plug_term(c: Process, p: Process) -> Process:
    """Fill the hole of c with p.  Capture-permitting by design."""
    match c:
        case Hole():
            return p
        case Input(subject, params, body):
            return Input(subject, params, plug_term(body, p))
        case New(binder, body):
            return New(binder, plug_term(body, p))
        case Par():
            return fold_par(c, lambda q: plug_term(q, p), Par)
        case _:
            return c


@dataclass
class DiagramContext:
    """A diagram with one hole slot expecting a plug of interface N^k -> P.

    The hole's k inputs carry the plug names given to ``translate_context``,
    in order; plugging a diagram whose domain lists those names in the same
    order reproduces the translation of the syntactically plugged term.
    ``dom_names`` are the names of the context's own domain.
    """

    diagram: Diagram
    dom_names: tuple[Name, ...]


def translate_context(c: Process, plug_names: tuple[Name, ...]) -> DiagramContext:
    if count_holes(c) != 1:
        raise ValueError(f"context must contain exactly one hole, found {count_holes(c)}")
    d, dom_names = _open(c, plug_names)
    return DiagramContext(d, dom_names)


def _plugged(d: Diagram, f: Diagram) -> Diagram | None:
    """A copy of d with f spliced into its hole, or None if d has no hole.

    Thunk bodies are shared values, so a hole inside one is plugged in a copy
    of each body on the path to it, and each such thunk node is replaced by
    one that boxes the plugged body's normal form.
    """
    for nid in sorted(d.nodes):
        node = d.nodes[nid]
        if node.kind != "hole":
            continue
        k = node.arity
        if list(f.dom) != [N] * k or list(f.cod) != [P]:
            raise InterfaceError(
                f"plug interface mismatch: hole wants N^{k} -> P, got {f!r}"
            )
        h = d.copy()
        prods = [h.producer(("in", nid, j)) for j in range(k)]
        _replace_nodes(h, (nid,), f, prods, [h.consumer(("out", nid, 0))])
        return h
    for nid in sorted(d.nodes):
        node = d.nodes[nid]
        body = _plugged(node.inner, f) if node.inner is not None else None
        if body is not None:
            h = d.copy()
            h.nodes[nid] = node._replace(inner=_normalized(body))
            return h
    return None


def plug_diagram(ctx: DiagramContext, f: Diagram) -> Diagram:
    """Apply the context functor to a diagram: splice f into the hole."""
    d = _plugged(ctx.diagram, f)
    if d is None:
        raise ValueError("context diagram has no hole")
    return d
