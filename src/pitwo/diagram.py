"""Typed port-graphs: the 1-morphisms of the diagrammatic process semantics.

A diagram is an acyclic graph of generator nodes with typed ports, together
with an ordered domain/codomain interface.  Wires carry one of three types:
channel names (N), processes (P), or packaged continuations (N^n -o P).  The
generators:

    copy      N -> N^k        duplicate a name (k-way fan-out)
    discard   N -> I          drop a name
    par       P^k -> P        parallel composition (multiset node)
    stop      I -> P          the inert process
    send n    N x N^n -> P    output particle: subject plus n message names
    recv n    N x (N^n -o P) -> P   input prefix: subject plus continuation
    fresh     I -> N          a private channel source
    comm      I -> P          the communication permit consumed by no rewrite
    name x    I -> N          a global channel constant
    thunk     N^c -> (N^n -o P)     a boxed continuation with c captured names
    apply n   (N^n -o P) x N^n -> P  feed message names to a continuation
    hole      N^k -> P        plug position of a diagram context

Wire crossings are not represented, so diagrams equal modulo the symmetric
monoidal equations are identical by construction.  ``normalize`` additionally
quotients by the parallel-composition monoid laws, the copy/discard comonoid
laws and the beta step (apply over thunk), and always deletes closed name
sources that end in a discard.  ``equal`` compares normal forms up to
port-graph isomorphism and the exchange law of captured wires (a thunk's
captured inputs permute together with its body's captured domain ports):
first by ``_witness``, then, where it finds none, by their signatures.

Nodes are immutable values, and a thunk body is boxed in normal form and never
changed: ``Diagram.add`` stores the normal form of the body it is given, and
``Diagram.put`` (which ``_splice`` uses) adds a node as it is.  Copies of a
diagram, and translations of one input term, share nodes and bodies.  Code
that needs a changed body replaces the node with one boxing its normal form.
Every rewriting step is ``_replace_nodes``, which removes the matched nodes
and splices a right-hand side into the wire ends they met; a firing splices
the receiver's body and rebuilds only what it touched (``rewrite._fire_on``).

Normalization is one ordered pass, in place on a diagram the caller owns
(``_normalized``) or on one copy (``normalize``), and never descends into a
body: fire each apply fed by a thunk, rebuild each maximal par tree as one
node without stops and each maximal copy tree as one node without discards,
then delete each name or fresh source that feeds a discard.  One pass is
enough because no step makes work for an earlier one: a normal body holds no
apply, so splicing it makes no beta redex; par and copy trees share no wire
type; and a deleted source-discard pair belongs to neither tree.  Tree walks
use an explicit stack.

``_refine`` colours a diagram with canonical integers until the number of
colour classes stops changing, folding every round's table into one digest;
``_coloring`` gives the node ids of ``to_json`` and ``to_dot`` from it.
Where the colouring has no ties it is a canonical labelling; where ties
remain, ``_least_leaf`` refines it to one by individualization-refinement
(McKay and Piperno, "Practical graph isomorphism II", 2014).  ``signature``
hashes the certificate of that labelling, so diagrams are isomorphic iff their
signatures are equal.  ``isomorphic`` first looks for an explicit isomorphism
that pairs each port with the same port of its image (``_witness``, one walk
from the interface), which two diagrams built in one port order have, and
compares signatures only when the walk fails.  A top-level form
(``translate.TopDiagram``) hashes a key read off its nodes, and is signed only
when keys collide and the walk fails.  A diagram caches nothing; signatures
are kept only by boxed bodies (``_body_signature``) and ``TopDiagram.sig``.

The labelled graph inlines the body of each thunk with two or more captured
inputs (``_graph``): the captured wires run from their producers straight to
their consumers in the body, so their order never reaches the labelling and
the exchange law holds by construction.  Any other thunk body is signed on
its own, once, and enters its node's colour as that signature; a thunk with
at most one captured input has no order to forget.
"""

from __future__ import annotations

import functools
import graphlib
import hashlib
import itertools
import json
import weakref
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, Union


# ---------------------------------------------------------------------------
# Wire types


@dataclass(frozen=True)
class NameT:
    def __str__(self) -> str:
        return "N"


@dataclass(frozen=True)
class ProcT:
    def __str__(self) -> str:
        return "P"


@dataclass(frozen=True)
class HomT:
    """The continuation type N^arity -o P."""

    arity: int

    def __str__(self) -> str:
        return f"N^{self.arity}-oP"


WireType = Union[NameT, ProcT, HomT]

N = NameT()
P = ProcT()


# ---------------------------------------------------------------------------
# Nodes and ports


class DiagramError(ValueError):
    pass


class InterfaceError(DiagramError):
    pass


@functools.cache
def _port_table(k: str, n: int, cap: int) -> tuple[tuple[WireType, ...], tuple[WireType, ...]]:
    """The (input, output) port types of a generator, built once per (kind, arity, cap)."""
    if k == "copy":
        return (N,), (N,) * n
    if k == "discard":
        return (N,), ()
    if k == "par":
        return (P,) * n, (P,)
    if k == "stop":
        return (), (P,)
    if k == "send":
        return (N,) * (1 + n), (P,)
    if k == "recv":
        return (N, HomT(n)), (P,)
    if k == "fresh":
        return (), (N,)
    if k == "comm":
        return (), (P,)
    if k == "name":
        return (), (N,)
    if k == "thunk":
        return (N,) * cap, (HomT(n),)
    if k == "apply":
        return (HomT(n),) + (N,) * n, (P,)
    if k == "hole":
        return (N,) * n, (P,)
    raise DiagramError(f"unknown generator kind: {k!r}")


class Node(NamedTuple):
    """A generator node, an immutable value; a thunk's body is ``inner``, in normal form.

    Copies of a diagram share its nodes, and through them the bodies, so a
    body is never changed once it is in a node, and the signature that
    ``_body_signature`` keeps for it never goes stale.  To change a body,
    build a new one and replace the node (``node._replace(inner=normalize(body))``).
    """

    kind: str
    arity: int = 0
    cap: int = 0
    label: str = ""
    inner: "Diagram | None" = None

    def ports(self) -> tuple[tuple[WireType, ...], tuple[WireType, ...]]:
        return _port_table(self.kind, self.arity, self.cap)


# Port groups whose order is quotiented away (commutative par, cocommutative
# copy): their wires compare as multisets.
_UNORDERED = {("par", "in"), ("copy", "out")}

Port = tuple  # ('in', nid, k) | ('out', nid, k) | ('dom', k) | ('cod', k)


class Diagram:
    """A mutable builder treated as immutable once handed out.

    All public operations (compose, tensor, normalize, ...) copy their
    arguments; nothing mutates a diagram a caller still holds.  A copy is
    shallow: it has its own node table, wires and interface, and shares the
    immutable nodes and thunk bodies.  ``add`` boxes a body as its normal
    form, so every body in the table is normal.  A diagram caches nothing,
    so code may assign ``dom``, ``cod`` or an entry of ``nodes`` directly.
    Two diagrams that differ only in the order of a thunk's captured inputs,
    with its body's captured domain ports permuted alike, are the same
    morphism.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self.dom: list[WireType] = []
        self.cod: list[WireType] = []
        self._next = 0
        self._dst: dict[Port, Port] = {}
        self._src: dict[Port, Port] = {}

    # -- construction ------------------------------------------------------

    def add(self, kind: str, arity: int = 0, cap: int = 0, label: str = "",
            inner: "Diagram | None" = None) -> int:
        """Add a node; a thunk body ``inner`` is boxed as its normal form."""
        if inner is not None:
            inner = normalize(inner)
        # _make skips the __init__ step of calling the class: a third cheaper
        return self.put(Node._make((kind, arity, cap, label, inner)))

    def put(self, node: Node) -> int:
        """Add a node value as it is, sharing its body, which must be normal."""
        nid = self._next
        self._next += 1
        self.nodes[nid] = node
        return nid

    def add_dom(self, t: WireType) -> Port:
        self.dom.append(t)
        return ("dom", len(self.dom) - 1)

    def add_cod(self, t: WireType) -> Port:
        self.cod.append(t)
        return ("cod", len(self.cod) - 1)

    def port_type(self, port: Port) -> WireType:
        side = port[0]
        if side == "dom":
            return self.dom[port[1]]
        if side == "cod":
            return self.cod[port[1]]
        ins, outs = self.nodes[port[1]].ports()
        return ins[port[2]] if side == "in" else outs[port[2]]

    def connect(self, src: Port, dst: Port) -> None:
        if src[0] not in ("out", "dom") or dst[0] not in ("in", "cod"):
            raise DiagramError(f"bad wire direction {src} -> {dst}")
        if src in self._dst or dst in self._src:
            raise DiagramError(f"port already wired: {src} -> {dst}")
        # One lookup per end: a node port's type comes from its port table.
        if src[0] == "dom":
            st = self.dom[src[1]]
        else:
            node = self.nodes[src[1]]
            st = _port_table(node.kind, node.arity, node.cap)[1][src[2]]
        if dst[0] == "cod":
            dt = self.cod[dst[1]]
        else:
            node = self.nodes[dst[1]]
            dt = _port_table(node.kind, node.arity, node.cap)[0][dst[2]]
        if st != dt:
            raise InterfaceError(f"type mismatch on wire {src}:{st} -> {dst}:{dt}")
        self._dst[src] = dst
        self._src[dst] = src

    def disconnect(self, dst: Port) -> Port:
        """Remove the wire into consumer port dst; returns its producer."""
        src = self._src.pop(dst)
        del self._dst[src]
        return src

    # -- queries -----------------------------------------------------------

    def producer(self, dst: Port) -> Port:
        return self._src[dst]

    def consumer(self, src: Port) -> Port:
        return self._dst[src]

    def wires(self) -> Iterator[tuple[Port, Port]]:
        return iter(sorted(self._dst.items()))

    def node_count(self) -> int:
        return len(self.nodes)

    def in_ports(self, nid: int) -> list[Port]:
        ins, _ = self.nodes[nid].ports()
        return [("in", nid, k) for k in range(len(ins))]

    def out_ports(self, nid: int) -> list[Port]:
        _, outs = self.nodes[nid].ports()
        return [("out", nid, k) for k in range(len(outs))]

    def copy(self) -> "Diagram":
        d = Diagram()
        d.nodes = dict(self.nodes)
        d.dom = list(self.dom)
        d.cod = list(self.cod)
        d._next = self._next
        d._dst = dict(self._dst)
        d._src = dict(self._src)
        return d

    def validate(self) -> None:
        """Check the port-graph invariants: total wiring, typing, acyclicity."""
        for nid in self.nodes:
            for p in self.in_ports(nid):
                if p not in self._src:
                    raise DiagramError(f"unwired port {p}")
            for p in self.out_ports(nid):
                if p not in self._dst:
                    raise DiagramError(f"unwired port {p}")
        for k in range(len(self.dom)):
            if ("dom", k) not in self._dst:
                raise DiagramError(f"unwired domain port {k}")
        for k in range(len(self.cod)):
            if ("cod", k) not in self._src:
                raise DiagramError(f"unwired codomain port {k}")
        for src, dst in self._dst.items():
            if self.port_type(src) != self.port_type(dst):
                raise InterfaceError(f"ill-typed wire {src} -> {dst}")
        # acyclicity over node-to-node wires
        preds: dict[int, set[int]] = {nid: set() for nid in self.nodes}
        for src, dst in self._dst.items():
            if src[0] == "out" and dst[0] == "in":
                preds[dst[1]].add(src[1])
        try:
            graphlib.TopologicalSorter(preds).prepare()
        except graphlib.CycleError as exc:
            raise DiagramError("cycle through node %d" % exc.args[1][0]) from None
        for node in self.nodes.values():
            if node.inner is not None:
                node.inner.validate()

    def __repr__(self) -> str:
        dom = " . ".join(str(t) for t in self.dom) or "I"
        cod = " . ".join(str(t) for t in self.cod) or "I"
        return f"<Diagram {dom} -> {cod}, {len(self.nodes)} nodes, {len(self._dst)} wires>"


# ---------------------------------------------------------------------------
# Categorical structure


def empty() -> Diagram:
    return Diagram()


def identity(types: Sequence[WireType]) -> Diagram:
    d = Diagram()
    for t in types:
        src = d.add_dom(t)
        dst = d.add_cod(t)
        d.connect(src, dst)
    return d


def permutation(types: Sequence[WireType], perm: Sequence[int]) -> Diagram:
    """Wires domain position i to codomain position perm[i]."""
    if sorted(perm) != list(range(len(types))):
        raise InterfaceError(f"not a permutation: {perm}")
    d = Diagram()
    for t in types:
        d.add_dom(t)
    out_types: list[WireType] = [N] * len(types)
    for i, j in enumerate(perm):
        out_types[j] = types[i]
    for t in out_types:
        d.add_cod(t)
    for i, j in enumerate(perm):
        d.connect(("dom", i), ("cod", j))
    return d


def generator(kind: str, arity: int = 0, cap: int = 0, label: str = "",
              inner: Diagram | None = None) -> Diagram:
    """A single generator node with its canonical interface."""
    d = Diagram()
    nid = d.add(kind, arity, cap, label, inner)
    ins, outs = d.nodes[nid].ports()
    for k, t in enumerate(ins):
        d.connect(d.add_dom(t), ("in", nid, k))
    for k, t in enumerate(outs):
        d.connect(("out", nid, k), d.add_cod(t))
    return d


def _splice(d: Diagram, sub: Diagram, dom_prods: list[Port], cod_cons: list[Port]) -> None:
    """Inline sub's nodes into d as they are, bodies shared, gluing its boundary to the ports."""
    mapping = {nid: d.put(sub.nodes[nid]) for nid in sorted(sub.nodes)}

    def msrc(p: Port) -> Port:
        if p[0] == "dom":
            return dom_prods[p[1]]
        return ("out", mapping[p[1]], p[2])

    def mdst(p: Port) -> Port:
        if p[0] == "cod":
            return cod_cons[p[1]]
        return ("in", mapping[p[1]], p[2])

    for src, dst in sub.wires():
        d.connect(msrc(src), mdst(dst))


def compose(f: Diagram, g: Diagram) -> Diagram:
    """Plug f's codomain into g's domain."""
    if f.cod != g.dom:
        raise InterfaceError(f"cannot compose {f!r} with {g!r}")
    h = f.copy()
    mid_prods = [h.disconnect(("cod", k)) for k in range(len(h.cod))]
    h.cod = []
    _splice(h, g, mid_prods, [h.add_cod(t) for t in g.cod])
    return h


def tensor(f: Diagram, g: Diagram) -> Diagram:
    """Place f and g side by side; interfaces concatenate."""
    h = f.copy()
    dom_prods = [h.add_dom(t) for t in g.dom]
    cod_cons = [h.add_cod(t) for t in g.cod]
    _splice(h, g, dom_prods, cod_cons)
    return h


def curry(arity: int, body: Diagram) -> Diagram:
    """Box a continuation body into a thunk of the given message arity.

    The body must produce a single P and consume N wires only; the first
    ``arity`` domain ports are the message parameters, the rest are captured
    names that become inputs of the thunk node.
    """
    if list(body.cod) != [P]:
        raise InterfaceError("thunk body must produce a single P")
    if any(t != N for t in body.dom):
        raise InterfaceError("thunk body must consume N wires only")
    if len(body.dom) < arity:
        raise InterfaceError(f"body has {len(body.dom)} ports, needs >= {arity}")
    cap = len(body.dom) - arity
    return generator("thunk", arity=arity, cap=cap, inner=body)


def apply_ev(thunk: Diagram, args: Diagram) -> Diagram:
    """Feed args (producing N^n) to a continuation (producing N^n -o P)."""
    if len(thunk.cod) != 1 or not isinstance(thunk.cod[0], HomT):
        raise InterfaceError("first argument must produce a continuation wire")
    n = thunk.cod[0].arity
    if list(args.cod) != [N] * n:
        raise InterfaceError(f"arity mismatch: continuation wants {n} names")
    return compose(tensor(thunk, args), generator("apply", arity=n))


# ---------------------------------------------------------------------------
# Normalization


def _detach(d: Diagram, nid: int) -> None:
    """Disconnect every wire at node nid and remove it."""
    ins, outs = d.nodes.pop(nid).ports()
    for k in range(len(ins)):
        if (src := d._src.pop(("in", nid, k), None)) is not None:
            del d._dst[src]
    for k in range(len(outs)):
        if (dst := d._dst.pop(("out", nid, k), None)) is not None:
            del d._src[dst]


def _replace_nodes(d: Diagram, nids: Sequence[int], rule: Diagram,
                   prods: list[Port], cons: list[Port]) -> None:
    """One rewriting step in place: remove the nodes nids and splice rule into their boundary.

    ``prods`` feed rule's domain and ``cons`` take its codomain; they are the
    wire ends the removed nodes met, which the caller gathers before the call.
    """
    for nid in nids:
        _detach(d, nid)
    _splice(d, rule, prods, cons)


def _fire_betas(d: Diagram) -> None:
    """Replace every apply fed by a thunk with the thunk's body."""
    for nid in [n for n in sorted(d.nodes) if d.nodes[n].kind == "apply"]:
        hom = d.producer(("in", nid, 0))
        if hom[0] != "out" or d.nodes[hom[1]].kind != "thunk":
            continue
        t = hom[1]
        tnode = d.nodes[t]
        arg_prods = [d.producer(("in", nid, 1 + i)) for i in range(d.nodes[nid].arity)]
        cap_prods = [d.producer(("in", t, j)) for j in range(tnode.cap)]
        _replace_nodes(d, (nid, t), tnode.inner, arg_prods + cap_prods,
                       [d.consumer(("out", nid, 0))])


def _rebuild_fanin(d: Diagram, prods: list[Port], out_cons: Port) -> None:
    """Wire a list of P producers into out_cons through a par node if needed."""
    if len(prods) == 1:
        d.connect(prods[0], out_cons)
    elif not prods:
        z = d.add("stop")
        d.connect(("out", z, 0), out_cons)
    else:
        c = d.add("par", arity=len(prods))
        for k, pr in enumerate(prods):
            d.connect(pr, ("in", c, k))
        d.connect(("out", c, 0), out_cons)


def _rebuild_fanout(d: Diagram, in_prod: Port, cons: list[Port]) -> None:
    """Wire a name producer to a list of N consumers through a copy if needed."""
    if len(cons) == 1:
        d.connect(in_prod, cons[0])
    elif not cons:
        dd = d.add("discard")
        d.connect(in_prod, ("in", dd, 0))
    else:
        c = d.add("copy", arity=len(cons))
        d.connect(in_prod, ("in", c, 0))
        for k, cn in enumerate(cons):
            d.connect(("out", c, k), cn)


def _flatten(d: Diagram, kind: str, unit: str) -> None:
    """Rebuild each maximal tree of ``kind`` nodes as one node without ``unit`` leaves.

    A par tree grows through par inputs, a copy tree through copy outputs;
    leaves keep their left-to-right order.  Only trees that need it are rebuilt.
    """
    fanin = kind == "par"
    ports, peer = (d.in_ports, d.producer) if fanin else (d.out_ports, d.consumer)

    def kind_at(port: Port) -> str | None:
        return d.nodes[port[1]].kind if port[0] in ("in", "out") else None

    def children(nid: int) -> list[Port]:
        return [peer(p) for p in ports(nid)]

    for root in sorted(d.nodes):
        node = d.nodes.get(root)
        if node is None or node.kind != kind:
            continue
        outer = d.consumer(("out", root, 0)) if fanin else d.producer(("in", root, 0))
        if kind_at(outer) == kind:
            continue  # an inner node; its root rebuilds the whole tree
        stack = children(root)[::-1]
        if node.arity >= 2 and all(kind_at(c) not in (kind, unit) for c in stack):
            continue
        doomed, leaves = [root], []
        while stack:
            port = stack.pop()
            if kind_at(port) == kind:
                stack.extend(children(port[1])[::-1])
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


def normalize(d: Diagram) -> Diagram:
    """The normal form of d under the diagram equations, as a new diagram."""
    return _normalized(d.copy())


def _normalized(d: Diagram) -> Diagram:
    """Normalize d in place by the one ordered pass of the module docstring; returns d.

    Idempotent.  Bodies are normal from the moment they are boxed, so the pass
    never descends into them.
    """
    _fire_betas(d)
    _flatten(d, "par", "stop")
    _flatten(d, "copy", "discard")
    _drop_scalars(d)
    return d


# ---------------------------------------------------------------------------
# Canonical labelling and equality


# Peer keys of boundary ports; node ids and colours are >= 0.
_DOM, _COD = -1, -2
# Port classes of an inlined body's links to its thunk: each body node's owner
# link and the body's result; message parameter k has class -5 - k.
_OWNER, _RESULT = -3, -4


# Signatures of boxed bodies, which never change (see ``Node``), dropped with each body.
_BODY_SIGNATURES: weakref.WeakKeyDictionary[Diagram, str] = weakref.WeakKeyDictionary()


def _body_signature(body: Diagram) -> str:
    sig = _BODY_SIGNATURES.get(body)
    if sig is None:
        sig = _BODY_SIGNATURES[body] = signature(body)
    return sig


def _graph(d: Diagram) -> tuple[dict[int, tuple], dict[int, tuple[list, list]], list]:
    """The round-0 descriptors and links that ``_refine`` takes, and each wire's ends.

    A wire end is (node key, port class) or (_DOM/_COD, position); unordered
    ports are class -1.  A thunk with two or more captured inputs is inlined:
    its body's nodes join the graph under fresh keys, each with an owner link
    to the thunk, and the body's result and message parameters become links
    to the thunk too.  Each captured wire runs from its producer outside the
    thunk straight to its consumer in the body, so capture order is not in
    the graph (the exchange law).  Any other thunk body enters its node's
    descriptor as its signature.
    """
    descs: dict[int, tuple] = {}
    wires: list = []
    fresh = itertools.count(d._next)
    # each level: a diagram, its node keys, the key of its thunk (None for d),
    # and the end that feeds each of its domain ports (None for d)
    levels: list = [(d, {nid: nid for nid in d.nodes}, None, None)]
    for g, key, owner, feeds in levels:

        def end(port: Port) -> tuple[int, int]:
            side = port[0]
            if side == "dom":
                return (_DOM, port[1]) if feeds is None else feeds[port[1]]
            if side == "cod":
                return (_COD, port[1]) if owner is None else (owner, _RESULT)
            nid = port[1]
            return (key[nid], -1 if (g.nodes[nid].kind, side) in _UNORDERED else port[2])

        inlined = set()
        for nid, node in g.nodes.items():
            k, body = key[nid], node.inner
            if owner is not None:
                wires.append(((k, _OWNER), (owner, _OWNER)))
            if body is not None and node.cap >= 2:
                inlined.add(nid)
                descs[k] = (node.kind, node.arity, node.cap, node.label, "")
                params = [(k, -5 - i) for i in range(node.arity)]
                caps = [end(g._src[("in", nid, j)]) for j in range(node.cap)]
                levels.append((body, {b: next(fresh) for b in body.nodes}, k, params + caps))
            else:
                descs[k] = (node.kind, node.arity, node.cap, node.label,
                            _body_signature(body) if body is not None else "")
        # a wire into an inlined thunk is carried on by the body's level
        wires += [(end(src), end(dst)) for src, dst in g._dst.items()
                  if dst[0] != "in" or dst[1] not in inlined]
    links: dict[int, tuple[list, list]] = {k: ([], []) for k in descs}
    for (sk, sc), (dk, dc) in wires:
        if sk >= 0:
            links[sk][1].append((sc, dk, dc))
        if dk >= 0:
            links[dk][0].append((dc, sk, sc))
    return descs, links, wires


def _number(descs: dict[int, tuple], digest) -> tuple[dict[int, int], int]:
    """Colour each node by the rank of its descriptor among the distinct ones.

    The ranked table and its class sizes are folded into ``digest``, so two
    diagrams that end with the same digest met the same tables in every round.
    """
    table = sorted(set(descs.values()))
    rank = {desc: i for i, desc in enumerate(table)}
    colors = {nid: rank[desc] for nid, desc in descs.items()}
    sizes = [0] * len(table)
    for c in colors.values():
        sizes[c] += 1
    digest.update(repr((table, sizes)).encode())
    return colors, len(table)


def _coloring(d: Diagram) -> tuple[str, dict[int, int]]:
    """The stable colour refinement of d: (digest of all rounds, colour per node).

    Colours are canonical integers: isomorphic diagrams get the same digest
    and corresponding nodes the same colour.  Only d's own nodes are listed,
    not the nodes of inlined bodies.
    """
    descs, links, _ = _graph(d)
    digest, colors = _refine(descs, links)
    return digest, {nid: colors[nid] for nid in d.nodes}


def _refine(descs: dict[int, tuple], links: dict[int, tuple[list, list]]
            ) -> tuple[str, dict[int, int]]:
    """Refine round-0 descriptors by the colours of each node's wire ends.

    ``links`` gives each node's (in, out) ends as (own class, peer key, peer
    class); rounds stop when the number of colour classes stops changing.
    """
    digest = hashlib.sha256()
    colors, count = _number(descs, digest)
    while count < len(links):
        colors[_DOM], colors[_COD] = _DOM, _COD
        descs = {
            nid: (colors[nid],
                  tuple(sorted((own, colors[key], pc) for own, key, pc in ins)),
                  tuple(sorted((own, colors[key], pc) for own, key, pc in outs)))
            for nid, (ins, outs) in links.items()
        }
        colors, refined = _number(descs, digest)
        if refined == count:
            break
        count = refined
    return digest.hexdigest(), colors


def _wire_table(colors: dict[int, int], wires: list) -> tuple:
    """The sorted wires between coloured ends; boundary keys stand for themselves."""
    return tuple(sorted(((colors.get(sk, sk), sc), (colors.get(dk, dk), dc))
                        for (sk, sc), (dk, dc) in wires))


def _target_cell(colors: dict[int, int]) -> list[int]:
    """The nodes of the first smallest colour class with two or more nodes, or []."""
    if len(set(colors.values())) == len(colors):
        return []  # discrete: no two nodes share a colour
    cells: dict[int, list[int]] = {}
    for nid, c in sorted(colors.items()):
        cells.setdefault(c, []).append(nid)
    tied = (m for m in cells.values() if len(m) > 1)
    return min(tied, key=lambda m: (len(m), colors[m[0]]), default=[])


def _unsearched(cell: list[int], tried: list[int], gens: list[dict[int, int]]) -> int | None:
    """The first node of cell outside the orbits of the tried nodes under gens."""
    orbit, todo = set(tried), list(tried)
    while todo:
        x = todo.pop()
        for y in {g.get(x, x) for g in gens} - orbit:
            orbit.add(y)
            todo.append(y)
    return next((w for w in cell if w not in orbit), None)


def _least_leaf(descs: dict[int, tuple], links: dict[int, tuple[list, list]],
                wires: list, root: tuple[str, dict[int, int]]) -> tuple[str, tuple]:
    """The least leaf certificate of the individualization-refinement tree under ``root``.

    A tree node is a sequence of nodes, coloured by ``_refine`` with the i-th
    marked i in its round-0 descriptor; it has one child per node of its first
    smallest tied cell.  A leaf's colouring is discrete, and its certificate
    is its digest (which fixes each node's marked descriptor) and its wires.
    A leaf whose certificate equals the first or the least leaf's gives an
    automorphism mapping that leaf's sequence onto its own, so the subtree
    where the two sequences part is abandoned, and children in one orbit of
    the automorphisms that fix their parent's sequence are searched once.
    Swapping two twins, nodes with equal descriptors and wire ends, is an
    automorphism known from the start.
    """
    digest, colors = root
    cell = _target_cell(colors)
    if not cell:
        return digest, _wire_table(colors, wires)
    first = best = None  # (certificate, sequence, colours) of a leaf
    twins: dict[tuple, list[int]] = {}
    for nid, (ins, outs) in sorted(links.items()):
        twins.setdefault((descs[nid], tuple(sorted(ins)), tuple(sorted(outs))), []).append(nid)
    auts = [{u: v, v: u} for group in twins.values() for u, v in zip(group, group[1:])]
    stack: list[tuple[list[int], list[int], list[int]]] = [([], cell, [])]
    while stack:
        seq, cell, tried = stack[-1]
        w = _unsearched(cell, tried, [g for g in auts if all(g.get(v, v) == v for v in seq)])
        if w is None:
            stack.pop()
            continue
        tried.append(w)
        seq = seq + [w]
        marked = {v: descs[v] + (i,) for i, v in enumerate(seq, 1)}
        digest, colors = _refine({**descs, **marked}, links)
        cell = _target_cell(colors)
        if cell:
            stack.append((seq, cell, []))
            continue
        leaf = ((digest, _wire_table(colors, wires)), seq, colors)
        if first is None:
            first = best = leaf
            continue
        for cert, earlier, at in (first, best):
            if leaf[0] == cert:
                node_of = {c: nid for nid, c in colors.items()}
                auts.append({nid: node_of[c] for nid, c in at.items()})
                split = next(i for i, (u, v) in enumerate(zip(earlier, seq)) if u != v)
                del stack[split + 1:]
                break
        else:
            if leaf[0] < best[0]:
                best = leaf
    return best[0]


def signature(d: Diagram) -> str:
    """A run-stable canonical hash, equal iff the diagrams are isomorphic.

    Isomorphism is up to the exchange law: the graph of ``_graph`` inlines
    each thunk body with two or more captured inputs, so the order of those
    inputs is not hashed.  Hashes the interface and the certificate of
    ``_least_leaf``: where the colouring has no ties, its digest and the wires
    between coloured ends.
    """
    descs, links, wires = _graph(d)
    digest, table = _least_leaf(descs, links, wires, _refine(descs, links))
    # a wire's type follows from its ends: the node colours and the interface
    payload = (tuple(str(t) for t in d.dom), tuple(str(t) for t in d.cod), digest, table)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _witness(a: Diagram, b: Diagram) -> bool:
    """True if pairing every port with the same port of its image maps a onto b.

    The walk starts from the interface, position by position, and pairs
    in-port k of each mapped node with in-port k of its image, and out-port k
    with out-port k.  Mapped nodes agree on kind, arity, captures and label,
    and their bodies are one object or witness each other; ``taken`` keeps the
    map injective.  Success is a strict port-graph isomorphism, which keeps
    capture order and the indices of unordered ports, so the signatures are
    equal.  False decides nothing: another map, or the exchange law, may
    still relate the two.
    """
    if (a.dom != b.dom or a.cod != b.cod or len(a.nodes) != len(b.nodes)
            or len(a._dst) != len(b._dst)):
        return False
    image: dict[int, int] = {}
    taken: set[int] = set()
    stack: list[int] = []

    def pair(p: Port, q: Port) -> bool:
        if p[0] in ("dom", "cod"):
            return p == q
        if p[0] != q[0] or p[2] != q[2]:
            return False
        x, y = p[1], q[1]
        if x in image:
            return image[x] == y
        nx, ny = a.nodes[x], b.nodes[y]
        # equal nodes: equal fields, and one body object or none
        if y in taken or not (nx == ny or nx[:4] == ny[:4] and nx.inner is not None
                              and ny.inner is not None and _witness(nx.inner, ny.inner)):
            return False
        image[x] = y
        taken.add(y)
        stack.append(x)
        return True

    if not all(pair(a._src[("cod", k)], b._src[("cod", k)]) for k in range(len(a.cod))):
        return False
    if not all(pair(a._dst[("dom", k)], b._dst[("dom", k)]) for k in range(len(a.dom))):
        return False
    while stack:
        x = stack.pop()
        y = image[x]
        ins, outs = a.nodes[x].ports()
        for k in range(len(ins)):
            if not pair(a._src[("in", x, k)], b._src[("in", y, k)]):
                return False
        for k in range(len(outs)):
            if not pair(a._dst[("out", x, k)], b._dst[("out", y, k)]):
                return False
    return len(image) == len(a.nodes)


def isomorphic(a: Diagram, b: Diagram) -> bool:
    """Interfaced port-graph isomorphism up to the exchange law.

    A witness found by ``_witness`` decides it at once; any pair it misses is
    decided by comparing signatures.  Expects normalized inputs.
    """
    return _witness(a, b) or signature(a) == signature(b)


def equal(d1: Diagram, d2: Diagram) -> bool:
    """Diagram equality: isomorphism of normal forms, up to the exchange law.

    Two diagrams built in the same port order meet a witness and are never
    signed; pairs it misses fall back to their signatures.
    """
    return isomorphic(normalize(d1), normalize(d2))


# ---------------------------------------------------------------------------
# Export


def _stable_ids(d: Diagram) -> dict[int, int]:
    _, colors = _coloring(d)
    order = sorted(d.nodes, key=lambda nid: (colors[nid], nid))
    return {nid: i for i, nid in enumerate(order)}


def _export_end(ids: dict[int, int], port: Port) -> list:
    """A wire end under the export ids; sorting by it orders wires canonically."""
    if port[0] in ("dom", "cod"):
        return [port[0], port[1]]
    return [port[0], ids[port[1]], port[2]]


def to_json(d: Diagram) -> dict:
    ids = _stable_ids(d)
    nodes = []
    for nid in sorted(d.nodes, key=lambda n: ids[n]):
        node = d.nodes[nid]
        entry: dict = {"id": ids[nid], "kind": node.kind}
        if node.arity:
            entry["arity"] = node.arity
        if node.cap:
            entry["captured"] = node.cap
        if node.label:
            entry["label"] = node.label
        if node.inner is not None:
            entry["inner"] = to_json(node.inner)
        nodes.append(entry)
    wires = [{"from": _export_end(ids, src), "to": _export_end(ids, dst),
              "type": str(d.port_type(src))} for src, dst in d.wires()]
    return {
        "dom": [str(t) for t in d.dom],
        "cod": [str(t) for t in d.cod],
        "nodes": nodes,
        "wires": sorted(wires, key=lambda w: (w["from"], w["to"])),
    }


_DOT_LABELS = {
    "copy": "copy", "discard": "discard", "par": "|", "stop": "0",
    "send": "!", "recv": "?", "fresh": "fresh", "comm": "COMM",
    "name": "name", "thunk": "thunk", "apply": "ev", "hole": "[ ]",
}


def to_dot(d: Diagram) -> str:
    """The DOT rendering of ``to_json(d)``: its node ids, labels and wires."""
    data = to_json(d)
    lines = ["digraph diagram {", "  rankdir=TB;"]
    lines += [f'  dom{k} [shape=point, xlabel="dom{k}"];' for k in range(len(data["dom"]))]
    lines += [f'  cod{k} [shape=point, xlabel="cod{k}"];' for k in range(len(data["cod"]))]
    for node in data["nodes"]:
        kind = node["kind"]
        label = node.get("label", "") if kind == "name" else _DOT_LABELS[kind]
        if kind in ("send", "recv", "apply", "thunk"):
            label += str(node.get("arity", 0))
        if "inner" in node:
            label += f' [{len(node["inner"]["nodes"])} inner]'
        lines.append(f'  n{node["id"]} [label="{label}", shape=ellipse];')

    def end(e: list) -> str:
        return f"n{e[1]}" if e[0] in ("in", "out") else f"{e[0]}{e[1]}"

    lines += [f'  {end(w["from"])} -> {end(w["to"])} [label="{w["type"]}"];'
              for w in data["wires"]]
    lines.append("}")
    return "\n".join(lines)


def dumps(d: Diagram) -> str:
    return json.dumps(to_json(d), indent=2, sort_keys=True)
