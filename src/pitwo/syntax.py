"""Abstract syntax and name algebra for a finite (replication-free) pi-calculus.

Terms are immutable trees built from five constructors: the stopped process,
input prefixes, output particles, channel restriction, and parallel
composition.  This module owns the concrete grammar, free/bound name
computations, alpha-equivalence, and capture-avoiding substitution.

Terms are interned: each distinct term is one object, so term equality is
identity.  Construction goes through one per-process interning table, which is
not safe to share between threads; build terms from one thread only.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache, total_ordering
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")
_RESERVED = frozenset({"new"})


class ParseError(ValueError):
    """Syntax error in the concrete grammar, with 1-based position info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# Terms are hash-consed (Filliatre & Conchon, "Type-safe modular hash-consing",
# ML Workshop 2006).  A constructor returns the one live term with its fields,
# found in a table of weak references keyed by the class name and the fields,
# with each child term keyed by its identity.  Children are built, and so
# interned, before their parents, so structurally equal terms are the same
# object and equality is identity.  The identities in a key stay valid while
# its entry exists, because a term holds its children and leaves the table
# before it releases them.  Each term stores a hash of its class name and
# fields, which hashes its children by their stored hashes: no hash recurses,
# and a hash depends only on PYTHONHASHSEED.  A term is validated only when it
# is first built.


class _Entry(weakref.ref):
    """The table's weak reference to a term, which knows the term's key."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    # A term whose deallocation was deferred can be rebuilt before it is gone,
    # so the key is dropped only while it still holds this entry.
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


# Calling an entry gives its term, or None once the term is gone.
_TABLE: dict[tuple, _Entry] = {}
_set = object.__setattr__


class _Term:
    """Base of the interned term classes: immutable, hashed once, equal iff identical."""

    __slots__ = ("_hash", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls) -> _Term:
        """The one term of a class without fields: Stop and Hole."""
        key = (cls.__name__,)
        entry = _TABLE.get(key)
        t = entry and entry()
        return _build(cls, key) if t is None else t

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __str__(self) -> str:
        return pretty(self)

    @staticmethod
    def _check(*fields: object) -> None:
        """Reject invalid fields; runs once, when the term is first built."""


def _build(cls: type, key: tuple, *fields: object) -> _Term:
    """The new term of cls with these fields, in ``__match_args__`` order; table it under key.

    Called only when the table has no live term under key, so ``_check``
    runs once per distinct term.
    """
    cls._check(*fields)
    t = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        _set(t, name, value)
    _set(t, "_hash", hash((cls.__name__, *fields)))
    entry = _TABLE[key] = _Entry(t, _forget)
    entry.key = key
    return t


@total_ordering
class Name(_Term):
    """A channel identifier.  Ordering is by identifier."""

    __slots__ = ("id",)
    __match_args__ = ("id",)

    def __new__(cls, id: str) -> Name:
        key = ("Name", id)
        entry = _TABLE.get(key)
        t = entry and entry()
        return _build(cls, key, id) if t is None else t

    @staticmethod
    def _check(id: str) -> None:
        if not _NAME_RE.match(id):
            raise ValueError(f"invalid name identifier: {id!r}")
        if id in _RESERVED:
            raise ValueError(f"reserved word cannot be a name: {id!r}")

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not Name:
            return NotImplemented
        return self.id < other.id

    def __str__(self) -> str:
        return self.id


class Stop(_Term):
    """The inert process 0."""

    __slots__ = ()


class Input(_Term):
    """x?(y1,...,yn) => body: receive n names on x, binding them in body."""

    __slots__ = ("subject", "params", "body")
    __match_args__ = ("subject", "params", "body")

    def __new__(cls, subject: Name, params: tuple[Name, ...], body: Process) -> Input:
        key = ("Input", id(subject), id(body), *map(id, params))
        entry = _TABLE.get(key)
        t = entry and entry()
        return _build(cls, key, subject, params, body) if t is None else t

    @staticmethod
    def _check(subject: Name, params: tuple[Name, ...], body: Process) -> None:
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate input parameters: {params}")


class Output(_Term):
    """x!(z1,...,zn): emit n names on x.  No continuation (asynchronous)."""

    __slots__ = ("subject", "args")
    __match_args__ = ("subject", "args")

    def __new__(cls, subject: Name, args: tuple[Name, ...]) -> Output:
        key = ("Output", id(subject), *map(id, args))
        entry = _TABLE.get(key)
        t = entry and entry()
        return _build(cls, key, subject, args) if t is None else t


class New(_Term):
    """(new x) body: restrict channel x to body."""

    __slots__ = ("binder", "body")
    __match_args__ = ("binder", "body")

    def __new__(cls, binder: Name, body: Process) -> New:
        key = ("New", id(binder), id(body))
        entry = _TABLE.get(key)
        t = entry and entry()
        return _build(cls, key, binder, body) if t is None else t


class Par(_Term):
    """left | right: parallel composition."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Process, right: Process) -> Par:
        key = ("Par", id(left), id(right))
        entry = _TABLE.get(key)
        t = entry and entry()
        return _build(cls, key, left, right) if t is None else t


class Hole(_Term):
    """The unique plug position of a syntactic context.  Not parseable."""

    __slots__ = ()


Process = Union[Stop, Input, Output, New, Par, Hole]
T = TypeVar("T")


# ---------------------------------------------------------------------------
# Name algebra


def par_leaves(p: Process) -> list[Process]:
    """The subterms of p's top parallel tree that are not Par, left to right."""
    leaves: list[Process] = []
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            stack.append(q.right)
            stack.append(q.left)
        else:
            leaves.append(q)
    return leaves


def fold_par(p: Process, leaf: Callable[[Process], T], join: Callable[[T, T], T]) -> T:
    """Fold p's top parallel tree: ``leaf`` on each non-Par subterm, ``join`` on each Par.

    Post-order with an explicit stack: leaves are visited left to right, and
    each Par is joined after both of its sides.
    """
    done: list[T] = []
    stack: list[tuple[Process, bool]] = [(p, False)]
    while stack:
        q, expanded = stack.pop()
        if expanded:
            right = done.pop()
            done.append(join(done.pop(), right))
        elif isinstance(q, Par):
            stack += [(q, True), (q.right, False), (q.left, False)]
        else:
            done.append(leaf(q))
    return done[0]


def recompose(binders: Sequence[Name], comps: Sequence[Process]) -> Process:
    """(new b1)...(new bk)(c1 | ... | cn), the parallel part nested to the left; 0 if n is 0."""
    core: Process = comps[0] if comps else Stop()
    for c in comps[1:]:
        core = Par(core, c)
    for b in reversed(binders):
        core = New(b, core)
    return core


@lru_cache(maxsize=None)
def free_names(p: Process) -> frozenset[Name]:
    """The free names of p."""
    match p:
        case Stop() | Hole():
            return frozenset()
        case Output(subject, args):
            return frozenset((subject, *args))
        case Input(subject, params, body):
            return frozenset({subject}) | (free_names(body) - frozenset(params))
        case New(binder, body):
            return free_names(body) - {binder}
        case Par():
            return frozenset().union(*map(free_names, par_leaves(p)))
    raise TypeError(f"not a process: {p!r}")


@lru_cache(maxsize=None)
def all_names(p: Process) -> frozenset[Name]:
    """Every name occurring in p, free or bound (including binders)."""
    match p:
        case Stop() | Hole():
            return frozenset()
        case Output(subject, args):
            return frozenset((subject, *args))
        case Input(subject, params, body):
            return frozenset({subject, *params}) | all_names(body)
        case New(binder, body):
            return all_names(body) | {binder}
        case Par():
            return frozenset().union(*map(all_names, par_leaves(p)))
    raise TypeError(f"not a process: {p!r}")


def fresh_names(avoid: Iterable[Name]) -> Iterator[Name]:
    """The names of the fixed enumeration n0, n1, ... that are not in avoid, in order."""
    taken = {n.id for n in avoid}
    return (Name(f"n{i}") for i in count() if f"n{i}" not in taken)


def fresh_name(avoid: Iterable[Name]) -> Name:
    """The first name of ``fresh_names(avoid)``."""
    return next(fresh_names(avoid))


# Environments are keyed by name id: a string hashes in C, a Name through a
# Python-level __hash__.


def _sref(n: Name, env: dict[str, tuple]) -> tuple:
    return env.get(n.id) or ("f", n.id)


def _alpha(p: Process, env: dict[str, tuple], d: int) -> tuple:
    """p's alpha-invariant shape; ``env`` gives the refs of the bound names in scope."""
    match p:
        case Stop():
            return ("0",)
        case Output(subject, args):
            return ("!", _sref(subject, env), tuple(_sref(a, env) for a in args))
        case Input(subject, params, body):
            env2 = {**env, **{y.id: ("b", d + i) for i, y in enumerate(params)}}
            return ("?", _sref(subject, env), len(params), _alpha(body, env2, d + len(params)))
        case New(binder, body):
            return ("nu", _alpha(body, {**env, binder.id: ("b", d)}, d + 1))
        case Par():
            # The parallel tree in postfix order, ("|",) after both sides: a
            # flat tuple, so neither this walk nor a comparison of keys
            # recurses.  Every item is a tuple, so shapes stay comparable.
            shape: list = ["|"]
            stack: list = [p]
            while stack:
                q = stack.pop()
                if q is None:
                    shape.append(("|",))
                elif isinstance(q, Par):
                    stack += [None, q.right, q.left]
                else:
                    shape.append(_alpha(q, env, d))
            return tuple(shape)
        case Hole():
            return ("[]",)
    raise TypeError(f"not a process: {p!r}")


def alpha_eq(p: Process, q: Process) -> bool:
    """True iff p and q are equal up to consistent renaming of bound names."""
    return _alpha(p, {}, 0) == _alpha(q, {}, 0)


def substitute(p: Process, subst: Mapping[Name, Name]) -> Process:
    """Capture-avoiding simultaneous renaming of free names.

    Entries whose key is not free in p are ignored.  Binders are renamed to
    deterministic fresh names wherever they would capture a substituted name.
    """
    live = {k: v for k, v in subst.items() if k != v}
    return _subst(p, live)


def _subst(p: Process, m: dict[Name, Name]) -> Process:
    m = {k: v for k, v in m.items() if k in free_names(p)}
    if not m:
        return p
    match p:
        case Stop() | Hole():
            return p
        case Output(subject, args):
            return Output(m.get(subject, subject), tuple(m.get(a, a) for a in args))
        case Par():
            # inner Par nodes do not filter m again
            return fold_par(p, lambda q: _subst(q, m), Par)
        case New(binder, body):
            inner = {k: v for k, v in m.items() if k != binder}
            if binder in inner.values():
                avoid = all_names(body) | set(inner.values()) | set(inner)
                nb = fresh_name(avoid)
                body = _subst(body, {binder: nb})
                binder = nb
            return New(binder, _subst(body, inner))
        case Input(subject, params, body):
            ns = m.get(subject, subject)
            inner = {k: v for k, v in m.items() if k not in params}
            clashing = [y for y in params if y in inner.values()]
            if clashing:
                avoid = set(all_names(body)) | set(inner.values()) | set(inner) | set(params)
                ren: dict[Name, Name] = {}
                for y in clashing:
                    ny = fresh_name(avoid)
                    avoid.add(ny)
                    ren[y] = ny
                body = _subst(body, ren)
                params = tuple(ren.get(y, y) for y in params)
            return Input(ns, params, _subst(body, inner))
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   P ::= "0" | name "?" "(" names ")" "=>" P | name "!" "(" names ")"
#       | "(" "new" name ")" P | P "|" P | "(" P ")"
#
# `|` binds loosest and associates left; input and restriction bodies extend
# as far right as possible short of a bare `|`; parentheses override.  Input
# prefixes, restrictions and parentheses nest at most MAX_NESTING deep.


def pretty(p: Process) -> str:
    """Render p in the concrete grammar; parse(pretty(p)) is p."""
    return _pp(p, atom=False)


def _pp(p: Process, atom: bool) -> str:
    out: list[str] = []
    stack: list[str | tuple[Process, bool]] = [(p, atom)]  # text, or a term to render
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        q, atom = item
        match q:
            case Stop():
                out.append("0")
            case Hole():
                out.append("[]")
            case Output(subject, args):
                out.append(f"{subject}!({', '.join(a.id for a in args)})")
            case Input(subject, params, body):
                out.append(f"{subject}?({', '.join(y.id for y in params)}) => ")
                stack.append((body, True))
            case New(binder, body):
                out.append(f"(new {binder}) ")
                stack.append((body, True))
            case Par(left, right):
                if atom:
                    out.append("(")
                    stack.append(")")
                stack += [(right, True), " | ", (left, False)]
            case _:
                raise TypeError(f"not a process: {q!r}")
    return "".join(out)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<arrow>=>)"
    r"|(?P<punct>[?!(),|])|(?P<zero>0)"
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        lexeme = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


MAX_NESTING = 256
"""The deepest nesting ``parse`` accepts, counting input prefixes, restrictions
and parenthesised groups together; deeper input is a ParseError."""


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def nested(self, t: _Tok, parse_body) -> Process:
        """Parse one level deeper: an input body, a restriction body or a group."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t.line, t.col)
        self.depth += 1
        body = parse_body()
        self.depth -= 1
        return body

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        self.i += 1
        return t

    def parse(self) -> Process:
        p = self.parse_par()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
        return p

    def parse_par(self) -> Process:
        acc = self.parse_prefix()
        while self.peek().kind == "punct" and self.peek().text == "|":
            self.take("punct", "|")
            acc = Par(acc, self.parse_prefix())
        return acc

    def parse_prefix(self) -> Process:
        t = self.peek()
        if t.kind == "zero":
            self.take("zero")
            return Stop()
        if t.kind == "punct" and t.text == "(":
            if self.peek(1).kind == "name" and self.peek(1).text == "new":
                self.take("punct", "(")
                self.take("name", "new")
                binder = self._name()
                self.take("punct", ")")
                return New(binder, self.nested(t, self.parse_prefix))
            self.take("punct", "(")
            inner = self.nested(t, self.parse_par)
            self.take("punct", ")")
            return inner
        if t.kind == "name":
            subject = self._name()
            op = self.peek()
            if op.kind == "punct" and op.text == "?":
                self.take("punct", "?")
                params = self._name_list()
                self.take("arrow")
                body = self.nested(t, self.parse_prefix)
                if len(set(params)) != len(params):
                    raise ParseError(f"duplicate input parameters {[y.id for y in params]}", t.line, t.col)
                return Input(subject, tuple(params), body)
            if op.kind == "punct" and op.text == "!":
                self.take("punct", "!")
                args = self._name_list()
                return Output(subject, tuple(args))
            raise ParseError(f"expected '?' or '!' after name {subject.id!r}", op.line, op.col)
        raise ParseError(f"expected a process, found {t.text or 'end of input'!r}", t.line, t.col)

    def _name(self) -> Name:
        t = self.take("name")
        if t.text in _RESERVED:
            raise ParseError(f"reserved word {t.text!r} cannot be a name", t.line, t.col)
        return Name(t.text)

    def _name_list(self) -> list[Name]:
        self.take("punct", "(")
        names: list[Name] = []
        if not (self.peek().kind == "punct" and self.peek().text == ")"):
            names.append(self._name())
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.take("punct", ",")
                names.append(self._name())
        self.take("punct", ")")
        return names


def parse(text: str) -> Process:
    """Parse concrete syntax into a Process, or raise ParseError."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# JSON AST interchange


def to_json(p: Process) -> dict:
    root: dict = {}
    stack = [(p, root)]  # each term with the empty dict that receives it
    while stack:
        q, d = stack.pop()
        match q:
            case Stop():
                d["tag"] = "stop"
            case Input(subject, params, body):
                d.update(tag="input", subject=subject.id, params=[y.id for y in params], body={})
                stack.append((body, d["body"]))
            case Output(subject, args):
                d.update(tag="output", subject=subject.id, args=[a.id for a in args])
            case New(binder, body):
                d.update(tag="new", binder=binder.id, body={})
                stack.append((body, d["body"]))
            case Par(left, right):
                d.update(tag="par", left={}, right={})
                stack += [(right, d["right"]), (left, d["left"])]
            case _:
                raise TypeError(f"not a serializable process: {q!r}")
    return root


def from_json(d: dict) -> Process:
    done: list[Process] = []
    stack: list[tuple[dict, bool]] = [(d, False)]  # each object, and whether its children are built
    while stack:
        q, built = stack.pop()
        tag = q.get("tag")
        if tag == "stop":
            done.append(Stop())
        elif tag == "output":
            done.append(Output(Name(q["subject"]), tuple(Name(a) for a in q["args"])))
        elif tag not in ("input", "new", "par"):
            raise ValueError(f"unknown process tag: {tag!r}")
        elif not built:
            children = [q["right"], q["left"]] if tag == "par" else [q["body"]]
            stack += [(q, True)] + [(c, False) for c in children]
        elif tag == "input":
            done.append(Input(Name(q["subject"]), tuple(Name(y) for y in q["params"]), done.pop()))
        elif tag == "new":
            done.append(New(Name(q["binder"]), done.pop()))
        else:
            right = done.pop()
            done.append(Par(done.pop(), right))
    return done[0]


def dumps(p: Process) -> str:
    return json.dumps(to_json(p), separators=(",", ":"))


def loads(text: str) -> Process:
    return from_json(json.loads(text))
