"""Abstract syntax and name algebra for a finite (replication-free) pi-calculus.

Terms are immutable trees built from five constructors: the stopped process,
input prefixes, output particles, channel restriction, and parallel
composition.  This module owns the concrete grammar, free/bound name
computations, alpha-equivalence, and capture-avoiding substitution.  Everything
here is pure; values can be shared freely between threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Union

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")
_RESERVED = frozenset({"new"})


class ParseError(ValueError):
    """Syntax error in the concrete grammar, with 1-based position info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True, order=True)
class Name:
    """A channel identifier.  Equality and ordering are by identifier."""

    id: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.id):
            raise ValueError(f"invalid name identifier: {self.id!r}")
        if self.id in _RESERVED:
            raise ValueError(f"reserved word cannot be a name: {self.id!r}")

    def __str__(self) -> str:
        return self.id


@dataclass(frozen=True)
class Stop:
    """The inert process 0."""

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Input:
    """x?(y1,...,yn) => body: receive n names on x, binding them in body."""

    subject: Name
    params: tuple[Name, ...]
    body: "Process"

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate input parameters: {self.params}")

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Output:
    """x!(z1,...,zn): emit n names on x.  No continuation (asynchronous)."""

    subject: Name
    args: tuple[Name, ...]

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class New:
    """(new x) body: restrict channel x to body."""

    binder: Name
    body: "Process"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Par:
    """left | right: parallel composition."""

    left: "Process"
    right: "Process"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Hole:
    """The unique plug position of a syntactic context.  Not parseable."""

    def __str__(self) -> str:
        return "[]"


Process = Union[Stop, Input, Output, New, Par, Hole]


# ---------------------------------------------------------------------------
# Name algebra


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
        case Par(left, right):
            return free_names(left) | free_names(right)
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
        case Par(left, right):
            return all_names(left) | all_names(right)
    raise TypeError(f"not a process: {p!r}")


def fresh_name(avoid: Iterable[Name]) -> Name:
    """The first name in the fixed enumeration n0, n1, ... not in avoid."""
    taken = {n.id for n in avoid}
    i = 0
    while f"n{i}" in taken:
        i += 1
    return Name(f"n{i}")


def alpha_eq(p: Process, q: Process) -> bool:
    """True iff p and q are equal up to consistent renaming of bound names."""

    def ref(a: Name, b: Name, ea: dict[Name, int], eb: dict[Name, int]) -> bool:
        if a in ea or b in eb:
            return ea.get(a) == eb.get(b)
        return a == b

    def go(p: Process, q: Process, ea: dict[Name, int], eb: dict[Name, int], d: int) -> bool:
        match p, q:
            case Stop(), Stop():
                return True
            case Hole(), Hole():
                return True
            case Output(s1, a1), Output(s2, a2):
                return (
                    len(a1) == len(a2)
                    and ref(s1, s2, ea, eb)
                    and all(ref(x, y, ea, eb) for x, y in zip(a1, a2))
                )
            case Input(s1, y1, b1), Input(s2, y2, b2):
                if len(y1) != len(y2) or not ref(s1, s2, ea, eb):
                    return False
                ea2 = {**ea, **{y: d + i for i, y in enumerate(y1)}}
                eb2 = {**eb, **{y: d + i for i, y in enumerate(y2)}}
                return go(b1, b2, ea2, eb2, d + len(y1))
            case New(x1, b1), New(x2, b2):
                return go(b1, b2, {**ea, x1: d}, {**eb, x2: d}, d + 1)
            case Par(l1, r1), Par(l2, r2):
                return go(l1, l2, ea, eb, d) and go(r1, r2, ea, eb, d)
        return False

    return go(p, q, {}, {}, 0)


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
        case Par(left, right):
            return Par(_subst(left, m), _subst(right, m))
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
    """Render p in the concrete grammar; parse(pretty(p)) == p structurally."""
    return _pp(p, atom=False)


def _pp(p: Process, atom: bool) -> str:
    match p:
        case Stop():
            return "0"
        case Hole():
            return "[]"
        case Output(subject, args):
            return f"{subject}!({', '.join(a.id for a in args)})"
        case Input(subject, params, body):
            ps = ", ".join(y.id for y in params)
            return f"{subject}?({ps}) => {_pp(body, atom=True)}"
        case New(binder, body):
            return f"(new {binder}) {_pp(body, atom=True)}"
        case Par(left, right):
            s = f"{_pp(left, atom=False)} | {_pp(right, atom=True)}"
            return f"({s})" if atom else s
    raise TypeError(f"not a process: {p!r}")


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
    match p:
        case Stop():
            return {"tag": "stop"}
        case Input(subject, params, body):
            return {
                "tag": "input",
                "subject": subject.id,
                "params": [y.id for y in params],
                "body": to_json(body),
            }
        case Output(subject, args):
            return {"tag": "output", "subject": subject.id, "args": [a.id for a in args]}
        case New(binder, body):
            return {"tag": "new", "binder": binder.id, "body": to_json(body)}
        case Par(left, right):
            return {"tag": "par", "left": to_json(left), "right": to_json(right)}
    raise TypeError(f"not a serializable process: {p!r}")


def from_json(d: dict) -> Process:
    tag = d.get("tag")
    if tag == "stop":
        return Stop()
    if tag == "input":
        return Input(Name(d["subject"]), tuple(Name(y) for y in d["params"]), from_json(d["body"]))
    if tag == "output":
        return Output(Name(d["subject"]), tuple(Name(a) for a in d["args"]))
    if tag == "new":
        return New(Name(d["binder"]), from_json(d["body"]))
    if tag == "par":
        return Par(from_json(d["left"]), from_json(d["right"]))
    raise ValueError(f"unknown process tag: {tag!r}")


def dumps(p: Process) -> str:
    return json.dumps(to_json(p), separators=(",", ":"))


def loads(text: str) -> Process:
    return from_json(json.loads(text))
