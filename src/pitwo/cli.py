"""Command-line front end.

Terms are given inline or as ``@path`` to read a file.  Every command prints
human-readable text by default and structured JSON with ``--json``.  Exit
codes: 0 on success or a passing verdict, 1 on a negative verdict, failed
verification, or exhausted budget, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import diagram as dg
from .bisim import barbs, bisimilarity_verdict
from .congruence import canonical_form, congruent
from .harness import NAME_ALPHABET, VERIFIERS, DESK_SPEC, SMALL_SPEC
from .opsem import StateBudgetError, reachable, successors
from .rewrite import (
    StaleDiagramRedexError,
    apply_comm,
    concurrent_step,
    find_diagram_redexes,
)
from .syntax import ParseError, parse, pretty, to_json
from .translate import translate, translate_top


class _UnreadableTerm(ValueError):
    """An ``@path`` argument names a file that cannot be read as UTF-8 text."""


def _read_term(arg: str):
    if arg.startswith("@"):
        try:
            with open(arg[1:], encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc  # an OSError's text names the path
            raise _UnreadableTerm(f"cannot read {arg[1:]}: {reason}") from None
        return parse(text)
    return parse(arg)


def _emit(args, text: str, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _diagram_output(args, d) -> None:
    if getattr(args, "dot", False):
        print(dg.to_dot(d))
    elif args.json:
        print(dg.dumps(d))
    else:
        print(repr(d))
        print(dg.dumps(d))


def cmd_parse(args) -> int:
    p = _read_term(args.term)
    _emit(args, pretty(p), {"term": pretty(p), "ast": to_json(p)})
    return 0


def cmd_fn(args) -> int:
    from .syntax import free_names

    p = _read_term(args.term)
    names = sorted(n.id for n in free_names(p))
    _emit(args, " ".join(names) if names else "(none)", {"free_names": names})
    return 0


def cmd_canon(args) -> int:
    p = _read_term(args.term)
    c = canonical_form(p, gc_vacuous=args.gc_vacuous)
    _emit(args, pretty(c), {"canonical": pretty(c), "ast": to_json(c)})
    return 0


def cmd_equiv(args) -> int:
    p = _read_term(args.term)
    q = _read_term(args.other)
    same = congruent(p, q, gc_vacuous=args.gc_vacuous)
    _emit(args, "congruent" if same else "not congruent", {"congruent": same})
    return 0 if same else 1


def cmd_step(args) -> int:
    p = _read_term(args.term)
    succs = successors(p)
    text = "\n".join(pretty(s) for s in succs) if succs else "(no reductions)"
    _emit(args, text, {"term": pretty(p), "successors": [pretty(s) for s in succs]})
    return 0


def cmd_run(args) -> int:
    p = _read_term(args.term)
    graph = reachable(p, max_states=args.max_states)
    data = graph.to_json()
    lines = [f"{len(graph.states)} states, {len(graph.edges)} edges"]
    lines += [f"  [{i}] {s}" for i, s in enumerate(data["states"])]
    lines += [f"  {i} -> {j}" for i, j in data["edges"]]
    _emit(args, "\n".join(lines), data)
    return 0


def cmd_barbs(args) -> int:
    p = _read_term(args.term)
    names = sorted(n.id for n in barbs(p))
    _emit(args, " ".join(names) if names else "(none)", {"barbs": names})
    return 0


def cmd_bisim(args) -> int:
    p = _read_term(args.term)
    q = _read_term(args.other)
    same, certificate = bisimilarity_verdict(p, q, max_states=args.max_states, weak=args.weak)
    text = "bisimilar" if same else f"not bisimilar\n{certificate}"
    _emit(args, text, {"bisimilar": same, "certificate": certificate})
    return 0 if same else 1


def cmd_translate(args) -> int:
    p = _read_term(args.term)
    if args.top or args.comm_tokens is not None:
        permits = 1 if args.comm_tokens is None else args.comm_tokens
        td = translate_top(p, catalysts=permits, instantiate=not args.open)
        _diagram_output(args, td.diagram)
    else:
        _diagram_output(args, translate(p))
    return 0


def _redex_payload(r, ids: dict[int, int]) -> dict:
    """A redex under the node ids of the diagram's JSON and DOT export."""
    return {
        "output_node": ids[r.output_node],
        "input_node": ids[r.input_node],
        "catalyst": ids[r.catalyst],
        "arity": r.arity,
    }


def cmd_redexes(args) -> int:
    p = _read_term(args.term)
    td = translate_top(p, catalysts=args.comm_tokens, instantiate=True)
    ids = dg._stable_ids(td.diagram)
    rs = [_redex_payload(r, ids) for r in find_diagram_redexes(td)]
    lines = [
        f"[{i}] send node {r['output_node']} with recv node {r['input_node']} "
        f"(arity {r['arity']}, permit {r['catalyst']})"
        for i, r in enumerate(rs)
    ]
    _emit(args, "\n".join(lines) if lines else "(no redexes)", {"redexes": rs})
    return 0


def cmd_crewrite(args) -> int:
    p = _read_term(args.term)
    td = translate_top(p, catalysts=args.comm_tokens, instantiate=True)
    rs = find_diagram_redexes(td)
    if not 0 <= args.index < len(rs):
        print(f"error: redex index {args.index} out of range (found {len(rs)})", file=sys.stderr)
        return 1
    after = apply_comm(td, rs[args.index])
    _diagram_output(args, after.diagram)
    return 0


def cmd_concurrent(args) -> int:
    p = _read_term(args.term)
    td = translate_top(p, catalysts=args.comm_tokens, instantiate=True)
    ids = dg._stable_ids(td.diagram)
    steps = [[_redex_payload(r, ids) for r in rs] for rs in concurrent_step(td, args.comm_tokens)]
    lines = []
    for i, rs in enumerate(steps):
        inner = ", ".join(f"({r['output_node']},{r['input_node']})@{r['catalyst']}" for r in rs)
        lines.append(f"[{i}] fires {len(rs)} redexes: {inner}")
    _emit(args, "\n".join(lines) if lines else "(no joint steps)", {"steps": steps})
    return 0


def cmd_verify(args) -> int:
    verifier = VERIFIERS[args.lemma]
    if args.names is not None or args.max_size is not None:
        base = SMALL_SPEC if args.lemma == "congruence" else DESK_SPEC
        spec = dataclasses.replace(
            base,
            name_alphabet_size=args.names if args.names is not None else base.name_alphabet_size,
            max_prefixes=args.max_size if args.max_size is not None else base.max_prefixes,
        )
        report = verifier(spec)
    else:
        report = verifier()
    _emit(args, report.summary(), report.to_json())
    return 0 if report.passed else 1


def _nonnegative(text: str) -> int:
    """argparse type of a count option: a usage error unless a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pitwo",
        description="dual-semantics pi-calculus workbench (terms and diagrams)",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = ap.add_subparsers(dest="command", required=True)

    def term_cmd(name: str, help_: str, handler, two: bool = False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        sp.add_argument("term", help="a term, or @path to read one from a file")
        if two:
            sp.add_argument("other", help="second term, or @path")
        return sp

    term_cmd("parse", "parse a term and print it back", cmd_parse)
    term_cmd("fn", "free names of a term", cmd_fn)
    sp = term_cmd("canon", "canonical form modulo structural congruence", cmd_canon)
    sp.add_argument("--gc-vacuous", action="store_true",
                    help="also delete restrictions whose binder is unused")
    sp = term_cmd("equiv", "decide structural congruence", cmd_equiv, two=True)
    sp.add_argument("--gc-vacuous", action="store_true")
    term_cmd("step", "one-step reduction successors", cmd_step)
    sp = term_cmd("run", "explore the full reduction graph", cmd_run)
    sp.add_argument("--max-states", type=_nonnegative, default=10_000)
    term_cmd("barbs", "observable output channels", cmd_barbs)
    sp = term_cmd("bisim", "barbed bisimilarity verdict", cmd_bisim, two=True)
    sp.add_argument("--max-states", type=_nonnegative, default=10_000)
    sp.add_argument("--weak", action="store_true", help="reflexive-transitive matching")
    sp = term_cmd("translate", "diagram of a term", cmd_translate)
    sp.add_argument("--top", action="store_true", help="add permits and instantiate names")
    sp.add_argument("--open", action="store_true", help="keep free names as open ports")
    sp.add_argument("--comm-tokens", type=_nonnegative, default=None, metavar="K")
    sp.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    sp = term_cmd("redexes", "diagram redexes of the top form", cmd_redexes)
    sp.add_argument("--comm-tokens", type=_nonnegative, default=1, metavar="K")
    sp = term_cmd("crewrite", "apply one diagram rewrite", cmd_crewrite)
    sp.add_argument("--index", type=int, required=True, metavar="I")
    sp.add_argument("--comm-tokens", type=_nonnegative, default=1, metavar="K")
    sp.add_argument("--dot", action="store_true")
    sp = term_cmd("concurrent", "maximal joint rewrite steps", cmd_concurrent)
    sp.add_argument("--comm-tokens", type=_nonnegative, default=2, metavar="K")
    sp = sub.add_parser("verify", help="run a verification suite")
    sp.set_defaults(handler=cmd_verify)
    sp.add_argument("--lemma", required=True, choices=sorted(VERIFIERS))
    sp.add_argument("--names", type=int, default=None, metavar="N",
                    choices=range(1, len(NAME_ALPHABET) + 1),
                    help=f"name alphabet size for the corpus, 1 to {len(NAME_ALPHABET)}")
    sp.add_argument("--max-size", type=_nonnegative, default=None, metavar="S",
                    help="prefix budget for the corpus")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone: send what is still buffered to /dev/null, so
        # the flush at exit cannot fail again, and report nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _UnreadableTerm as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StateBudgetError, StaleDiagramRedexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: term too large for this command (recursion limit reached)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
