"""Golden CLI outputs: fixed terms through the term-level commands, text and --json.

Each case is one ``pitwo`` command line.  The committed data file maps the
command line to a digest of its exit code, stdout and stderr, so any change
to what the CLI prints shows up here.  After an intended output change,
re-record with ``PYTHONPATH=src python tests/test_cli_golden.py``; it prints
each key it added and each existing key whose digest changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from pitwo.cli import main

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

TERMS = [
    "0",
    "x!(u)",
    "x?(y) => y!() | x!(u)",
    "(new x)(x?() => u!() | x!())",
    "(a?() => 0 | a!()) | (b?() => 0 | b!())",
    "x?(y) => y!(x) | x?(z) => z!() | x!(a)",
    "x!(a) | x!(b) | x?(y) => y!()",
    "(new n)(x!(n) | n?() => u!()) | x?(m) => m!()",
    "x?(y, z) => y!(z) | x!(a, b)",
    "x?(y) => y?(z) => z!() | x!(u) | u!(w)",
    "(new a)(new b)(a!(b) | b!(a) | a?(c) => c!())",
    "x?() => x?() => 0 | x!() | x!()",
    "(new z)(z!(a)) | a?() => 0",
    "x?(y) => (new w)(y!(w) | w?() => 0) | x!(v) | v?(q) => q!()",
    "a?(y) => b!(y) | b?(z) => z!() | a!(c) | c?() => 0",
    "x?() => (a!() | b!() | c!())",
    "x?() => (a!() | 0)",
    "x?(y) => (new w) 0",
]

PAIRS = [
    ("(new x)(x?() => u!() | x!())", "u!()"),
    ("0", "x?(y) => 0"),
    ("x?(y) => u!() | x!(a)", "x?(y) => 0 | x!(a)"),
    ("x?(y) => 0 | x!(u)", "x?(v) => 0 | x!(u)"),
    ("x!(a) | x!(b) | x?(y) => y!()", "x!(b) | x!(a) | x?(z) => z!()"),
    ("(new n)(x!(n) | n?() => u!()) | x?(m) => m!()", "u!()"),
    ("x?() => x?() => 0 | x!() | x!()", "0"),
    ("a?(y) => b!(y) | b?(z) => z!() | a!(c) | c?() => 0", "(new d)(d!())"),
]


def _command_lines() -> list[list[str]]:
    base: list[list[str]] = []
    for t in TERMS:
        base += [
            ["canon", t],
            ["step", t],
            ["run", t],
            ["barbs", t],
            ["translate", t],
            ["translate", t, "--top"],
            ["translate", t, "--top", "--dot"],
            ["translate", t, "--open", "--comm-tokens", "2"],
            ["redexes", t],
            ["crewrite", t, "--index", "0"],
            ["concurrent", t],
        ]
    base.append(["run", TERMS[2], "--max-states", "1"])
    for p, q in PAIRS:
        base += [["bisim", p, q], ["bisim", p, q, "--weak"]]
    return [argv for b in base for argv in (b, ["--json", *b])]


CASES = {shlex.join(argv): argv for argv in _command_lines()}


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_cli_output_unchanged(golden, key):
    assert digest(CASES[key]) == golden[key], f"pitwo {key}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    data = {key: digest(argv) for key, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    for key, value in data.items():
        if key not in old:
            print(f"added: {key}")
        elif old[key] != value:
            print(f"changed: {key}")
    print(f"recorded {len(data)} cases in {GOLDEN}")
