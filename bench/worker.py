"""One repetition of one workload, in a fresh interpreter.

Usage: python3 worker.py WORKLOAD SEED T0 [--trace] [--setup-only]

T0 is the launching process's ``time.monotonic()`` just before it started
this interpreter; on Linux that clock is shared between processes, so
``setup_s`` covers interpreter start, ``import pitwo`` and input generation.
Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time

import workloads

M = {m: importlib.import_module(f"pitwo.{m}")
     for m in ("syntax", "congruence", "opsem", "bisim", "translate", "rewrite", "harness", "cli")}

# Recorded answers of the two suite workloads; a run that disagrees is invalid.
DESK_ARGV = ["--json", "verify", "--lemma", "reduction", "--max-size", "3"]
DESK_EXPECT = {"passed": True, "corpus_size": 4921, "checked": 4921}
PLUG_ARGS = {"context_bound": 3, "max_plugs": 8}
PLUG_EXPECT = {"passed": True, "corpus_size": 439, "checked": 3540}


def inputs(workload: str, seed: int):
    if workload == "desk-reduction":
        return DESK_ARGV
    if workload == "context-plugging":
        return sorted(PLUG_ARGS.items())
    if workload == "large-terms":
        return workloads.large_terms(seed)
    if workload == "lts-bisim":
        return workloads.lts_pairs(seed)
    raise SystemExit(f"unknown workload {workload!r}")


class Outcome:
    """Per-operation latencies, failures (as replayable text) and verdict-check errors."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []


def _check_report(out: Outcome, report: dict, expect: dict) -> None:
    out.attempted = report["checked"]
    for cx in report["counterexamples"]:
        out.failures.append(json.dumps(cx, sort_keys=True))
    got = {key: report[key] for key in expect}
    if got != expect:
        out.check_errors.append(f"suite report {got} differs from recorded {expect}")


def run_desk(argv, out: Outcome) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = M["cli"].main(list(argv))
    report = json.loads(buf.getvalue())
    if code != 0:
        out.check_errors.append(f"pitwo verify exited {code}")
    _check_report(out, report, DESK_EXPECT)


def run_plugging(args, out: Outcome) -> None:
    h = M["harness"]
    report = h.verify_contextual_congruence(h.SMALL_SPEC, **dict(args))
    _check_report(out, report.to_json(), PLUG_EXPECT)


def large_term_agrees(text: str) -> bool:
    """Operational successors match diagram rewrites both ways, and barbs match."""
    S, C, O, T, R, B, H = (M[m] for m in ("syntax", "congruence", "opsem", "translate",
                                          "rewrite", "bisim", "harness"))
    c = C.canonical_form(S.parse(text))
    lhs = []
    for q in sorted(O.reduce_step(c), key=S.pretty):
        td = T.translate_top(q, 1, True)
        if not any(T.top_equal(td, seen) for seen in lhs):
            lhs.append(td)
    top = T.translate_top(c, 1, True)
    rhs = R.comm_step(top)
    # Every comparison runs, so an operation costs the same whatever its verdict.
    forward = [any([T.top_equal(l, r) for r in rhs]) for l in lhs]
    backward = [any([T.top_equal(r, l) for l in lhs]) for r in rhs]
    same_barbs = B.barbs(c) == H.semantic_barbs(top)
    return all(forward) and all(backward) and same_barbs


def pair_verdicts(left: str, right: str) -> tuple[bool, bool]:
    """Term-side and diagram-side bisimilarity of one pair."""
    S, B, T, H = (M[m] for m in ("syntax", "bisim", "translate", "harness"))
    p, q = S.parse(left), S.parse(right)
    syntactic, _ = B.bisimilarity_verdict(p, q)
    lts = H.DiagramLTS()
    i = lts.intern(T.translate_top(p, 1, True))
    j = lts.intern(T.translate_top(q, 1, True))
    blocks = lts.refine()
    return syntactic, blocks[i] == blocks[j]


def run_large(texts, out: Outcome) -> None:
    clock = time.perf_counter
    for text in texts:
        t0 = clock()
        try:
            ok = large_term_agrees(text)
        except Exception as exc:  # an exception is a failed operation, not a crash
            ok = False
            text = f"{text}  # {type(exc).__name__}: {exc}"
        out.latencies.append(clock() - t0)
        if not ok:
            out.failures.append(text)
    out.attempted = len(texts)


def run_lts(pairs, out: Outcome) -> None:
    clock = time.perf_counter
    for left, right, congruent in pairs:
        t0 = clock()
        note = ""
        try:
            syntactic, semantic = pair_verdicts(left, right)
        except Exception as exc:  # an exception is a failed operation, not a crash
            syntactic = semantic = None
            note = f"{type(exc).__name__}: {exc}"
        out.latencies.append(clock() - t0)
        # Every pair has a known answer, so a disagreement is also a wrong answer.
        if (syntactic, semantic) != (congruent, congruent):
            out.check_errors.append(
                f"pair {left} ~ {right}: known answer {congruent}, "
                f"term side {syntactic}, diagram side {semantic}")
            out.failures.append(json.dumps({"left": left, "right": right, "syntactic": syntactic,
                                            "semantic": semantic, "error": note}))
    out.attempted = len(pairs)


RUNNERS = {
    "desk-reduction": run_desk,
    "context-plugging": run_plugging,
    "large-terms": run_large,
    "lts-bisim": run_lts,
}


def main(argv: list[str]) -> int:
    workload, seed, t0 = argv[0], int(argv[1]), float(argv[2])
    data = inputs(workload, seed)
    ready = time.monotonic()
    result = {"setup_s": ready - t0,
              "inputs_hash": workloads.inputs_hash(data)}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return 0
    tracer = None
    if "--trace" in argv:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    out = Outcome()
    start = time.perf_counter()
    RUNNERS[workload](data, out)
    verdict_s = time.perf_counter() - start
    result.update(
        verdict_s=verdict_s,
        latencies=out.latencies,
        attempted=out.attempted,
        failures=out.failures,
        check_errors=out.check_errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(verdict_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
