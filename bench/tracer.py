"""Outside-in per-layer tracing of pitwo, installed by rebinding module attributes.

Each boundary function is replaced, in every pitwo module that holds it, by
a wrapper that records one span per call.  Rebinding every attribute that is
the same function object matters twice over: ``from .x import y`` copies the
reference into the importing module, and recursive functions such as
``diagram.signature`` call themselves through their own module global.
Spans nest on an in-memory stack, so a boundary's self time is its duration
minus the time of the boundary calls made inside it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced boundary; "DiagramLTS.intern" is a method.
BOUNDARIES = [
    ("syntax", "parse"), ("syntax", "free_names"),
    ("congruence", "canonical_form"),
    ("opsem", "reduce_step"),
    ("bisim", "barbs"), ("bisim", "reduction_union"), ("bisim", "partition_refine"),
    ("bisim", "bisimilarity_verdict"),
    ("diagram", "normalize"), ("diagram", "signature"), ("diagram", "isomorphic"),
    ("diagram", "equal"),
    ("translate", "translate"), ("translate", "translate_top"), ("translate", "top_equal"),
    ("translate", "translate_context"), ("translate", "plug_diagram"),
    ("rewrite", "find_diagram_redexes"), ("rewrite", "apply_comm"), ("rewrite", "comm_step"),
    ("harness", "enumerate_terms"), ("harness", "enumerate_contexts"),
    ("harness", "DiagramLTS.intern"),
    ("cli", "main"),
]
# The entry point's self time is the verification loop's own bookkeeping,
# not a layer, so it does not count towards coverage.
ENTRY = "cli.main"
# lru_cache'd boundaries whose hit ratio is reported.
CACHED = ["congruence.canonical_form", "syntax.free_names", "bisim.barbs"]
MODULES = ["syntax", "congruence", "opsem", "bisim", "diagram", "translate", "rewrite",
           "harness", "cli"]


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.originals: dict[str, object] = {}
        self._stack: list[float] = []  # child time accumulated by each open span
        self._sig_match = 0
        self._iso_true = 0
        self._nodes = 0
        self._redexes = 0
        self._classes: set[tuple[int, int]] = set()
        self._ltss: dict[int, object] = {}  # keeps ids in _classes unique

    def _wrap(self, name: str, fn, observe=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self) -> dict:
        def top_equal(args, result):
            self._sig_match += args[0].sig == args[1].sig

        def isomorphic(args, result):
            self._iso_true += bool(result)

        def translate_top(args, result):
            self._nodes += result.diagram.node_count()

        def find_diagram_redexes(args, result):
            self._redexes += len(result)

        def intern(args, result):
            lts = args[0]
            if (id(lts), result) not in self._classes:
                self._classes.add((id(lts), result))
                self._ltss[id(lts)] = lts

        return {
            "translate.top_equal": top_equal,
            "diagram.isomorphic": isomorphic,
            "translate.translate_top": translate_top,
            "rewrite.find_diagram_redexes": find_diagram_redexes,
            "harness.DiagramLTS.intern": intern,
        }

    def install(self) -> None:
        """Wrap every boundary; call once, before the first call into pitwo."""
        pkg = importlib.import_module("pitwo")
        mods = {m: importlib.import_module(f"pitwo.{m}") for m in MODULES}
        observers = self._observers()
        for mod_name, attr in BOUNDARIES:
            name = f"{mod_name}.{attr}"
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = getattr(cls, meth)
                self.originals[name] = orig
                setattr(cls, meth, self._wrap(name, orig, observers.get(name)))
                continue
            orig = getattr(mod, attr)
            self.originals[name] = orig
            wrapped = self._wrap(name, orig, observers.get(name))
            for holder in [pkg, *mods.values()]:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)

    def metrics(self, verdict_s: float) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for mod_name, attr in BOUNDARIES:
            name = f"{mod_name}.{attr}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in CACHED:
            info = self.originals[name].cache_info()
            looked_up = info.hits + info.misses
            out[f"{name}.hit_ratio"] = (info.hits / looked_up if looked_up else 0.0, "ratio")

        def share(part: int, base: int) -> float:
            return part / base if base else 0.0

        out["translate.top_equal.sig_match_ratio"] = (
            share(self._sig_match, self.calls["translate.top_equal"]), "ratio")
        out["diagram.isomorphic.true_ratio"] = (
            share(self._iso_true, self.calls["diagram.isomorphic"]), "ratio")
        out["translate.translate_top.nodes_mean"] = (
            share(self._nodes, self.calls["translate.translate_top"]), "nodes")
        out["rewrite.find_diagram_redexes.redexes_mean"] = (
            share(self._redexes, self.calls["rewrite.find_diagram_redexes"]), "redexes")
        out["harness.DiagramLTS.classes"] = (len(self._classes), "count")
        covered = sum(t for name, t in self.self_s.items() if name != ENTRY)
        out["trace.coverage"] = (covered / verdict_s, "ratio")
        return out
