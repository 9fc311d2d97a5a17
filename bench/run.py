"""pitwo benchmark: time to verdict on four workloads, each repetition in a fresh interpreter.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-reduction --seed 1 --seconds 32 --trace 0

Each repetition runs ``bench/worker.py`` in a new interpreter, one at a time,
so that pitwo's caches start empty as they do for a ``pitwo verify`` user.
Repetitions continue until ``--seconds`` is used up (at least three).  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
repetition runs with every layer boundary wrapped and the per-layer metrics
are printed.  Lines starting with ``#`` describe the run and list each failed
operation; the other lines before the last name one metric each, with its
unit; the last line is one JSON object.  The exit code is 1 when a verdict
check fails and 2 when there are no pitwo sources to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("desk-reduction", "context-plugging", "large-terms", "lts-bisim")
SEEDED = ("large-terms", "lts-bisim")
MIN_REPS = 3
MAX_REPS = 12
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
# No repetition starts that would end after this many seconds, so a run
# exits within 180 s even when a change makes repetitions slow.
HARD_LIMIT_S = 150


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def child(self, hash_seed: int, *flags: str) -> tuple[dict, float]:
        """Run one worker to completion; return its result and wall time."""
        # A fixed hash seed per repetition index gives every run the same
        # set-iteration orders, so runs differ only in their inputs.
        self.env["PYTHONHASHSEED"] = str(hash_seed)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), self.workload, str(self.seed), repr(t0), *flags],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        wall = time.monotonic() - t0
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker failed with exit code {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1]), wall

    def reps(self, deadline: float, first: int, hard_deadline: float) -> list[dict]:
        """At least `first` repetitions, then more while the next one fits before the deadline."""
        out, walls = [], []
        while True:
            result, wall = self.child(len(out) + 1)
            out.append(result)
            walls.append(wall)
            next_end = time.monotonic() + statistics.median(walls)
            if next_end > hard_deadline or len(out) >= MAX_REPS or (
                    len(out) >= first and next_end > deadline):
                return out


def end_to_end(workload: str, reps: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    verdicts = [r["verdict_s"] for r in reps]
    if workload in SEEDED:
        # one latency per operation: its median over the repetitions
        ops = [statistics.median(col) for col in zip(*(r["latencies"] for r in reps))]
    else:
        # a suite answers with one verdict, so the operation is the whole call
        ops = verdicts
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(verdicts), "s"),
        "op_p50_ms": (quantile(ops, 50) * 1000, "ms"),
        "op_p90_ms": (quantile(ops, 90) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pitwo" / "__init__.py").is_file():
        print(f"error: no pitwo sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline, hard_deadline = start + args.seconds, start + HARD_LIMIT_S
    runner = Runner(args.workload, args.seed)
    runner.child(0, "--setup-only")  # writes bytecode caches; not measured
    probes = [runner.child(0, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    if args.trace:
        traced = runner.child(1, "--trace")[0]
        reps = [traced] + runner.reps(deadline, 2, hard_deadline)
        untraced = statistics.median(r["verdict_s"] for r in reps[1:])
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = (traced["verdict_s"] / untraced - 1, "ratio")
    else:
        reps = runner.reps(deadline, MIN_REPS, hard_deadline)
        metrics = end_to_end(args.workload, reps, [r["setup_s"] for r in probes + reps])

    attempted = reps[0]["attempted"]
    failures = sorted({f for r in reps for f in r["failures"]})
    errors = sorted({e for r in reps for e in r["check_errors"]})
    if len({r["inputs_hash"] for r in probes + reps}) != 1:
        errors.append("repetitions saw different inputs")
    if any(sorted(r["failures"]) != failures for r in reps):
        errors.append("repetitions disagree on which operations fail")
    if args.trace:
        metrics["failed_share"] = (len(failures) / attempted, "ratio")

    print(f"# workload {args.workload}  seed {args.seed}  inputs {reps[0]['inputs_hash']}  "
          f"repetitions {len(reps)}  python {platform.python_version()}  cpus {os.cpu_count()}")
    print("# verdict_s per repetition: " + " ".join(f"{r['verdict_s']:.4f}" for r in reps))
    for text in failures:
        print(f"# failed: {text}")
    print(f"# failed {len(failures)} of {attempted} operations")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for text in errors:
        print(f"verdict check failed: {text}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
