"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload large-terms --seeds 1-10 --seconds 30

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and its spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  Compare each spread with the metric's ``bound`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k} {v:.4g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{name}: median {med:.4g}  spread {spread:.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
