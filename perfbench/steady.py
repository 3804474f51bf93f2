"""Repeat each workload and report how steady its end-to-end metrics are.

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --workloads http_solve --runs 5

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread -- the distance
between the quartiles as a share of the median -- beside the metric's
bound from ``BENCHMARK.json``.  A spread under a third of the bound is
``steady``; under the bound, ``within``; otherwise ``UNSTEADY``
(``setup_s`` is held only to its median, so its spread is shown but not
judged).  Also prints the failed share of every run, which must not
change.  Exits 1 if any run is incorrect, any spread is unsteady or the
failed share moves.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    healthy = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: " + json.dumps(result), flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        healthy &= correct and len(shares) == 1
        print(
            f"\n{workload}: {args.runs} runs of {args.seconds:g} s, correct={correct}, "
            f"failed share {' / '.join(str(s) for s in sorted(shares))}"
        )
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            if name == "setup_s":
                verdict = "median only"
            elif share < bound / 3:
                verdict = "steady"
            elif share < bound:
                verdict = "within"
            else:
                verdict = "UNSTEADY"
                healthy = False
            print(f"  {name:24} {median:12.5g} {q1:12.5g} {q3:12.5g} {share:8.2%} {bound:6.2f}  {verdict}")
        print(flush=True)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
