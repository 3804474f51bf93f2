"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload http_solve --seed 1 --seconds 30 --trace 0

``--trace 0`` is the gated run: every end-to-end metric (latency as a
multiple of the interleaved floor, throughput, iterations, set-up time,
peak memory).  ``--trace 1`` is the separate traced run: the same inputs
replayed down the ladder of front doors, printing every per-layer
metric.  Run from the root of a checkout; the program is imported from
its ``src/`` directory.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from client import BLAS_ENV, SRC

    # Before numpy is first imported, so the pin takes effect here too.
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    from spec import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.trace:
        from ladder import run
    else:
        from measure import run
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
