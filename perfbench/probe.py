"""Time a fresh interpreter to its first library answer.

    python3 perfbench/probe.py SEED

Imports ``repro``, builds the ``lib_vr_3d`` operator, solves the first
right-hand side of the seed's stream, and prints one JSON line with the
monotonic time of the answer and whether the answer checks out.  The
check runs after the time is taken.
"""

from __future__ import annotations

import json
import sys
import time

from spec import OPERATORS, RTOL, WORKLOADS, Stream, build_operator


def main(seed: int) -> None:
    import repro

    workload = WORKLOADS["lib_vr_3d"]
    name = workload.connections[0]
    a = build_operator(name)
    b = Stream(workload, 0, seed).next().b
    result = repro.solve(
        a, b, workload.method, stop=repro.StoppingCriterion(rtol=RTOL),
        **workload.options,
    )
    answered_at = time.monotonic()

    from floor import laplacian, residual_ok

    ok = bool(result.converged) and residual_ok(
        laplacian(*OPERATORS[name]), b, result.x, RTOL
    )
    print(json.dumps({"answered_at": answered_at, "ok": ok}), flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]))
