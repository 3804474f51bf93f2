"""Backend kernel throughput and allocation discipline (``BENCH_perf.json``).

Three measurements of the kernel layer on the model problem:

* **shared matvec vs scipy** -- every sparse product in the repository
  runs on one compiled kernel (:func:`repro.sparse.kernel.csr_apply`).
  ``CSRMatrix.matvec(x, out=)`` is timed against scipy's own
  ``csr_array @ x`` on the same matrix (scipy's int32 index arrays) and
  the allocating ``matvec(x)`` and the ELL matvec are recorded alongside.
  The acceptance gate: the shared matvec within 1.25x of scipy at
  n >= 1e5 (``matvec_speedup_over_scipy >= 0.8``).
* **allocation counts** -- tracemalloc-measured bytes per call for the
  allocating and the ``out=`` paths (the latter must allocate nothing),
  plus per-iteration steady-state allocations of a full CG solve with a
  caller-owned arena and with the solver's own default arena (both must
  be allocation-free).
* **cross-backend parity** -- the op-counter totals and trace-span
  counts of one identical solve per available backend, recorded so a
  regression in counter booking (e.g. a backend double-booking per
  chunk) shows up in the committed numbers.

Numbers are written to ``BENCH_perf.json`` at the repository root;
``tools/check_bench_regression.py`` compares them against
``benchmarks/baselines/BENCH_perf.json`` in the bench-smoke CI job.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.backend import Workspace, available_backends, cached_ell, get_backend
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.sparse import poisson2d
from repro.trace import Tracer
from repro.util.counters import counting
from repro.util.rng import default_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

# poisson2d(320) has n = 102400 >= 1e5 rows: the acceptance scale.
DEFAULT_GRID = 320


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_allocs(fn) -> dict:
    """Bytes/blocks allocated across one call of ``fn`` (peak over floor)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        floor, _ = tracemalloc.get_traced_memory()
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"peak_bytes": int(peak - floor), "retained_bytes": int(current - floor)}


def _matvec_arms(a, x, repeats: int) -> dict:
    """Time and trace the shared kernel against scipy's ``csr_array @ x``.

    The shared arm is ``CSRMatrix.matvec(x, out=)``, the path every
    solver loop takes.  The scipy arm is the product scipy itself runs
    on the same matrix, built the way scipy builds it (int32 indices).
    The allocating ``matvec(x)`` and the ELL ``matvec(x, out=)`` (the
    same kernel through a CSR view of the planes) are recorded for
    reference.
    """
    import scipy.sparse as sp

    n = a.nrows
    out = np.empty(n)
    scipy_a = sp.csr_array(a.to_scipy())
    ell = cached_ell(a)
    a.matvec(x)  # warm all paths before timing
    a.matvec(x, out=out)
    ell.matvec(x, out=out)
    scipy_a @ x

    shared_seconds = _best_of(lambda: a.matvec(x, out=out), repeats)
    scipy_seconds = _best_of(lambda: scipy_a @ x, repeats)
    return {
        "shared_matvec_seconds": shared_seconds,
        "scipy_matvec_seconds": scipy_seconds,
        "matvec_speedup_over_scipy": scipy_seconds / shared_seconds,
        "allocating_matvec_seconds": _best_of(lambda: a.matvec(x), repeats),
        "ell_matvec_seconds": _best_of(lambda: ell.matvec(x, out=out), repeats),
        "allocating_matvec_allocs": _traced_allocs(lambda: a.matvec(x)),
        "shared_matvec_allocs": _traced_allocs(lambda: a.matvec(x, out=out)),
    }


def _solve_allocation_profile(a, b, stop) -> dict:
    """Steady-state per-iteration allocation of a full CG solve.

    ``caller_arena`` passes a caller-owned :class:`Workspace`;
    ``default`` lets the solver provision its own.  Both must be
    allocation-free in steady state -- the solver creates an internal
    arena when none is supplied, so the allocation-free path is the
    default, not an opt-in.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.events import IterationEvent

    class _Probe:
        def __init__(self):
            self.deltas = []
            self._floor = None

        def emit(self, event):
            if not isinstance(event, IterationEvent):
                return
            _, peak = tracemalloc.get_traced_memory()
            if self._floor is not None:
                self.deltas.append(peak - self._floor)
            tracemalloc.reset_peak()
            self._floor = tracemalloc.get_traced_memory()[0]

    def _profile(**kwargs):
        probe = _Probe()
        tracemalloc.start()
        try:
            conjugate_gradient(a, b, stop=stop, telemetry=Telemetry(probe), **kwargs)
        finally:
            tracemalloc.stop()
        steady = probe.deltas[4:-1] or probe.deltas
        return {
            "max_iteration_bytes": int(max(steady)),
            "mean_iteration_bytes": int(sum(steady) / len(steady)),
        }

    return {
        "caller_arena": _profile(workspace=Workspace()),
        "default": _profile(),
    }


def _backend_parity(a, b, stop) -> list[dict]:
    """One identical solve per available backend: counters + spans."""
    records = []
    for name in available_backends():
        backend = get_backend(name)
        tracer = Tracer()
        from repro.telemetry import Telemetry
        from repro.telemetry.sinks import NullSink

        with counting() as counts:
            result = conjugate_gradient(
                a,
                b,
                stop=stop,
                backend=backend,
                workspace=Workspace(),
                telemetry=Telemetry(NullSink(), tracer=tracer),
            )
        records.append(
            {
                "backend": name,
                "converged": bool(result.converged),
                "iterations": int(result.iterations),
                "dots": int(counts.dots),
                "axpys": int(counts.axpys),
                "matvecs": int(counts.matvecs),
                "dot_flops": int(counts.dot_flops),
                "axpy_flops": int(counts.axpy_flops),
                "matvec_flops": int(counts.matvec_flops),
                "trace_spans": len(tracer.spans()),
            }
        )
    return records


def run(
    *,
    grid: int = DEFAULT_GRID,
    rtol: float = 1e-8,
    repeats: int = 20,
    solve_grid: int = 96,
    out_path: Path | str | None = DEFAULT_OUT,
) -> dict:
    """Measure the backend kernels; return (and optionally write) the record.

    ``grid`` sizes the matvec arms (acceptance wants n >= 1e5, i.e.
    grid >= 317); ``solve_grid`` sizes the full-solve allocation and
    parity sections, which run dozens of iterations and can be smaller.
    """
    a = poisson2d(grid)
    x = default_rng(3).standard_normal(a.nrows)

    a_small = poisson2d(solve_grid)
    b_small = np.ones(a_small.nrows)
    stop = StoppingCriterion(rtol=rtol, max_iter=60)

    payload = {
        "bench": "backend_kernels",
        "operator": f"poisson2d({grid})",
        "n": a.nrows,
        "nnz": a.nnz,
        "repeats": repeats,
        **_matvec_arms(a, x, repeats),
        "solve_allocations": _solve_allocation_profile(a_small, b_small, stop),
        "backend_parity": _backend_parity(a_small, b_small, stop),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_backend_kernel_performance():
    """Acceptance: the shared matvec within 1.25x of scipy's ``csr_array @
    x`` at n >= 1e5 and allocation-free with ``out=``, with identical
    op-counter totals across all available backends."""
    payload = run()
    assert payload["n"] >= 100_000
    ratio = payload["matvec_speedup_over_scipy"]
    assert ratio >= 0.8, (
        f"shared matvec is {1 / ratio:.3f}x slower than scipy csr_array @ x "
        f"(shared {payload['shared_matvec_seconds']*1e3:.3f} ms vs scipy "
        f"{payload['scipy_matvec_seconds']*1e3:.3f} ms; the bound is 1.25x)"
    )
    # The out= path must not allocate anything vector-sized.
    assert (
        payload["shared_matvec_allocs"]["peak_bytes"] < payload["n"] // 2
    ), payload["shared_matvec_allocs"]
    # Counter/telemetry parity: every backend books identical totals.
    parity = payload["backend_parity"]
    baseline = parity[0]
    for record in parity[1:]:
        for key in (
            "iterations", "dots", "axpys", "matvecs",
            "dot_flops", "axpy_flops", "matvec_flops", "trace_spans",
        ):
            assert record[key] == baseline[key], (
                f"backend {record['backend']} disagrees with "
                f"{baseline['backend']} on {key}: "
                f"{record[key]} != {baseline[key]}"
            )
    assert DEFAULT_OUT.exists()


if __name__ == "__main__":
    record = run()
    print(json.dumps(record, indent=2))
