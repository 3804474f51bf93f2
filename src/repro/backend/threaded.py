"""Chunked multi-threaded backend (feature-detected, opt-in).

Large numpy ufuncs release the GIL, so a thread pool working on
contiguous chunks of the same vectors genuinely overlaps memory traffic
on multi-core hosts.  This backend parallelizes the elementwise axpy
family and delegates everything else (reductions, small vectors, and
operator application, which runs on the one compiled sparse kernel of
:mod:`repro.sparse.kernel`) to the reference implementation.

Accounting parity is non-negotiable: each kernel books the *same single*
counter entry the reference kernel would (one ``add_axpy`` per update;
the matvec is the reference one), never one per chunk, so op-count
totals and telemetry are identical across backends.

Feature detection: :meth:`ThreadedBackend.is_available` requires at least
two CPUs; ``resolve_backend("threaded")`` raises a clear error on
single-core hosts rather than silently degrading.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from repro.backend.reference import ReferenceBackend
from repro.backend.workspace import Workspace
from repro.util.counters import add_axpy

__all__ = ["ThreadedBackend"]

#: Vectors shorter than this run serially -- thread handoff costs more
#: than the memory traffic it would hide.
_MIN_PARALLEL_SIZE = 1 << 15


class ThreadedBackend(ReferenceBackend):
    """Multi-threaded elementwise kernels; the reference matvec."""

    name = "threaded"

    def __init__(self, num_threads: int | None = None, min_size: int = _MIN_PARALLEL_SIZE) -> None:
        cpus = os.cpu_count() or 1
        self._threads = max(2, min(int(num_threads or cpus), cpus))
        self._min_size = int(min_size)
        self._pool: ThreadPoolExecutor | None = None

    @classmethod
    def is_available(cls) -> bool:
        """Needs at least two CPUs to be worth selecting."""
        return (os.cpu_count() or 1) >= 2

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut down the thread pool (idempotent).

        The pool is lazily created, so a backend that never ran a
        parallel kernel has nothing to release.  After ``close()`` the
        backend remains usable: the next parallel kernel simply starts a
        fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadedBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- internals -----------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._threads, thread_name_prefix="repro-backend"
            )
        return self._pool

    def _ranges(self, n: int) -> list[tuple[int, int]]:
        """Split ``range(n)`` into near-equal contiguous chunks."""
        chunks = min(self._threads, max(1, n // max(self._min_size // 2, 1)))
        bounds = np.linspace(0, n, chunks + 1).astype(np.int64)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(chunks)]

    def _run_chunks(self, fn: Callable[[int, int], None], n: int) -> None:
        ranges = self._ranges(n)
        if len(ranges) == 1:
            fn(*ranges[0])
            return
        futures = [self._executor().submit(fn, lo, hi) for lo, hi in ranges]
        for future in futures:
            future.result()

    # -- vector updates ------------------------------------------------
    def axpy(
        self,
        a: float,
        x: np.ndarray,
        y: np.ndarray,
        out: np.ndarray | None = None,
        *,
        work: Any = None,
    ) -> np.ndarray:
        n = x.shape[0]
        if out is None or n < self._min_size:
            return super().axpy(a, x, y, out=out, work=work)
        add_axpy(n)  # one booking for the whole update, as the reference does
        scratch = work.scratch(x.shape) if isinstance(work, Workspace) else work

        if out is y:
            if scratch is None:
                def chunk(lo: int, hi: int) -> None:
                    out[lo:hi] += a * x[lo:hi]
            else:
                def chunk(lo: int, hi: int) -> None:
                    np.multiply(x[lo:hi], a, out=scratch[lo:hi])
                    out[lo:hi] += scratch[lo:hi]
        else:
            def chunk(lo: int, hi: int) -> None:
                np.multiply(x[lo:hi], a, out=out[lo:hi])
                out[lo:hi] += y[lo:hi]

        self._run_chunks(chunk, n)
        return out

    def axpby(
        self,
        a: float,
        x: np.ndarray,
        b: float,
        y: np.ndarray,
        out: np.ndarray | None = None,
        *,
        work: Any = None,
    ) -> np.ndarray:
        n = x.shape[0]
        if out is None or n < self._min_size:
            return super().axpby(a, x, b, y, out=out, work=work)
        add_axpy(n, flops_per_entry=3)
        scratch = work.scratch(x.shape) if isinstance(work, Workspace) else work

        if out is x and out is y:
            def chunk(lo: int, hi: int) -> None:
                out[lo:hi] *= a + b
        elif out is y:
            if scratch is None:
                def chunk(lo: int, hi: int) -> None:
                    out[lo:hi] *= b
                    out[lo:hi] += a * x[lo:hi]
            else:
                def chunk(lo: int, hi: int) -> None:
                    out[lo:hi] *= b
                    np.multiply(x[lo:hi], a, out=scratch[lo:hi])
                    out[lo:hi] += scratch[lo:hi]
        else:
            if scratch is None:
                def chunk(lo: int, hi: int) -> None:
                    np.multiply(x[lo:hi], a, out=out[lo:hi])
                    out[lo:hi] += b * y[lo:hi]
            else:
                def chunk(lo: int, hi: int) -> None:
                    np.multiply(x[lo:hi], a, out=out[lo:hi])
                    np.multiply(y[lo:hi], b, out=scratch[lo:hi])
                    out[lo:hi] += scratch[lo:hi]

        self._run_chunks(chunk, n)
        return out

    def scale(self, a: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n = x.shape[0]
        if out is None or n < self._min_size:
            return super().scale(a, x, out=out)
        add_axpy(n, flops_per_entry=1)

        def chunk(lo: int, hi: int) -> None:
            np.multiply(x[lo:hi], a, out=out[lo:hi])

        self._run_chunks(chunk, n)
        return out
