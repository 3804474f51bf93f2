"""The one compiled sparse kernel under every matvec and matmat.

Every sparse product in the repository -- :meth:`CSRMatrix.matvec` and
``matmat``, the ELL matrices (through a zero-copy CSR view of their
planes), and therefore every solver, backend and batched block sweep --
ends in :func:`csr_apply`.  It wraps scipy's compiled C++ CSR kernels
(``csr_matvec`` for a vector, ``csr_matvecs`` for a row-major column
block), which write into a caller-owned ``out`` without allocating.

Those kernels live in the private ``scipy.sparse._sparsetools`` module,
so this is the only place that imports them.  If the import ever fails
the kernel falls back to the public ``csr_array @ x`` product copied
into ``out``; both paths compute the same sums.

Summation order is fixed and documented: each output row is accumulated
strictly left to right over its stored entries, starting from ``0.0``,
i.e. ``((0 + a₀x₀) + a₁x₁) + ...``.  A block product runs the same
per-row order independently in every column, so column ``j`` of
``csr_apply(..., X, Y)`` equals ``csr_apply(..., X[:, j], y)``
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csr_apply"]

#: ``(csr_matvec, csr_matvecs)`` once bound, ``()`` when the import failed,
#: ``None`` before the first product.  Bound on first use rather than at
#: import, so ``import repro`` does not pull in ``scipy.sparse``.
_KERNELS: tuple | None = None


def _load_kernels() -> tuple:
    global _KERNELS
    try:  # scipy's private in-place kernels; wrapped here and nowhere else
        from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
    except ImportError:  # pragma: no cover - exercised by monkeypatching in tests
        _KERNELS = ()
    else:
        _KERNELS = (csr_matvec, csr_matvecs)
    return _KERNELS


def csr_apply(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Write ``A @ x`` into ``out`` for the CSR triple ``(indptr, indices, data)``.

    ``x`` is a vector of length ``ncols`` or an ``(ncols, m)`` block;
    ``out`` is the matching ``(nrows,)`` or ``(nrows, m)`` float64 array
    and must not alias ``x``.  Callers check that every column index is
    below ``ncols`` (the sparse formats do so at construction) and book
    the operation counter; this function checks the buffer sizes and
    computes.  Returns ``out``.

    Contiguous operands are used in place.  A non-contiguous ``x`` or
    ``out`` is staged through a contiguous copy by scipy, which is
    correct but allocates.
    """
    nrows = indptr.shape[0] - 1
    ncols = x.shape[0]
    # The compiled kernels take raw pointers and check no sizes.
    if out.shape != (nrows, *x.shape[1:]) or indices.shape != data.shape:
        raise ValueError(
            f"csr_apply: out {out.shape} does not match {nrows} rows and x "
            f"{x.shape}, or indices {indices.shape} != data {data.shape}"
        )
    kernels = _KERNELS if _KERNELS is not None else _load_kernels()
    if not kernels:
        import scipy.sparse as sp

        a = sp.csr_array((data, indices, indptr), shape=(nrows, ncols))
        out[...] = a @ x
        return out
    csr_matvec, csr_matvecs = kernels
    # The compiled kernels accumulate into their output (y += A x).
    out.fill(0.0)
    if x.ndim == 1:
        csr_matvec(nrows, ncols, indptr, indices, data, x, out)
    else:
        csr_matvecs(nrows, ncols, x.shape[1], indptr, indices, data, x, out)
    return out
