"""The one compiled sparse kernel (:mod:`repro.sparse.kernel`).

Pins the kernel's documented arithmetic -- each row summed strictly left
to right from ``0.0`` -- against a plain Python loop, bit for bit, and
checks that every sparse product (CSR and ELL, vector and block, compiled
and fallback) lands on that same arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import kernel
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import csr_to_ell
from repro.sparse.generators import poisson2d, poisson3d
from repro.util.counters import counting
from repro.util.rng import default_rng


def _random_csr_with_empty_rows(seed: int = 7) -> CSRMatrix:
    rng = default_rng(seed)
    nrows, ncols = 60, 45
    degrees = rng.integers(0, 7, size=nrows)
    degrees[rng.uniform(size=nrows) < 0.3] = 0  # plenty of empty rows
    cols = [np.sort(rng.choice(ncols, size=d, replace=False)) for d in degrees]
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    indices = np.concatenate(cols).astype(np.int64)
    data = rng.standard_normal(indices.size)
    return CSRMatrix(nrows, ncols, indptr, indices, data)


MATRICES = {
    "poisson2d": lambda: poisson2d(24),
    "poisson3d": lambda: poisson3d(12),
    "random_empty_rows": _random_csr_with_empty_rows,
}


def _left_to_right(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Reference: each row summed left to right in Python floats."""
    y = np.empty(a.nrows)
    for i in range(a.nrows):
        s = 0.0
        for jj in range(a.indptr[i], a.indptr[i + 1]):
            s += float(a.data[jj]) * float(x[a.indices[jj]])
        y[i] = s
    return y


@pytest.fixture(params=sorted(MATRICES))
def matrix(request) -> CSRMatrix:
    return MATRICES[request.param]()


def _x(a, seed: int = 11) -> np.ndarray:
    return default_rng(seed).standard_normal(a.ncols)


class TestSummationOrder:
    def test_random_matrix_has_empty_rows_and_int64_indices(self):
        a = _random_csr_with_empty_rows()
        assert np.any(np.diff(a.indptr) == 0)
        assert a.indices.dtype == np.int64 and a.indptr.dtype == np.int64

    def test_matvec_is_bit_identical_to_left_to_right_sum(self, matrix):
        x = _x(matrix)
        assert np.array_equal(matrix.matvec(x), _left_to_right(matrix, x))

    def test_matmat_columns_equal_matvec(self, matrix):
        xs = default_rng(5).standard_normal((matrix.ncols, 4))
        block = matrix.matmat(xs)
        for j in range(xs.shape[1]):
            assert np.array_equal(block[:, j], matrix.matvec(xs[:, j]))

    def test_ell_is_bit_identical_to_csr(self, matrix):
        ell = csr_to_ell(matrix)
        x = _x(matrix)
        assert np.array_equal(ell.matvec(x), matrix.matvec(x))
        xs = default_rng(6).standard_normal((matrix.ncols, 3))
        assert np.array_equal(ell.matmat(xs), matrix.matmat(xs))


class TestBuffers:
    def test_non_contiguous_out(self, matrix):
        x = _x(matrix)
        backing = np.full(2 * matrix.nrows, np.nan)
        out = backing[::2]
        got = matrix.matvec(x, out=out)
        assert got is out
        assert np.array_equal(out, matrix.matvec(x))
        # The interleaved slots were not written.
        assert np.isnan(backing[1::2]).all()

    def test_non_contiguous_x(self, matrix):
        x = default_rng(3).standard_normal(2 * matrix.ncols)
        assert np.array_equal(matrix.matvec(x[::2]), matrix.matvec(x[::2].copy()))

    def test_stale_out_is_overwritten(self, matrix):
        # The compiled kernel accumulates; csr_apply must zero first.
        x = _x(matrix)
        out = np.full(matrix.nrows, 1e300)
        assert np.array_equal(matrix.matvec(x, out=out), matrix.matvec(x))

    def test_kernel_rejects_mismatched_buffers(self):
        # The compiled loop takes raw pointers; a short out would be
        # written past its end, so the wrapper checks sizes itself.
        a = poisson2d(4)
        x = np.ones(a.ncols)
        with pytest.raises(ValueError, match="does not match"):
            kernel.csr_apply(a.indptr, a.indices, a.data, x, np.empty(a.nrows - 1))
        with pytest.raises(ValueError, match="does not match"):
            kernel.csr_apply(
                a.indptr, a.indices, a.data, np.ones((a.ncols, 2)), np.empty((a.nrows, 3))
            )

    def test_out_aliasing_x_raises(self):
        a = poisson2d(6)
        x = np.ones(a.nrows)
        with pytest.raises(ValueError, match="alias"):
            a.matvec(x, out=x)
        block = np.ones((a.nrows, 2))
        with pytest.raises(ValueError, match="alias"):
            a.matmat(block, out=block)
        with pytest.raises(ValueError, match="alias"):
            csr_to_ell(a).matvec(x, out=x)


class TestFallback:
    def test_compiled_kernels_are_bound(self):
        # Guards against silently running the fallback everywhere.
        a = poisson2d(4)
        a.matvec(np.ones(a.ncols))
        assert len(kernel._KERNELS) == 2

    def test_import_failure_fallback_is_identical(self, matrix, monkeypatch):
        x = _x(matrix)
        xs = default_rng(9).standard_normal((matrix.ncols, 3))
        compiled = (matrix.matvec(x), matrix.matmat(xs), csr_to_ell(matrix).matvec(x))
        monkeypatch.setattr(kernel, "_KERNELS", ())  # as after a failed import
        out = np.full(matrix.nrows, np.nan)
        fallback = (
            matrix.matvec(x, out=out),
            matrix.matmat(xs),
            csr_to_ell(matrix).matvec(x),
        )
        assert fallback[0] is out
        for got, want in zip(fallback, compiled):
            assert np.array_equal(got, want)


class TestAccounting:
    def test_one_matvec_booked_per_call(self):
        a = poisson2d(8)
        x = np.ones(a.nrows)
        out = np.empty(a.nrows)
        for op in (a, csr_to_ell(a)):
            with counting() as counts:
                op.matvec(x)
                op.matvec(x, out=out)
            assert counts.matvecs == 2
            assert counts.matvec_flops == 2 * (2 * a.nnz - a.nrows)

    def test_one_matmat_booking_per_call(self):
        a = poisson2d(8)
        xs = np.ones((a.nrows, 3))
        with counting() as counts:
            a.matmat(xs)
        # One booking of m=3 columns: three matvecs' flops, one matrix pass.
        assert counts.matvecs == 3
        assert counts.words_moved == 2 * a.nnz + 2 * a.nrows * 3
