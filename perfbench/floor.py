"""The floor every timed operation is measured against, and the checks.

Nothing here imports ``repro``: the operators are rebuilt with
``scipy.sparse`` from their textbook definitions, the CG loop is the bare
one (one ``A @ p``, two dots, three vector updates), and the residual
check recomputes ``b - A x`` on the benchmark's own copy of the operator.
That keeps the floor and the checks independent of the program under
test.
"""

from __future__ import annotations

import json
import time

import numpy as np
import scipy.sparse as sp

__all__ = [
    "laplacian",
    "cg",
    "block_cg",
    "json_round_trip",
    "residual_ok",
    "RESIDUAL_SLACK",
]

#: A returned ``x`` passes when ``||b - A x|| <= rtol * ||b|| * RESIDUAL_SLACK``.
#: The solvers stop on the recurred residual; on these Poisson systems the
#: true residual stays within a factor of two of it at rtol 1e-8, so a slack
#: of 10 admits honest rounding drift and rejects a wrong answer.
RESIDUAL_SLACK = 10.0


def _second_difference(n: int) -> sp.csr_array:
    return sp.csr_array(
        sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n))
    )


def laplacian(*dims: int) -> sp.csr_array:
    """The Dirichlet Laplacian on a ``dims`` grid, row-major like
    ``repro.poisson2d``/``poisson3d``: a Kronecker sum of 1-D second
    differences (5-point in 2-D, 7-point in 3-D)."""
    total = None
    for axis, n in enumerate(dims):
        term = _second_difference(n)
        for before in dims[:axis]:
            term = sp.kron(sp.identity(before), term)
        for after in dims[axis + 1:]:
            term = sp.kron(term, sp.identity(after))
        total = term if total is None else total + term
    return sp.csr_array(total)


def cg(a: sp.csr_array, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Bare conjugate gradient from ``x0 = 0``; stops when the recurred
    residual satisfies ``||r|| <= rtol * ||b||`` (the rule the library
    uses).  Returns ``(x, iterations)``."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    threshold2 = (rtol * np.sqrt(rr)) ** 2
    iterations = 0
    budget = 10 * b.shape[0]
    while rr > threshold2 and iterations < budget:
        q = a @ p
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rr_new = float(r @ r)
        p *= rr_new / rr
        p += r
        rr = rr_new
        iterations += 1
    return x, iterations


def block_cg(a: sp.csr_array, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """The batched twin: independent CG on every column of ``b`` (n, m),
    sharing each ``A @ P`` and fusing the column dots.  A converged column
    is frozen (zero step) instead of deflated.  Returns ``(X, sweeps)``."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = np.einsum("ij,ij->j", r, r)
    threshold2 = (rtol * np.sqrt(rr)) ** 2
    active = rr > threshold2
    sweeps = 0
    budget = 10 * b.shape[0]
    while active.any() and sweeps < budget:
        q = a @ p
        pq = np.einsum("ij,ij->j", p, q)
        alpha = np.where(active, rr / np.where(active, pq, 1.0), 0.0)
        x += alpha * p
        r -= alpha * q
        rr_new = np.einsum("ij,ij->j", r, r)
        beta = np.where(active, rr_new / np.where(active, rr, 1.0), 0.0)
        p *= beta
        p += r
        rr = np.where(active, rr_new, rr)
        active &= rr > threshold2
        sweeps += 1
    return x, sweeps


def json_round_trip(request: dict, response_body: bytes) -> float:
    """Seconds to encode and decode both bodies of one HTTP exchange once
    each: the JSON work a client and a server cannot avoid."""
    start = time.perf_counter()
    request_body = json.dumps(request).encode()
    json.loads(request_body)
    response = json.loads(response_body)
    json.dumps(response).encode()
    return time.perf_counter() - start


def residual_ok(a: sp.csr_array, b: np.ndarray, x: np.ndarray, rtol: float) -> bool:
    """Whether ``x`` solves ``A x = b`` to ``rtol`` (times the slack),
    column by column for a block."""
    residual = b - a @ x
    b_norm = np.linalg.norm(b, axis=0)
    r_norm = np.linalg.norm(residual, axis=0)
    return bool(
        np.all(np.isfinite(x)) and np.all(r_norm <= rtol * b_norm * RESIDUAL_SLACK)
    )
