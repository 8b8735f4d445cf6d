"""Direct dense solvers implemented from scratch (the PARDISO stand-in
for small/medium systems).

``DenseLU`` performs LU with partial pivoting; ``dense_cholesky``
factors SPD matrices.  Both operate on dense arrays materialized from
CSR — appropriate at the system sizes the test-suite workloads produce,
and mirrored by the factorization trace kernel which walks the sparse
profile instead.

The LU factorization runs natively: ``_dense_lu.c``, compiled on first
use by :mod:`repro.nativelib`, factors the array in place, without the
numpy loop's per-step temporaries.  The numpy loop
(:func:`_factor_numpy`) is the reference and the fallback on hosts
without a C compiler; the kernel repeats it operation for operation, so
the factors, pivots and swap count are the same bits on either path.
The triangular solves stay numpy on both paths.  Each factorization
bumps ``repro_fem_dense_lu_total{path}`` with the path that ran.
"""

from __future__ import annotations

import os
from ctypes import byref, c_int, c_longlong, c_void_p

import numpy as np

from ... import nativelib, telemetry

__all__ = ["DenseLU", "dense_cholesky", "cholesky_solve", "lu_path"]

_KERNEL_SRC = os.path.join(os.path.dirname(__file__), "_dense_lu.c")
# No FMA contraction: a_ij - l*u_kj must round the product first.
_FLAGS = ("-O3", "-ffp-contract=off")

_lib = None
_build_error = None


def _load_kernel():
    """The compiled kernel (loaded at the first factorization), or None
    when this host cannot build it; the reason stays in
    ``_build_error``."""
    global _lib, _build_error
    if _lib is None and _build_error is None:
        try:
            _lib = nativelib.load(
                _KERNEL_SRC, "dense_lu", _FLAGS,
                {"dense_lu": (c_int, [c_void_p, c_longlong, c_void_p,
                                      c_void_p])})
        except nativelib.BuildError as exc:
            _build_error = str(exc)
    return _lib


def lu_path():
    """Which factorization runs in this process: native or numpy."""
    return "numpy" if _load_kernel() is None else "native"


def _factor_numpy(A):
    """Factor *A* in place with the reference loop; ``(piv, swaps)``."""
    n = A.shape[0]
    piv = np.arange(n, dtype=np.int64)
    swaps = 0
    for k in range(n - 1):
        # Partial pivot.
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if A[p, k] == 0.0:
            raise np.linalg.LinAlgError("matrix is singular")
        if p != k:
            A[[k, p]] = A[[p, k]]
            piv[[k, p]] = piv[[p, k]]
            swaps += 1
        # Eliminate below the pivot with one vectorized rank-1 update
        # (broadcast product: same elementwise ops as np.outer with
        # none of its per-call wrapping overhead).
        A[k + 1:, k] /= A[k, k]
        A[k + 1:, k + 1:] -= A[k + 1:, k, None] * A[k, k + 1:]
    if n and A[n - 1, n - 1] == 0.0:
        raise np.linalg.LinAlgError("matrix is singular")
    return piv, swaps


def _factor_native(lib, A):
    """Factor *A* in place with the C kernel; ``(piv, swaps)``."""
    n = A.shape[0]
    piv = np.arange(n, dtype=np.int64)
    swaps = c_longlong(0)
    if lib.dense_lu(A.ctypes.data, n, piv.ctypes.data, byref(swaps)):
        raise np.linalg.LinAlgError("matrix is singular")
    return piv, swaps.value


class DenseLU:
    """LU factorization with partial pivoting: ``P A = L U``.

    The constructor factors a copy of *A*; :meth:`from_csr` factors the
    dense matrix it materializes in place.
    """

    def __init__(self, A):
        self._factor(np.array(A, dtype=np.float64, order="C"))

    @classmethod
    def from_csr(cls, matrix):
        """Factor a CSR matrix (its fresh ``to_dense()``, in place)."""
        lu = cls.__new__(cls)
        lu._factor(matrix.to_dense())
        return lu

    def _factor(self, A):
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("DenseLU requires a square matrix")
        lib = _load_kernel()
        telemetry.counter(
            "repro_fem_dense_lu_total",
            help="Dense LU factorizations by the path that ran.",
            path="numpy" if lib is None else "native").inc()
        if lib is None:
            self._piv, self._swaps = _factor_numpy(A)
        else:
            self._piv, self._swaps = _factor_native(lib, A)
        self._lu = A
        self.n = A.shape[0]

    def solve(self, b):
        """Solve ``A x = b`` using the stored factors."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},)")
        x = b[self._piv].copy()
        lu = self._lu
        # Forward substitution (unit lower).
        for i in range(1, self.n):
            x[i] -= lu[i, :i] @ x[:i]
        # Backward substitution.
        for i in range(self.n - 1, -1, -1):
            if i + 1 < self.n:
                x[i] -= lu[i, i + 1:] @ x[i + 1:]
            x[i] /= lu[i, i]
        return x

    def determinant(self):
        """Determinant from the factor diagonal and pivot swap parity."""
        parity = -1.0 if self._swaps % 2 else 1.0
        return parity * float(np.prod(np.diag(self._lu)))


def dense_cholesky(A):
    """Lower Cholesky factor of an SPD matrix (vectorized left-looking)."""
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0.0:
            raise np.linalg.LinAlgError(
                f"matrix not positive definite at column {j}"
            )
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def cholesky_solve(L, b):
    """Solve ``L L' x = b`` given a lower Cholesky factor."""
    n = L.shape[0]
    y = np.asarray(b, dtype=np.float64).copy()
    for i in range(n):
        y[i] = (y[i] - L[i, :i] @ y[:i]) / L[i, i]
    x = y
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x
