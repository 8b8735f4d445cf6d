"""Linear solver routing (FEBio's solver selection analog).

``solve_linear`` routes a CSR system to:

* ``"direct"`` — dense LU with partial pivoting (PARDISO stand-in),
* ``"skyline"`` — profile LDL' (FEBio Skyline), symmetric systems only,
* ``"cg"`` — Jacobi-preconditioned conjugate gradients (RCICG),
* ``"fgmres"`` — ILU(0)-preconditioned flexible GMRES,
* ``"auto"`` — direct for small systems, CG for large symmetric ones,
  FGMRES otherwise (mirroring how FEBio routes solid models to PARDISO
  and fluid/biphasic models to iterative solvers at scale).

Every call returns a :class:`LinearSolveInfo` that the tracers consume.
"""

from __future__ import annotations

import numpy as np

from .direct import DenseLU
from .iterative import conjugate_gradient, fgmres
from .precond import ILU0Preconditioner, JacobiPreconditioner
from .skyline import SkylineLDL, SkylineMatrix

__all__ = ["LinearSolveInfo", "solve_linear", "is_numerically_symmetric"]

_DIRECT_LIMIT = 1300


class LinearSolveInfo:
    """What happened inside one linear solve (consumed by the tracers)."""

    def __init__(self, method, n, nnz, iterations=0, converged=True,
                 residual_norm=0.0):
        self.method = method
        self.n = int(n)
        self.nnz = int(nnz)
        self.iterations = int(iterations)
        self.converged = bool(converged)
        self.residual_norm = float(residual_norm)

    def __repr__(self):
        return (
            f"LinearSolveInfo({self.method}, n={self.n}, nnz={self.nnz}, "
            f"iters={self.iterations})"
        )


def is_numerically_symmetric(matrix, samples=200, tol=1e-8, seed=0):
    """Probabilistic symmetry check on sampled entries."""
    n = matrix.n
    if n == 0:
        return True
    rng = np.random.default_rng(seed)
    scale = float(np.abs(matrix.data).max()) if matrix.nnz else 1.0
    if scale == 0.0:
        scale = 1.0
    rows = rng.integers(0, n, size=min(samples, max(1, matrix.nnz)))
    for i in rows:
        cols, vals = matrix.row(int(i))
        if cols.size == 0:
            continue
        k = int(rng.integers(0, cols.size))
        j, v = int(cols[k]), float(vals[k])
        if abs(v - matrix.get(j, int(i))) > tol * scale:
            return False
    return True


def solve_linear(matrix, rhs, method="auto", rtol=1e-9):
    """Solve ``matrix @ x = rhs``; returns ``(x, LinearSolveInfo)``."""
    n = matrix.n
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},)")
    if method == "auto":
        if n <= _DIRECT_LIMIT:
            method = "direct"
        elif is_numerically_symmetric(matrix):
            method = "cg"
        else:
            method = "fgmres"

    if method == "direct":
        lu = DenseLU.from_csr(matrix)
        x = lu.solve(rhs)
        return x, LinearSolveInfo("direct", n, matrix.nnz)

    if method == "skyline":
        sky = SkylineMatrix.from_csr(matrix)
        x = SkylineLDL(sky).solve(rhs)
        return x, LinearSolveInfo("skyline", n, matrix.nnz)

    if method == "cg":
        result = conjugate_gradient(
            matrix, rhs, JacobiPreconditioner(matrix), rtol=rtol
        )
        if not result.converged:
            # CG can fail on near-indefinite tangents; FGMRES is the
            # robust fallback, as in FEBio's solver retry logic.
            return solve_linear(matrix, rhs, method="fgmres", rtol=rtol)
        return result.x, LinearSolveInfo(
            "cg", n, matrix.nnz, result.iterations, result.converged,
            result.residual_norm,
        )

    if method == "fgmres":
        try:
            precond = ILU0Preconditioner(matrix)
        except (ValueError, np.linalg.LinAlgError):
            precond = JacobiPreconditioner(matrix)
        result = fgmres(matrix, rhs, precond, rtol=rtol)
        if not result.converged and n <= 4 * _DIRECT_LIMIT:
            lu = DenseLU.from_csr(matrix)
            return lu.solve(rhs), LinearSolveInfo(
                "direct", n, matrix.nnz, result.iterations
            )
        return result.x, LinearSolveInfo(
            "fgmres", n, matrix.nnz, result.iterations, result.converged,
            result.residual_norm,
        )

    raise ValueError(f"unknown linear solver {method!r}")
