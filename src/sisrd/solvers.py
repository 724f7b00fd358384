"""Deterministic sparse solvers backing the implicit steps and eigenproblems.

Two operations, both free of randomness so that repeated runs are
bit-identical:

* :func:`spd_solve` -- conjugate gradients with a Jacobi (diagonal)
  preconditioner for symmetric positive definite systems, e.g. the
  shifted Laplacian forms ``W diag(c) + d K``;
* :func:`generalized_principal_eigenpair` -- power iteration on
  ``B^{-1} A`` for the largest eigenvalue of ``A phi = mu B phi`` with
  ``A`` symmetric nonnegative and ``B`` symmetric positive definite.
  Since ``B`` is an M-matrix in all uses here, the iteration preserves
  positivity of the eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NonConvergenceError",
    "SolveReport",
    "EigenReport",
    "spd_solve",
    "generalized_principal_eigenpair",
]


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float  # relative two-norm residual at exit
    converged: bool


@dataclass(frozen=True)
class EigenReport:
    iterations: int
    residual: float  # ||A phi - mu B phi|| / ||B phi||
    converged: bool
    degenerate: bool = False


def spd_solve(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-12,
    x0: Optional[np.ndarray] = None,
    max_iter: Optional[int] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve ``A x = b`` for symmetric positive definite ``A``.

    Plain conjugate gradients with Jacobi preconditioning; stops when the
    relative residual drops below ``tol``.  ``x0`` warm-starts the
    iteration (the previous time step's field, typically).  The iteration
    cap defaults to ``10 * n``.
    """
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    diag = A.diagonal()
    if np.any(diag <= 0):
        raise ValueError("matrix diagonal must be positive for a Jacobi-preconditioned solve")
    inv_diag = 1.0 / diag

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r)) / b_norm
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if res <= tol:
            iterations -= 1
            break
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise ValueError("matrix is not positive definite (p^T A p <= 0 in CG)")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        res = float(np.linalg.norm(r)) / b_norm
        z = inv_diag * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, SolveReport(iterations, res, res <= tol)


def generalized_principal_eigenpair(
    A: sp.spmatrix,
    B: sp.spmatrix,
    tol: float = 1e-10,
    max_iter: int = 50000,
) -> tuple[float, np.ndarray, EigenReport]:
    """Largest eigenvalue and eigenvector of ``A phi = mu B phi``.

    Power iteration on ``B^{-1} A`` with each application resolved by
    :func:`spd_solve` to 1e-13; the eigenvalue estimate is the Rayleigh
    quotient and convergence is declared when ``||A phi - mu B phi||_2``
    falls below ``tol * ||B phi||_2``.  The start vector is all ones, so the
    iteration is deterministic; an identically zero ``A`` short-circuits
    to the degenerate answer ``mu = 0``.
    """
    n = A.shape[0]
    if A.nnz == 0 or abs(A).sum() == 0.0:
        phi = np.ones(n)
        return 0.0, phi, EigenReport(0, 0.0, True, degenerate=True)

    phi = np.ones(n)
    mu = 0.0
    res = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rhs = A @ phi
        y, _ = spd_solve(B, rhs, tol=1e-13, x0=phi)
        scale = float(np.max(np.abs(y)))
        if scale == 0.0:
            # A maps phi into the kernel direction; treat as degenerate
            return 0.0, np.ones(n), EigenReport(iterations, 0.0, True, degenerate=True)
        phi = y / scale
        Aphi = A @ phi
        Bphi = B @ phi
        mu = float(phi @ Aphi) / float(phi @ Bphi)
        res = float(np.linalg.norm(Aphi - mu * Bphi)) / float(np.linalg.norm(Bphi))
        if res <= tol:
            break
    report = EigenReport(iterations, res, res <= tol)
    return mu, phi, report
