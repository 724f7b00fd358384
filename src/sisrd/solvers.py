"""The package's one sparse LU, the guarded Newton loop of the steady
problems, and the error raised when an iterative computation exhausts its
budget.

:func:`sparse_lu` factors without pivoting on a symmetric minimum-degree
ordering; :func:`sisrd.grid.shifted_factor` uses it for the M-matrices of
the marches, the disease-free solve and the eigenproblems.
:func:`damped_newton` is the one Newton loop of the steady problems, run
on the coupled system by :mod:`sisrd.equilibrium` for every equilibrium
and every one-field limit profile of :mod:`sisrd.asymptotics`; its caller
supplies the residual and the Newton system.  Newton starts from a marched state at the hand-off of
:func:`sisrd.dynamics.march`, after the march has freed its own factors; a
refused answer lets that march go on.  A Newton matrix need not be an
M-matrix, so every Newton solve is checked by its backward error, with no
fallback to a pivoted factor.  The time marches, and the eigen-solves of
:mod:`sisrd.spectral` (Lanczos, then a power-iteration polish) past their
budget of factor solves, raise :class:`NonConvergenceError`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse.linalg import splu

__all__ = ["NonConvergenceError", "damped_newton", "sparse_lu"]

_NEWTON_TARGET = 1e-11  # sup residual at which Newton has converged
_NEWTON_MAX_ITER = 15
_SOLVE_RTOL = 1e-8  # largest backward error of a Newton solve, relative to its right side


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


def sparse_lu(A):
    """SuperLU factor of the structurally symmetric CSC matrix ``A``.

    Ordered by minimum degree on ``A^T + A``, with the diagonal as pivots
    (no row interchanges).  Raises ``RuntimeError`` when a pivot is exactly
    zero.  The returned object solves with ``.solve(b)``; nothing is cached.
    """
    return splu(
        A,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    system: Callable[[np.ndarray, np.ndarray], tuple],
    x: np.ndarray,
) -> tuple[np.ndarray, int, str]:
    """Damped Newton on ``residual(x) = 0`` from a positive ``x``.

    ``system(x, G)`` returns the Newton system ``(A, b)`` for the residual
    ``G`` at ``x``; the step ``delta`` solves ``A delta = b`` with one
    :func:`sparse_lu`.  The step is halved, at most eight times, until
    ``x`` stays positive and the sup residual falls.  Returns the last
    accepted iterate, the number of iterations and why Newton stopped:
    ``"converged"`` (sup residual at most 1e-11), ``"singular"`` (a zero
    pivot), ``"non-finite"``, ``"inaccurate solve"`` (backward error above
    ``_SOLVE_RTOL`` of ``b``), ``"no descent"`` or ``"max_iter"``.
    """
    G = residual(x)
    best = float(np.max(np.abs(G)))
    stop = "max_iter"
    iters = 0
    for iters in range(1, _NEWTON_MAX_ITER + 1):
        if best <= _NEWTON_TARGET:
            iters -= 1
            break
        A, b = system(x, G)
        A = A.tocsc()  # a CSR operator is freed before the factorization
        try:
            delta = sparse_lu(A).solve(b)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            stop = "singular"
            break
        if not np.all(np.isfinite(delta)):
            stop = "non-finite"
            break
        if np.max(np.abs(A @ delta - b)) > _SOLVE_RTOL * np.max(np.abs(b)):
            stop = "inaccurate solve"
            break
        improved = False
        lam = 1.0
        for _ in range(9):
            x_try = x + lam * delta
            if x_try.min() > 0.0:
                G_try = residual(x_try)
                norm_try = float(np.max(np.abs(G_try)))
                if norm_try < best:
                    x, G, best = x_try, G_try, norm_try
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            stop = "no descent"
            break
    if best <= _NEWTON_TARGET:
        stop = "converged"
    return x, iters, stop
