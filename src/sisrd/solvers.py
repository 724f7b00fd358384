"""The package's one sparse LU, the guarded Newton loop of the steady
problems, and the error raised when an iterative computation exhausts its
budget.

:func:`sparse_lu` factors without pivoting, and a zero pivot is a
:class:`NonConvergenceError`.  It is the only caller of SuperLU's
``splu``; :func:`minimum_degree_order` computes an elimination order once
per mesh.  A matrix on a mesh pattern reaches it as
an :class:`OrderedMatrix`, already laid out in that order, and is factored
in it (``permc_spec="NATURAL"``); any other matrix is ordered by minimum
degree on ``A^T + A`` in the call.  :func:`sisrd.grid.shifted_factor` uses
it for the M-matrices of the marches, the disease-free solve and the
eigenproblems, and :mod:`sisrd.equilibrium` for Newton's matrices.
:func:`damped_newton` is the one Newton loop of the steady problems, run
on the coupled system by :mod:`sisrd.equilibrium` for every equilibrium
and every one-field limit profile of :mod:`sisrd.asymptotics`; its caller
supplies the residual, its Jacobian and the Jacobian's factor (which
factor: see :func:`sisrd.equilibrium._newton_coupled`).  Newton starts
from a marched state (the hand-off: see :func:`sisrd.dynamics.run`).  It
holds one Jacobian factor and refactors only when a step stops cutting the
residual tenfold (the chord, or Shamanskii, method: Kelley, *Solving
Nonlinear Equations with Newton's Method*, SIAM 2003).  A Newton matrix
need not be an M-matrix, so every Newton solve is checked by its backward
error against the whole Jacobian, with no fallback to a pivoted factor.
The time marches, and the eigen-solves of :mod:`sisrd.spectral` (Lanczos,
then a power-iteration polish) past their budget of factor solves, raise
:class:`NonConvergenceError`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse.linalg import spilu, splu

__all__ = [
    "NonConvergenceError",
    "OrderedMatrix",
    "damped_newton",
    "minimum_degree_order",
    "sparse_lu",
]

_NEWTON_TARGET = 1e-11  # sup residual at which Newton has converged
_NEWTON_MAX_ITER = 15
_SOLVE_RTOL = 1e-8  # largest backward error of a Newton solve, relative to its right side
_CHORD_RHO = 0.1  # a factor is held while each step cuts the sup residual below this share


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


def _superlu(factor, A, permc_spec: str, **options):
    """``factor`` (``splu`` or ``spilu``) of ``A`` on ``permc_spec``, with the diagonal as pivots."""
    try:
        return factor(
            A,
            permc_spec=permc_spec,
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
            **options,
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NonConvergenceError(f"sparse LU hit a zero pivot ({exc})") from None


def minimum_degree_order(A) -> np.ndarray:
    """Elimination order of the CSC matrix ``A``: minimum degree on ``A^T + A``.

    Entry ``k`` is the row and column of ``A`` eliminated ``k``-th: the
    inverse of SuperLU's ``perm_c``, so ``A[order][:, order]`` is the matrix
    that SuperLU factors.  The order depends on ``A``'s pattern alone.  It
    is read off an incomplete factor that drops every entry off the
    diagonal and is thrown away: SuperLU orders an incomplete factor as it
    orders a complete one, at a fraction of the cost.  ``A``'s diagonal must
    be nonzero.
    """
    ilu = _superlu(spilu, A, "MMD_AT_PLUS_A", drop_tol=np.inf, fill_factor=1.0)
    return np.argsort(ilu.perm_c)


class OrderedMatrix:
    """A square matrix ``A`` stored as ``P A P^T`` for a fixed elimination order.

    ``permuted`` is the CSC matrix ``A[order][:, order]``, and ``position``
    is the inverse of ``order`` (row ``i`` of ``A`` is row ``position[i]``
    of ``permuted``); ``A @ y`` multiplies in ``A``'s own order.
    :func:`sparse_lu` factors the stored matrix as it is laid out.
    """

    def __init__(self, permuted, order: np.ndarray, position: np.ndarray):
        self.permuted = permuted
        self.order = order
        self.position = position
        self.shape = permuted.shape

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        return (self.permuted @ y[self.order])[self.position]


class _OrderedLU:
    """Solves ``A x = b`` with an LU factor of ``P A P^T``, in ``A``'s own order."""

    def __init__(self, A: OrderedMatrix):
        self.lu = _superlu(splu, A.permuted, "NATURAL")
        self.order = A.order
        self.position = A.position

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.order])[self.position]


def sparse_lu(A):
    """SuperLU factor of the structurally symmetric matrix ``A``, without pivoting.

    An :class:`OrderedMatrix` is factored in the order it is stored in
    (``permc_spec="NATURAL"``), and its factor solves in ``A``'s own order;
    a CSC matrix is ordered by minimum degree on ``A^T + A``.  Either way the
    diagonal is the pivot (no row interchanges), and a pivot that is exactly
    zero raises :class:`NonConvergenceError` (an entry of ``A`` near the
    float limit can round one away).  The returned object solves with
    ``.solve(b)``; nothing is cached.
    """
    if isinstance(A, OrderedMatrix):
        return _OrderedLU(A)
    return _superlu(splu, A, "MMD_AT_PLUS_A")


def damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], tuple],
    x: np.ndarray,
) -> tuple[np.ndarray, int, str]:
    """Damped Newton on ``residual(x) = 0`` from a positive ``x``, on a held factor.

    ``jacobian(x)`` returns the Jacobian ``J`` of the residual at ``x``,
    any matrix with a product ``J @ y`` (a sparse matrix or an
    :class:`OrderedMatrix`), and a factor of it, an object whose
    ``.solve(b)`` solves
    ``J y = b`` (a :func:`sparse_lu`, say) and whose construction raises
    :class:`NonConvergenceError` on a zero pivot; a step ``delta`` solves
    ``J delta = -G`` with the last factor built.  That factor is kept for
    further (chord) steps for as long as each accepted step cuts the sup
    residual by at least ``_CHORD_RHO``; a step that contracts less stops
    the iteration if the residual is at most 1e-11 (so it ends at the
    rounding floor), and otherwise frees the factor and refactors at the
    current iterate.  At most one factor is alive.  The step is halved, at
    most eight times, until ``x`` stays positive and the sup residual
    falls; once the residual is at most 1e-11 only the full step is tried.
    Returns the last accepted iterate, the number of steps (solves) and
    why Newton stopped: ``"converged"`` (sup residual at most 1e-11),
    ``"singular"`` (a zero pivot), ``"non-finite"``, ``"inaccurate solve"``
    (backward error against ``J`` above ``_SOLVE_RTOL`` of
    ``G``), ``"no descent"`` (only on a fresh factor; a held one is
    refactored) or ``"max_iter"`` (``_NEWTON_MAX_ITER`` steps).
    """
    G = residual(x)
    best = float(np.max(np.abs(G)))
    if best <= _NEWTON_TARGET:
        return x, 0, "converged"
    stop = "max_iter"
    J = lu = None  # the matrix held, and its factor
    steps = 0
    for steps in range(1, _NEWTON_MAX_ITER + 1):
        fresh = lu is None
        if fresh:
            try:
                J, lu = jacobian(x)
            except NonConvergenceError:  # a zero pivot
                stop = "singular"
                break
        delta = lu.solve(-G)
        if not np.all(np.isfinite(delta)):
            stop = "non-finite"
            break
        if np.max(np.abs(J @ delta + G)) > _SOLVE_RTOL * best:
            stop = "inaccurate solve"
            break
        previous = best
        lam = 1.0
        # at the rounding floor a halved step cannot help: try the full one only
        for _ in range(9 if best > _NEWTON_TARGET else 1):
            x_try = x + lam * delta
            if x_try.min() > 0.0:
                G_try = residual(x_try)
                norm_try = float(np.max(np.abs(G_try)))
                if norm_try < best:
                    x, G, best = x_try, G_try, norm_try
                    break
            lam *= 0.5
        if best < _CHORD_RHO * previous:
            continue  # the factor still contracts: keep it
        if best <= _NEWTON_TARGET:
            break  # at the rounding floor
        if fresh and best == previous:
            stop = "no descent"
            break
        J = lu = None  # freed before the next factor is built
    if best <= _NEWTON_TARGET:
        stop = "converged"
    return x, steps, stop
