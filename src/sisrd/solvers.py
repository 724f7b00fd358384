"""The damped Newton iteration of the steady problems, and the error raised
when an iterative computation exhausts its budget.

:func:`damped_newton` is the one Newton loop behind the coupled
equilibrium (:mod:`sisrd.equilibrium`) and the scalar limit profiles
(:mod:`sisrd.asymptotics`); each caller supplies its residual and its
Newton correction.  The time marches and the power iteration of
:mod:`sisrd.spectral` raise :class:`NonConvergenceError`.  Linear systems
need no iteration: each is solved with a sparse LU factor of a shifted
operator, :func:`sisrd.grid.shifted_factor`, which the solve that builds
it owns and frees.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

__all__ = ["NonConvergenceError", "damped_newton"]


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


def damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    correction: Callable[[np.ndarray, np.ndarray], Union[np.ndarray, str]],
    x: np.ndarray,
    target: float = 1e-11,
    max_iter: int = 15,
) -> tuple[np.ndarray, int, str]:
    """Damped Newton on ``residual(x) = 0`` from a positive ``x``.

    ``correction(x, G)`` returns the Newton step for the residual ``G`` at
    ``x``, or the reason it could not (such as ``"singular"``).  The step
    is halved, at most eight times, until ``x`` stays positive and the sup
    residual falls.  Returns the last accepted iterate, the number of
    iterations and why Newton stopped: ``"converged"`` (sup residual at
    most ``target``), the correction's reason, ``"non-finite"``,
    ``"no descent"`` or ``"max_iter"``.
    """
    G = residual(x)
    best = float(np.max(np.abs(G)))
    stop = "max_iter"
    iters = 0
    for iters in range(1, max_iter + 1):
        if best <= target:
            iters -= 1
            break
        delta = correction(x, G)
        if isinstance(delta, str):
            stop = delta
            break
        if not np.all(np.isfinite(delta)):
            stop = "non-finite"
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
    if best <= target:
        stop = "converged"
    return x, iters, stop
