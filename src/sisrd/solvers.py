"""The error raised when an iterative computation exhausts its budget.

The time marches and the power iteration of :mod:`sisrd.spectral` raise
it.  Linear systems need no iteration: each is solved with a sparse LU
factor of a shifted operator, :func:`sisrd.grid.shifted_factor`, which
the solve that builds it owns and frees.
"""

from __future__ import annotations

__all__ = ["NonConvergenceError"]


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""
