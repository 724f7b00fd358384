"""Threshold quantities: basic reproduction number and principal eigenvalue.

For linear incidence in the infected density (p = 1) the reproduction
number is the variational value

    R0 = sup_phi Int(beta S~^q phi^2) / Int(d_I |grad phi|^2 + (gamma+eta) phi^2)

with ``S~`` the disease-free susceptible profile.  Discretely this is the
largest eigenvalue of ``W diag(beta S~^q) phi = mu (d_I K + W diag(gamma+eta)) phi``
(``W`` cell measures, ``K`` the stiffness form), computed by positive
power iteration.  For p < 1 the linearization at the disease-free state
is degenerate and the request is refused.

The principal eigenvalue ``lambda0`` is the smallest eigenvalue of
``-d_I Lap(phi) - (beta recruitment^q - gamma - eta) phi``.  It is found
with the same power iteration after a shift from the bottom of the
spectrum: with ``M = d_I K - W diag(potential)``, every eigenvalue of
``(M, W)`` is at least ``-max(potential)``, so for
``shift = -max(potential) - 1`` the matrix
``M - shift W = d_I K + W diag(max(potential) + 1 - potential)`` is a
symmetric positive definite M-matrix with diagonal at least ``W``.  Its
inverse is then nonnegative, the iteration on ``W phi = mu (M - shift W) phi``
keeps the eigenvector positive, and ``lambda0 = shift + 1/mu``.  The sign
of ``lambda0`` and the position of R0 relative to 1 flag the same
threshold.

Both problems have the form ``diag(a) phi = mu B phi`` with ``a`` a
positive vector and ``B = shifted_operator(dom, reaction, d_I)``.  Each
call assembles its ``B`` once and factors that same matrix once with
:func:`sisrd.solvers.sparse_lu`, so every power step is one pair of
triangular solves and one product with ``B``; the factor is freed when
the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet
from .equilibrium import solve_dfe
from .grid import ScalarField, shifted_operator
from .solvers import NonConvergenceError, sparse_lu

__all__ = ["SpectralResult", "compute_r0", "compute_lambda0"]

_POWER_TOL = 1e-10  # on ||a phi - mu B phi|| / ||B phi||
_POWER_MAX_ITER = 50000


@dataclass(frozen=True)
class SpectralResult:
    value: float
    field: ScalarField  # eigenfunction, sup-norm 1, nonnegative
    residual: float
    iterations: int
    converged: bool  # always True: a stalled iteration raises


def _principal(c: CoefficientSet, a: np.ndarray, reaction, what: str) -> SpectralResult:
    """Largest eigenpair of ``diag(a) phi = mu B phi`` with ``B = W diag(reaction) + d_I K``.

    Power iteration on ``B^{-1} diag(a)`` from the all-ones vector, each step
    solved with one LU factor of ``B``.  ``a`` is positive (the coefficient
    set refuses a nonpositive rate) and ``B`` an M-matrix, so every iterate
    stays positive.  The estimate is the Rayleigh quotient, and the
    iteration stops when ``||a phi - mu B phi||_2 <= 1e-10 ||B phi||_2``.
    ``value`` is ``mu`` and the field has sup-norm 1.
    """
    dom = c.domain
    B = shifted_operator(dom, reaction, c.d_I)
    lu = sparse_lu(B.tocsc())
    phi = np.ones(dom.n_nodes)
    for iterations in range(1, _POWER_MAX_ITER + 1):
        y = lu.solve(a * phi)
        phi = y / float(np.max(np.abs(y)))
        Aphi = a * phi
        Bphi = B @ phi
        mu = float(phi @ Aphi) / float(phi @ Bphi)
        res = float(np.linalg.norm(Aphi - mu * Bphi)) / float(np.linalg.norm(Bphi))
        if res <= _POWER_TOL:
            break
    else:
        raise NonConvergenceError(f"{what} power iteration stalled at residual {res:.3e}")
    if phi.min() < -1e-10:
        raise NonConvergenceError("principal eigenfunction failed to stay one-signed")
    return SpectralResult(
        value=mu,
        field=dom.field(np.maximum(phi, 0.0)),
        residual=res,
        iterations=iterations,
        converged=True,
    )


def compute_r0(c: CoefficientSet) -> SpectralResult:
    """Reproduction number for p = 1; raises ``ValueError`` when p < 1."""
    if c.p != 1.0:
        raise ValueError(
            "R0 is defined only for incidence linear in the infected density (p = 1); "
            f"got p = {c.p}"
        )
    dom = c.domain
    S_dfe = solve_dfe(c)
    gain = c.beta.values * S_dfe.values**c.q
    return _principal(c, dom.cell_measures * gain, c.gamma.values + c.eta.values, "R0")


def compute_lambda0(c: CoefficientSet) -> SpectralResult:
    """Smallest eigenvalue of ``-d_I Lap - (beta recruitment^q - gamma - eta)``.

    ``residual`` is ``||M phi - lambda0 W phi|| / ||W phi||``, in the units
    of the unshifted problem.
    """
    w = c.domain.cell_measures
    potential = c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values
    shift = -float(potential.max()) - 1.0
    res = _principal(c, w, -shift - potential, "principal-eigenvalue")
    lam0 = shift + 1.0 / res.value
    phi = res.field.values
    M = shifted_operator(c.domain, -potential, c.d_I)
    resid = float(np.linalg.norm(M @ phi - lam0 * (w * phi))) / float(np.linalg.norm(w * phi))
    return replace(res, value=lam0, residual=resid)
