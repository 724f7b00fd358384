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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.sparse as sp

from .coefficients import CoefficientSet
from .equilibrium import solve_dfe
from .grid import ScalarField, stiffness_matrix
from .solvers import NonConvergenceError, generalized_principal_eigenpair

__all__ = ["SpectralResult", "compute_r0", "compute_lambda0"]


@dataclass(frozen=True)
class SpectralResult:
    value: float
    field: ScalarField  # eigenfunction, sup-norm 1, nonnegative
    residual: float
    iterations: int
    converged: bool
    degenerate: bool = False
    params: dict = dc_field(default_factory=dict)


def _principal(c: CoefficientSet, A, B, what: str, params: dict) -> SpectralResult:
    """Power iteration on ``A phi = mu B phi`` from the all-ones vector.

    ``A`` is nonnegative and ``B`` an M-matrix in both uses, so every
    iterate stays positive; ``value`` is ``mu`` and the field has sup-norm 1.
    """
    mu, phi, report = generalized_principal_eigenpair(A, B)
    if not report.converged:
        raise NonConvergenceError(
            f"{what} power iteration stalled at residual {report.residual:.3e}"
        )
    if phi.min() < -1e-10:
        raise NonConvergenceError("principal eigenfunction failed to stay one-signed")
    return SpectralResult(
        value=float(mu),
        field=c.domain.field(np.maximum(phi, 0.0)),
        residual=report.residual,
        iterations=report.iterations,
        converged=report.converged,
        degenerate=report.degenerate,
        params=params,
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
    w = dom.cell_measures
    A = sp.diags(w * gain).tocsr()
    B = (c.d_I * stiffness_matrix(dom) + sp.diags(w * (c.gamma.values + c.eta.values))).tocsr()
    return _principal(c, A, B, "R0", {"d_I": c.d_I, "d_S": c.d_S, "q": c.q})


def compute_lambda0(c: CoefficientSet) -> SpectralResult:
    """Smallest eigenvalue of ``-d_I Lap - (beta recruitment^q - gamma - eta)``.

    ``residual`` is ``||M phi - lambda0 W phi|| / ||W phi||``, in the units
    of the unshifted problem.
    """
    w = c.domain.cell_measures
    potential = c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values
    shift = -float(potential.max()) - 1.0
    W = sp.diags(w).tocsr()
    M = (c.d_I * stiffness_matrix(c.domain) - sp.diags(w * potential)).tocsr()
    res = _principal(
        c, W, (M - shift * W).tocsr(), "principal-eigenvalue", {"d_I": c.d_I, "shift": shift}
    )
    lam0 = shift + 1.0 / res.value
    phi = res.field.values
    resid = float(np.linalg.norm(M @ phi - lam0 * (w * phi))) / float(np.linalg.norm(w * phi))
    return replace(res, value=lam0, residual=resid)
