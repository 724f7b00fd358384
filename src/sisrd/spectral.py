"""Threshold quantities: basic reproduction number and principal eigenvalue.

For linear incidence in the infected density (p = 1) the reproduction
number is the variational value

    R0 = sup_phi Int(beta S~^q phi^2) / Int(d_I |grad phi|^2 + (gamma+eta) phi^2)

with ``S~`` the disease-free susceptible profile.  Discretely this is the
largest eigenvalue of ``W diag(beta S~^q) phi = mu (d_I K + W diag(gamma+eta)) phi``
(``W`` cell measures, ``K`` the stiffness form), computed by Lanczos
and polished by positive power iteration.  For p < 1 the linearization
at the disease-free state is degenerate and the request is refused.

The principal eigenvalue ``lambda0`` is the smallest eigenvalue of
``-d_I Lap(phi) - (beta recruitment^q - gamma - eta) phi``.  It is found
with the same eigen-solve after a shift from the bottom of the
spectrum: with ``M = d_I K - W diag(potential)``, every eigenvalue of
``(M, W)`` is at least ``-max(potential)``, so for
``shift = -max(potential) - 1`` the matrix
``M - shift W = d_I K + W diag(max(potential) + 1 - potential)`` is a
symmetric positive definite M-matrix with diagonal at least ``W``.  Its
inverse is then nonnegative, the power step on ``W phi = mu (M - shift W) phi``
keeps the eigenvector positive, and ``lambda0 = shift + 1/mu``.  The sign
of ``lambda0`` and the position of R0 relative to 1 flag the same
threshold.

Both problems have the form ``diag(a) phi = mu B phi`` with ``a`` a
positive vector and ``B = shifted_operator(dom, reaction, d_I)``.  Each
call assembles its ``B`` once and factors that same matrix once with
:func:`sisrd.solvers.sparse_lu`, in the mesh's elimination order
(:func:`sisrd.grid.ordered_form`).  That is :func:`compute_r0`'s only
factor when the recruitment is constant, which
:func:`sisrd.equilibrium.solve_dfe` returns as ``S~``; a varying one adds
the disease-free factor.  :func:`principal_potential` is the one home of
the potential.  With ``R = diag(sqrt(a))`` the largest ``mu`` is the
top eigenvalue of the symmetric operator ``R B^{-1} R``, which
implicitly restarted Lanczos (scipy's ``eigsh``, ARPACK) finds at a rate
set by the square root of the spectral gap; each Lanczos product is one
solve with the factor.  The Lanczos vector, mapped back and clipped at
0, then starts the positive power iteration, which certifies the pair by
its residual and keeps the eigenvector positive; it usually stops after
one step.  ``iterations`` counts the factor solves of the whole call, and
the factor is freed before the result is built.  A call that runs past its
solve budget, that ARPACK fails, or whose products overflow (a ``beta``
near the float limit) raises :class:`NonConvergenceError`, and so does a
gain, potential or shifted potential that overflows the float range (a
large ``q``, or rates near the float limit), before the eigen-solve
factors ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .coefficients import CoefficientSet
from .equilibrium import solve_dfe
from .grid import ScalarField, ordered_form, shifted_operator
from .solvers import NonConvergenceError, sparse_lu

__all__ = ["SpectralResult", "compute_r0", "compute_lambda0", "principal_potential"]

_LANCZOS_TOL = 1e-12  # eigsh's relative accuracy of the Ritz value
_LANCZOS_NCV = 20  # Lanczos basis size
_POWER_TOL = 1e-10  # on ||a phi - mu B phi|| / ||a phi||
_MAX_SOLVES = 5000  # factor solves per call, Lanczos and power steps together


@dataclass(frozen=True)
class SpectralResult:
    value: float
    field: ScalarField  # eigenfunction, sup-norm 1, nonnegative
    residual: float
    iterations: int  # factor solves
    converged: bool  # always True: a stalled iteration raises


def _top_eigenpair(dom, B, a: np.ndarray, what: str) -> tuple[np.ndarray, float, float, int]:
    """``(phi, mu, residual, solves)`` for ``diag(a) phi = mu B phi``; see :func:`_principal`.

    The factor and the Lanczos state live only in this frame, so they are
    freed before the caller allocates its result.
    """
    n = len(a)
    lu = sparse_lu(ordered_form(dom, B))
    solves = 0

    def solve(b):
        nonlocal solves
        if solves == _MAX_SOLVES:
            raise NonConvergenceError(f"{what} eigen-solve stalled after {solves} factor solves")
        solves += 1
        return lu.solve(b)

    r = np.sqrt(a)
    C = LinearOperator((n, n), matvec=lambda x: r * solve(r * x.ravel()), dtype=float)
    try:
        with np.errstate(over="raise"):  # an overflowing product ends the call
            _, x = eigsh(C, k=1, which="LA", v0=r, ncv=min(_LANCZOS_NCV, n), tol=_LANCZOS_TOL)
            phi = x[:, 0] / r
            phi = np.maximum(phi if phi.sum() > 0.0 else -phi, 0.0)
            while True:
                y = solve(a * phi)
                phi = y / float(np.max(np.abs(y)))
                Aphi = a * phi
                Bphi = B @ phi
                mu = float(phi @ Aphi) / float(phi @ Bphi)
                res = float(np.linalg.norm(Aphi - mu * Bphi)) / float(np.linalg.norm(Aphi))
                if res <= _POWER_TOL:
                    return phi, mu, res, solves
    except ArpackNoConvergence:
        raise NonConvergenceError(f"{what} Lanczos iteration stalled") from None
    except (ArpackError, FloatingPointError) as exc:
        raise NonConvergenceError(f"{what} eigen-solve failed: {exc}") from None


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` if every entry is finite; else :class:`NonConvergenceError` naming ``what``."""
    if not np.isfinite(values).all():
        raise NonConvergenceError(f"{what} overflows the float range")
    return values


def _principal(c: CoefficientSet, a: np.ndarray, reaction, what: str) -> SpectralResult:
    """Largest eigenpair of ``diag(a) phi = mu B phi`` with ``B = W diag(reaction) + d_I K``.

    Lanczos (``eigsh``, ``which="LA"``, started from ``sqrt(a)``) finds the
    top eigenvector ``x`` of ``R B^{-1} R`` with ``R = diag(sqrt(a))``;
    ``phi = x/sqrt(a)``, signed to a positive sum and clipped at 0, starts
    the power iteration on ``B^{-1} diag(a)``.  ``a`` is positive (the
    coefficient set refuses a nonpositive rate) and ``B`` an M-matrix with
    a positive inverse, so every power iterate is positive.  The estimate
    is the Rayleigh quotient, and the iteration stops when
    ``||a phi - mu B phi||_2 <= 1e-10 ||a phi||_2``; both sides scale
    alike with ``a``, so the test holds for a ``mu`` of any size.  Every product is one
    solve with one LU factor of ``B``; past ``_MAX_SOLVES`` of them the
    call raises :class:`NonConvergenceError`.  ``value`` is ``mu``, the
    field has sup-norm 1, and ``iterations`` is the number of solves.
    """
    dom = c.domain
    B = shifted_operator(dom, reaction, c.d_I)
    phi, mu, res, solves = _top_eigenpair(dom, B, a, what)
    if phi.min() < -1e-10:
        raise NonConvergenceError("principal eigenfunction failed to stay one-signed")
    return SpectralResult(
        value=mu,
        field=dom.field(np.maximum(phi, 0.0)),
        residual=res,
        iterations=solves,
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
    with np.errstate(over="ignore"):
        gain = _finite(c.beta.values * S_dfe.values**c.q, "R0 gain beta S~^q")
    return _principal(c, dom.cell_measures * gain, c.gamma.values + c.eta.values, "R0")


def principal_potential(c: CoefficientSet) -> np.ndarray:
    """``beta recruitment^q - gamma - eta``, the potential of :func:`compute_lambda0`.

    Raises :class:`NonConvergenceError` when it overflows the float range.
    """
    with np.errstate(over="ignore"):
        return _finite(
            c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values,
            "principal-eigenvalue potential beta recruitment^q - gamma - eta",
        )


def compute_lambda0(c: CoefficientSet) -> SpectralResult:
    """Smallest eigenvalue of ``-d_I Lap - (beta recruitment^q - gamma - eta)``.

    ``residual`` is ``||M phi - lambda0 W phi|| / (max(1, |lambda0|) ||W phi||)``
    with ``M`` assembled afresh, so it also checks the back-shift
    ``lambda0 = shift + 1/mu``; relative to ``|lambda0|`` once that exceeds
    1, it stays at the rounding level for a ``lambda0`` of any size.
    """
    w = c.domain.cell_measures
    potential = principal_potential(c)
    with np.errstate(over="ignore"):
        shift = -float(potential.max()) - 1.0
        reaction = _finite(-shift - potential, "principal-eigenvalue shifted potential")
    res = _principal(c, w, reaction, "principal-eigenvalue")
    lam0 = shift + 1.0 / res.value
    phi = res.field.values
    M = shifted_operator(c.domain, -potential, c.d_I)
    Wphi = w * phi
    resid = float(np.linalg.norm(M @ phi - lam0 * Wphi)) / (
        max(1.0, abs(lam0)) * float(np.linalg.norm(Wphi))
    )
    return replace(res, value=lam0, residual=resid)
