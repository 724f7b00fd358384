"""Steady states of the epidemic system.

The disease-free equilibrium is the unique solution of the linear
problem ``d_S Lap(S) - S + recruitment = 0`` with zero-flux boundaries,
solved by one sparse LU factor (:func:`sisrd.grid.shifted_factor`) that
is freed when :func:`solve_dfe` returns.  Endemic equilibria are found by
marching the time-dependent system towards stationarity (the robust route
for every parameter regime) and polishing the marched state with a damped
Newton iteration on the coupled elliptic system (:func:`settle`).  Newton
holds its Jacobian factor while each step cuts the sup-norm residual
tenfold, so it runs past 1e-11 to the rounding floor, usually on one
factor; why it stopped is recorded in
``EquilibriumResult.meta["newton_stop"]``.

:func:`equilibrate`, whose docstring states when the march's hand-off
to Newton is accepted, is the one path from a march to an
:class:`EquilibriumResult`; :func:`sisrd.harness.run_scenario` calls it
with a scenario's controls.
:func:`find_ee` wraps it with the one set of steady-state defaults; the
one-field limit profiles of :mod:`sisrd.asymptotics` call it on the
system with ``d_S = 0`` or ``d_I = 0`` (zero-rate Newton: see
:func:`_newton_coupled`).

Classification calls a state endemic when the integrated infected mass
exceeds ``1e-10 * |Omega|``.  At any equilibrium the two equations sum
to a conservation identity, ``Int(S + eta I) = Int(recruitment)``, whose
relative defect is reported as the conservation gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .coefficients import CoefficientSet
from .dynamics import RunSummary, SimState, run
from .grid import (
    ScalarField,
    assemble_neumann_laplacian,
    integrate,
    shifted_factor,
    shifted_operator,
)
from .solvers import NonConvergenceError, damped_newton, sparse_lu

__all__ = [
    "EquilibriumResult",
    "solve_dfe",
    "elliptic_residuals",
    "conservation_gap",
    "find_ee",
    "equilibrate",
    "settle",
    "grid_tolerance",
]

_ENDEMIC_MASS_RTOL = 1e-10  # of |Omega|: the infected mass of an endemic state exceeds it
_HANDOFF_GAP = 1e-6  # largest conservation gap of an accepted hand-off


def grid_tolerance(dom) -> float:
    """Discretization allowance ``1e-6 + 2 h^2`` used by pointwise checks."""
    try:
        return 1e-6 + 2.0 * dom.max_spacing**2
    except OverflowError:  # a float power past the float range raises, not inf
        return float("inf")


@dataclass(frozen=True)
class EquilibriumResult:
    S: ScalarField
    I: ScalarField
    endemic: bool
    residual_S: float  # sup-norm of the S-equation residual
    residual_I: float
    conservation_gap: float  # relative defect of Int(S + eta I) = Int(recruitment)
    steps: int  # of the march, up to the hand-off when Newton's answer ended it
    rejected: int
    t: float  # time the march reached
    newton_iterations: int = 0
    meta: dict = dc_field(default_factory=dict)


def solve_dfe(c: CoefficientSet) -> ScalarField:
    """Susceptible profile with no infection: ``d_S Lap(S) - S + recruitment = 0``."""
    dom = c.domain
    b = dom.cell_measures * c.recruitment.values
    return dom.field(shifted_factor(dom, 1.0, c.d_S).solve(b))


def elliptic_residuals(
    c: CoefficientSet, S: np.ndarray, I: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise residuals of the stationary system at the given fields."""
    L = assemble_neumann_laplacian(c.domain)
    transfer = c.beta.values * S**c.q * I**c.p
    res_S = c.d_S * (L @ S) + c.recruitment.values - S - transfer + c.gamma.values * I
    res_I = c.d_I * (L @ I) + transfer - (c.gamma.values + c.eta.values) * I
    return res_S, res_I


def conservation_gap(c: CoefficientSet, S: np.ndarray, I: np.ndarray) -> float:
    """Relative defect of ``Int(S + eta I) = Int(recruitment)``."""
    dom = c.domain
    lhs = integrate(dom, S + c.eta.values * I)
    rhs = integrate(dom, c.recruitment.values)
    return abs(lhs - rhs) / abs(rhs)


def find_ee(c: CoefficientSet, init: Optional[SimState] = None, **controls) -> EquilibriumResult:
    """March to a steady state from ``init`` (default constants 0.8 / 0.2).

    ``controls`` are the stopping and stepping keywords of
    :func:`~sisrd.dynamics.run`; ``steady_tol`` defaults to 1e-9 and
    ``t_final`` to 4000; the hand-off to Newton is :func:`equilibrate`'s.
    Raises :class:`NonConvergenceError` if the march has not flattened out
    by ``t_final``.
    """
    dom = c.domain
    if init is None:
        init = SimState(dom.field(0.8), dom.field(0.2))
    controls = {"steady_tol": 1e-9, "t_final": 4000.0, **controls}
    result = equilibrate(c, init, **controls)
    reason = result.meta["march_reason"]
    if reason != "steady":
        raise NonConvergenceError(
            f"no steady state by t = {controls['t_final']:g} (stopped on {reason})"
        )
    return result


def equilibrate(c: CoefficientSet, init: SimState, **controls) -> EquilibriumResult:
    """March ``init`` with ``controls`` and :func:`settle` the marched state.

    The march offers its state to Newton at the loose steady test (see
    :func:`sisrd.dynamics.run`).  There the state is settled, and the
    answer is accepted (``meta["handoff"] == "newton"``), ending the march,
    if Newton converged, the result is endemic with ``I > 0`` everywhere,
    and its conservation gap is at most ``_HANDOFF_GAP`` (1e-6); otherwise
    the same march goes on to its stopping rule and its last state is
    settled (``"resumed"``).
    The result's ``steps``, ``rejected``, ``t`` and ``meta["march_reason"]``
    describe the march up to the state it settled.
    """
    accepted = None

    def handoff(state: SimState, summary: RunSummary) -> bool:
        nonlocal accepted
        result = settle(c, state, summary)
        if (
            result.meta["newton_stop"] == "converged"
            and result.endemic
            and result.I.values.min() > 0.0
            and result.conservation_gap <= _HANDOFF_GAP
        ):
            accepted = result
        return accepted is not None

    state, summary = run(init, c, handoff=handoff, **controls)
    result = accepted if accepted is not None else settle(c, state, summary)
    if summary.handoff is not None:
        result = replace(result, meta={**result.meta, "handoff": summary.handoff})
    return result


def settle(c: CoefficientSet, state: SimState, summary: RunSummary) -> EquilibriumResult:
    """Classify a marched state, polish it and certify it by its residuals.

    When the march stopped on its steady test and the state is endemic with
    strictly positive infection, a damped Newton iteration refines the
    profile; if Newton stalls, the fields of its last accepted iterate (the
    marched fields if none) are kept.  ``meta`` holds the march's stop
    reason and Newton's (``"converged"``, ``"singular"``, ``"non-finite"``,
    ``"inaccurate solve"``, ``"no descent"``, ``"max_iter"``, or
    ``"skipped"`` when Newton does not run).  The result carries the
    elliptic residuals and conservation gap of the returned fields.
    """
    dom = c.domain
    S = state.S.values.copy()
    I = state.I.values.copy()
    newton_iters = 0
    newton_stop = "skipped"
    endemic = integrate(dom, I) > _ENDEMIC_MASS_RTOL * dom.measure
    if summary.reason == "steady" and endemic and I.min() > 0.0:
        S, I, newton_iters, newton_stop = _newton_coupled(c, S, I)
        endemic = integrate(dom, I) > _ENDEMIC_MASS_RTOL * dom.measure
    res_S, res_I = elliptic_residuals(c, S, I)
    return EquilibriumResult(
        S=dom.field(S),
        I=dom.field(I),
        endemic=endemic,
        residual_S=float(np.max(np.abs(res_S))),
        residual_I=float(np.max(np.abs(res_I))),
        conservation_gap=conservation_gap(c, S, I),
        steps=summary.steps,
        rejected=summary.rejected,
        t=state.t,
        newton_iterations=newton_iters,
        meta={"march_reason": summary.reason, "newton_stop": newton_stop},
    )


def _newton_coupled(
    c: CoefficientSet, S: np.ndarray, I: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, str]:
    """Damped Newton on the stationary system; also returns why it stopped.

    With ``a = -1 - dF/dS``, ``g = gamma - dF/dI``, ``e = dF/dS`` and
    ``b = dF/dI - gamma - eta`` the Jacobian is
    ``[[d_S L + diag(a), diag(g)], [diag(e), d_I L + diag(b)]]``,
    structurally symmetric, the pattern :func:`~sisrd.solvers.sparse_lu`
    orders.  With both rates positive that ``2n x 2n`` matrix is factored.
    At ``d_S = 0`` or ``d_I = 0`` the Laplacian block of that field drops
    out, its block of ``J`` is diagonal, and only the ``n x n`` Schur
    complement on the other field is factored (:func:`_schur_factor`,
    exact block elimination).  Newton checks every solve against the
    whole ``J`` either way.
    """
    n = c.domain.n_nodes
    L = assemble_neumann_laplacian(c.domain)
    ident = sp.identity(n, format="csr")
    beta, gamma, eta = c.beta.values, c.gamma.values, c.eta.values
    p, q = c.p, c.q

    def residual(x: np.ndarray) -> np.ndarray:
        return np.concatenate(elliptic_residuals(c, x[:n], x[n:]))

    def jacobian(x: np.ndarray):
        Sv, Iv = x[:n], x[n:]
        dF_dS = q * beta * Sv ** (q - 1.0) * Iv**p
        dF_dI = p * beta * Sv**q * Iv ** (p - 1.0)
        g, b = gamma - dF_dI, dF_dI - gamma - eta
        J = sp.bmat(
            [
                [c.d_S * L - ident - sp.diags(dF_dS), sp.diags(g)],
                [sp.diags(dF_dS), c.d_I * L + sp.diags(b)],
            ],
            format="csc",
        )
        if c.d_S > 0.0 and c.d_I > 0.0:
            return J, sparse_lu(J)
        return J, _schur_factor(c, -1.0 - dF_dS, g, dF_dS, b)

    x, iters, stop = damped_newton(residual, jacobian, np.concatenate([S, I]))
    return x[:n], x[n:], iters, stop


def _schur_factor(c: CoefficientSet, a, g, e, b) -> SimpleNamespace:
    """Solver of the coupled Jacobian at a zero rate, by block elimination.

    The rows of the field ``z`` whose rate is zero (S when ``d_S = 0``)
    read ``pivot dz + off dy = r_z``, with ``(pivot, off) = (a, g)``, or
    ``(b, e)`` at ``d_I = 0``; those of the other field ``y`` read
    ``cpl dz + (d L + diag(diag)) dy = r_y``, with ``(cpl, diag) = (e, b)``,
    or ``(g, a)``.  So ``dy`` solves the ``n x n`` Schur complement
    ``d L + diag(diag - cpl off/pivot)`` (``d_I L + diag(b - e g/a)``, or
    ``d_S L + diag(a - g e/b)``) for ``r_y - cpl r_z/pivot``, and
    ``dz = (r_z - off dy)/pivot`` node by node.  The complement is factored
    as ``-W`` times it, the symmetric
    :func:`~sisrd.grid.shifted_operator` on ``K``'s pattern.  A zero pivot
    raises :class:`NonConvergenceError` (Newton's ``"singular"``).  As in
    the march, an overflow raises no warning: the non-finite increment
    ends in Newton's ``"non-finite"`` stop.
    """
    n = c.domain.n_nodes
    w = c.domain.cell_measures
    z, y = slice(0, n), slice(n, 2 * n)
    pivot, off, cpl, diag, d = a, g, e, b, c.d_I
    if c.d_S > 0.0:  # d_I = 0
        z, y = y, z
        pivot, off, cpl, diag, d = b, e, g, a, c.d_S
    if not pivot.all():
        raise NonConvergenceError("zero pivot in the diagonal block of the Newton matrix")
    with np.errstate(over="ignore"):
        ratio = cpl / pivot
        A = shifted_operator(c.domain, ratio * off - diag, d)
    lu = sparse_lu(A.T)  # A is symmetric: its transpose is its CSC form

    def solve(r: np.ndarray) -> np.ndarray:
        x = np.empty_like(r)
        with np.errstate(over="ignore"):
            x[y] = lu.solve(-w * (r[y] - ratio * r[z]))
            x[z] = (r[z] - off * x[y]) / pivot
        return x

    return SimpleNamespace(solve=solve)
