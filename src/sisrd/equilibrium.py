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

The march only has to reach Newton's basin, not the steady state itself:
it offers its state to Newton through the package's one hand-off (the
``handoff`` callback of :func:`sisrd.dynamics.march`) at the first step
that passes the loose rate test ``|du|/dt < 1e-2``.  Newton's answer is
kept only if it converged to an endemic state with ``I > 0`` everywhere
and a conservation gap within 1e-6; otherwise the same march goes on to
the caller's steady test.  ``meta["handoff"]`` says which happened.
:func:`equilibrate` is this one path from a march to an
:class:`EquilibriumResult`, which :func:`sisrd.harness.run_scenario`
calls with a scenario's controls.  :func:`find_ee` wraps it with the one
set of steady-state defaults; the one-field limit profiles of
:mod:`sisrd.asymptotics` call it on the system with ``d_S = 0`` or
``d_I = 0``, where the Laplacian block of that field drops out of the
march and of Newton alike.

Classification calls a state endemic when the integrated infected mass
exceeds ``1e-10 * |Omega|``.  At any equilibrium the two equations sum
to a conservation identity, ``Int(S + eta I) = Int(recruitment)``, whose
relative defect is reported as the conservation gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .coefficients import CoefficientSet
from .dynamics import RunSummary, SimState, run
from .grid import ScalarField, assemble_neumann_laplacian, integrate, shifted_factor
from .solvers import NonConvergenceError, damped_newton

__all__ = [
    "ENDEMIC_MASS_RTOL",
    "EquilibriumResult",
    "solve_dfe",
    "elliptic_residuals",
    "conservation_gap",
    "find_ee",
    "equilibrate",
    "settle",
    "diagnostics",
    "grid_tolerance",
]

ENDEMIC_MASS_RTOL = 1e-10
_HANDOFF_GAP = 1e-6  # largest conservation gap of an accepted hand-off


def grid_tolerance(dom) -> float:
    """Discretization allowance ``1e-6 + 2 h^2`` used by pointwise checks."""
    return 1e-6 + 2.0 * dom.max_spacing**2


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
    :func:`~sisrd.dynamics.march`; ``steady_tol`` defaults to 1e-9 and
    ``t_final`` to 4000.  The march hands its state to Newton at the loose
    steady test and goes on to ``steady_tol`` only if Newton's answer is
    refused (see the module docstring).  Raises :class:`NonConvergenceError`
    if the march has not flattened out by ``t_final``.
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

    At the march's hand-off the state is settled, and the answer is
    accepted (``meta["handoff"] == "newton"``), ending the march, if Newton
    converged, the result is endemic with ``I > 0`` everywhere, and its
    conservation gap is at most ``_HANDOFF_GAP``; otherwise the march goes
    on to its stopping rule and its last state is settled (``"resumed"``).
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
    endemic = integrate(dom, I) > ENDEMIC_MASS_RTOL * dom.measure
    if summary.reason == "steady" and endemic and I.min() > 0.0:
        S, I, newton_iters, newton_stop = _newton_coupled(c, S, I)
        endemic = integrate(dom, I) > ENDEMIC_MASS_RTOL * dom.measure
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
        t=summary.t,
        newton_iterations=newton_iters,
        meta={"march_reason": summary.reason, "newton_stop": newton_stop},
    )


def _newton_coupled(
    c: CoefficientSet, S: np.ndarray, I: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, str]:
    """Damped Newton on the stationary system; also returns why it stopped.

    The Jacobian is structurally symmetric (two Laplacian blocks and two
    diagonals), the pattern :func:`~sisrd.solvers.sparse_lu` orders.
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
        return sp.bmat(
            [
                [c.d_S * L - ident - sp.diags(dF_dS), sp.diags(gamma - dF_dI)],
                [sp.diags(dF_dS), c.d_I * L + sp.diags(dF_dI - gamma - eta)],
            ],
            format="csc",
        )

    x, iters, stop = damped_newton(residual, jacobian, np.concatenate([S, I]))
    return x[:n], x[n:], iters, stop


def diagnostics(c: CoefficientSet, result: EquilibriumResult) -> dict:
    """Interior-extremum sign checks and global balances for an equilibrium.

    At a discrete maximum of S the diffusion term is nonpositive, so the
    local reaction ``recruitment - S - beta S^q I^p + gamma I`` must be
    nonnegative there (and nonpositive at a minimum); the infected
    equation satisfies the mirrored inequalities for its own reaction.
    Violations beyond the grid tolerance indicate a broken profile.
    """
    dom = c.domain
    S = result.S.values
    I = result.I.values
    tol = grid_tolerance(dom)
    transfer = c.beta.values * S**c.q * I**c.p
    reaction_S = c.recruitment.values - S - transfer + c.gamma.values * I
    reaction_I = transfer - (c.gamma.values + c.eta.values) * I
    checks = {
        "reaction_S_at_max_S": float(reaction_S[np.argmax(S)]),
        "reaction_S_at_min_S": float(reaction_S[np.argmin(S)]),
        "reaction_I_at_max_I": float(reaction_I[np.argmax(I)]),
        "reaction_I_at_min_I": float(reaction_I[np.argmin(I)]),
    }
    ok = (
        checks["reaction_S_at_max_S"] >= -tol
        and checks["reaction_S_at_min_S"] <= tol
        and checks["reaction_I_at_max_I"] >= -tol
        and checks["reaction_I_at_min_I"] <= tol
    )
    return {
        "endemic": result.endemic,
        "conservation_gap": result.conservation_gap,
        "residual_S_sup": result.residual_S,
        "residual_I_sup": result.residual_I,
        "extremum_checks": checks,
        "extremum_checks_pass": bool(ok),
        "grid_tolerance": tol,
        "min_S": float(S.min()),
        "max_S": float(S.max()),
        "min_I": float(I.min()),
        "max_I": float(I.max()),
    }
