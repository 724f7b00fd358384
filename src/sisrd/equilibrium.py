"""Steady states of the epidemic system.

The disease-free equilibrium is the unique solution of the linear
problem ``d_S Lap(S) - S + recruitment = 0`` with zero-flux boundaries,
solved by one sparse LU factor (:func:`sisrd.grid.shifted_factor`) that
is freed when :func:`solve_dfe` returns.  Endemic equilibria are found by
marching the time-dependent system to stationarity (the robust route for
every parameter regime).  Every
marched state then goes through :func:`settle`, which optionally polishes
it with a damped Newton iteration on the coupled elliptic system until the
sup-norm residual drops below ~1e-11; why Newton stopped is recorded in
``EquilibriumResult.meta["newton_stop"]``.

Classification calls a state endemic when the integrated infected mass
exceeds ``1e-10 * |Omega|``.  At any equilibrium the two equations sum
to a conservation identity, ``Int(S + eta I) = Int(recruitment)``, whose
relative defect is reported as the conservation gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .coefficients import CoefficientSet
from .dynamics import RunSummary, SimState, run
from .grid import ScalarField, assemble_neumann_laplacian, integrate, shifted_factor
from .solvers import NonConvergenceError

__all__ = [
    "ENDEMIC_MASS_RTOL",
    "EquilibriumResult",
    "solve_dfe",
    "elliptic_residuals",
    "conservation_gap",
    "find_ee",
    "settle",
    "diagnostics",
    "grid_tolerance",
]

ENDEMIC_MASS_RTOL = 1e-10


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
    steps: int
    rejected: int
    newton_applied: bool = False
    newton_iterations: int = 0
    meta: dict = dc_field(default_factory=dict)

    @property
    def domain(self):
        return self.S.domain


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


def find_ee(
    c: CoefficientSet,
    init: Optional[SimState] = None,
    *,
    newton: bool = True,
    **controls,
) -> EquilibriumResult:
    """March to a steady state from ``init`` (default constants 0.8 / 0.2).

    ``controls`` are the stopping and stepping keywords of
    :func:`~sisrd.dynamics.march`; ``steady_tol`` defaults to 1e-9 and
    ``t_final`` to 4000.  Raises :class:`NonConvergenceError` if the march
    has not flattened out by ``t_final``; otherwise the marched state goes
    through :func:`settle`, which applies Newton when ``newton`` is set.
    """
    dom = c.domain
    if init is None:
        init = SimState(dom.field(0.8), dom.field(0.2))
    controls = {"steady_tol": 1e-9, "t_final": 4000.0, **controls}
    state, summary = run(init, c, **controls)
    if not summary.converged_steady:
        raise NonConvergenceError(
            f"no steady state by t = {controls['t_final']:g} (stopped on {summary.reason})"
        )
    return settle(c, state, summary, newton)


def settle(
    c: CoefficientSet, state: SimState, summary: RunSummary, newton: bool
) -> EquilibriumResult:
    """Classify a marched state, polish it and certify it by its residuals.

    When ``newton`` is set, the march stopped on its steady test, and the
    state is endemic with strictly positive infection, a damped Newton
    iteration refines the profile; if Newton stalls, the fields of its last
    accepted iterate (the marched fields if none) are kept.  ``meta`` holds
    the march's stop reason and Newton's (``"converged"``, ``"singular"``,
    ``"non-finite"``, ``"no descent"``, ``"max_iter"``, or ``"skipped"``
    when Newton does not run).  The result carries the elliptic residuals
    and conservation gap of the returned fields.
    """
    dom = c.domain
    S = state.S.values.copy()
    I = state.I.values.copy()
    newton_iters = 0
    newton_stop = "skipped"
    endemic = integrate(dom, I) > ENDEMIC_MASS_RTOL * dom.measure
    if newton and summary.converged_steady and endemic and I.min() > 0.0:
        S, I, newton_iters, newton_stop = _newton_refine(c, S, I)
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
        newton_applied=newton_iters > 0,
        newton_iterations=newton_iters,
        meta={"march_reason": summary.reason, "newton_stop": newton_stop},
    )


def _newton_refine(
    c: CoefficientSet,
    S: np.ndarray,
    I: np.ndarray,
    target: float = 1e-11,
    max_iter: int = 15,
) -> tuple[np.ndarray, np.ndarray, int, str]:
    """Damped Newton on the stationary system; also returns why it stopped."""
    dom = c.domain
    L = assemble_neumann_laplacian(dom)
    ident = sp.identity(dom.n_nodes, format="csr")
    beta, gamma, eta = c.beta.values, c.gamma.values, c.eta.values
    p, q = c.p, c.q

    def res_norm(Sv, Iv):
        rS, rI = elliptic_residuals(c, Sv, Iv)
        return max(float(np.max(np.abs(rS))), float(np.max(np.abs(rI))))

    best = res_norm(S, I)
    stop = "max_iter"
    iters = 0
    for iters in range(1, max_iter + 1):
        if best <= target:
            iters -= 1
            break
        rS, rI = elliptic_residuals(c, S, I)
        dF_dS = q * beta * S ** (q - 1.0) * I**p
        dF_dI = p * beta * S**c.q * I ** (p - 1.0)
        J = sp.bmat(
            [
                [c.d_S * L - ident - sp.diags(dF_dS), sp.diags(gamma - dF_dI)],
                [sp.diags(dF_dS), c.d_I * L + sp.diags(dF_dI - gamma - eta)],
            ],
            format="csc",
        )
        try:
            delta = splu(J).solve(-np.concatenate([rS, rI]))
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            stop = "singular"
            break
        if not np.all(np.isfinite(delta)):
            stop = "non-finite"
            break
        improved = False
        lam = 1.0
        for _ in range(9):
            S_try = S + lam * delta[: dom.n_nodes]
            I_try = I + lam * delta[dom.n_nodes :]
            if S_try.min() > 0.0 and I_try.min() > 0.0:
                norm_try = res_norm(S_try, I_try)
                if norm_try < best:
                    S, I, best = S_try, I_try, norm_try
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            stop = "no descent"
            break
    if best <= target:
        stop = "converged"
    return S, I, iters, stop


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
