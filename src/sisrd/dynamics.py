"""Time integration of the epidemic system by an IMEX splitting.

Each step treats diffusion and the linear sinks implicitly and the
transfer terms explicitly.  With ``F = beta (S^n)^q (I^n)^p``:

    (1/dt + 1) S' - d_S Lap(S') = S^n/dt + recruitment - F + gamma I^n
    (1/dt) I' - d_I Lap(I') + eta I' = I^n/dt + F - gamma I^n

Both updates are symmetric positive definite solves, each through a
:func:`sisrd.grid.shifted_solver` that :func:`run` holds for the march:
an operator is factored again only when dt changes, so once the dt ramp
reaches ``dt_max`` every step is two pairs of triangular solves.
Because the transfer terms ``-F + gamma I`` and ``+F - gamma I`` appear
explicitly with opposite signs, they cancel exactly in the discrete
total-mass balance; integrating the two updates gives

    d/dt Int(S + I) = Int(recruitment) - Int(S') - Int(eta I')

up to solver roundoff, which each accepted step verifies to 1e-10
relative (:class:`MassBalanceError` otherwise).

Every march in the package, this one and the scalar limit-profile marches
of :mod:`sisrd.asymptotics`, runs on the adaptive driver :func:`march`
and shares its rejection policy: a step that raises :class:`StepRejected`
(here: a nonpositive susceptible or a negative infected value) is retried
with half the step; dt stays at the accepted value after a rejection and
otherwise grows by 1.1x, capped at ``dt_max``; once dt falls below
``dt_min`` the march aborts with :class:`TimeStepUnderflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .coefficients import CoefficientSet
from .grid import ScalarField, shifted_solver
from .solvers import NonConvergenceError

__all__ = [
    "MASS_BALANCE_RTOL",
    "SimState",
    "StepStats",
    "StepRejected",
    "TimeStepUnderflowError",
    "MassBalanceError",
    "RunSummary",
    "step_imex",
    "march",
    "run",
]

MASS_BALANCE_RTOL = 1e-10
_DT_GROWTH = 1.1


class StepRejected(RuntimeError):
    """A candidate step violated positivity; the caller should shrink dt."""


class TimeStepUnderflowError(NonConvergenceError):
    """dt fell below its floor while the step kept being rejected."""


class MassBalanceError(RuntimeError):
    """An accepted step broke the discrete mass balance beyond its bound."""


@dataclass(frozen=True)
class SimState:
    """Fields of the system at one instant; S > 0 and I >= 0 nodewise."""

    S: ScalarField
    I: ScalarField
    t: float = 0.0

    def __post_init__(self):
        if self.S.domain is not self.I.domain:
            raise ValueError("S and I must live on the same domain")

    @property
    def domain(self):
        return self.S.domain


@dataclass(frozen=True)
class StepStats:
    dt: float
    mass_defect: float  # relative defect of the discrete mass balance
    min_S: float
    min_I: float


@dataclass
class RunSummary:
    steps: int = 0
    rejected: int = 0
    converged_steady: bool = False
    reason: str = ""
    t: float = 0.0  # time reached


def _solvers(c: CoefficientSet) -> tuple[Callable, Callable]:
    """The S and I time-step solves of one march, each holding its own factor."""
    return shifted_solver(c.domain, 1.0, c.d_S), shifted_solver(c.domain, c.eta.values, c.d_I)


def step_imex(state: SimState, c: CoefficientSet, dt: float, *, solvers=None) -> tuple[SimState, StepStats]:
    """Advance one IMEX step; raises :class:`StepRejected` on lost positivity.

    ``solvers`` are the S and I solves of a march (see :func:`run`); a
    step taken alone factors its two operators for itself.
    """
    dom = state.domain
    if dom is not c.domain:
        raise ValueError("state and coefficients live on different domains")
    solve_S, solve_I = _solvers(c) if solvers is None else solvers
    w = dom.cell_measures
    S = state.S.values
    I = state.I.values
    transfer = c.beta.values * S**c.q * I**c.p

    rhs_S = S / dt + c.recruitment.values - transfer + c.gamma.values * I
    S_new = solve_S(dt, w * rhs_S)
    rhs_I = I / dt + transfer - c.gamma.values * I
    I_new = solve_I(dt, w * rhs_I)

    min_S = float(S_new.min())
    min_I = float(I_new.min())
    # strict positivity of I is part of the state contract when p < 1
    lost_I = min_I < 0.0 or (c.p < 1.0 and min_I <= 0.0 and I.min() > 0.0)
    if min_S <= 0.0 or lost_I:
        raise StepRejected(f"step rejected: min S = {min_S:.3e}, min I = {min_I:.3e}")

    lhs = (float(np.dot(w, S_new - S)) + float(np.dot(w, I_new - I))) / dt
    rhs = float(np.dot(w, c.recruitment.values - S_new - c.eta.values * I_new))
    source = float(np.dot(w, c.recruitment.values))
    defect = abs(lhs - rhs) / source
    new_state = SimState(dom.field(S_new), dom.field(I_new), state.t + dt)
    return new_state, StepStats(dt, defect, min_S, min_I)


def march(
    advance: Callable[[Any, float], tuple[Any, float]],
    u: Any,
    *,
    t: float = 0.0,
    t_final: Optional[float] = None,
    steady_tol: Optional[float] = None,
    dt_init: float = 0.01,
    dt_max: float = 0.1,
    dt_min: float = 1e-9,
    max_steps: int = 2_000_000,
    on_step: Optional[Callable[[Any, int], None]] = None,
) -> tuple[Any, RunSummary]:
    """Adaptive time loop: advance ``u`` from time ``t`` to a stopping rule.

    ``advance(u, dt)`` returns the next state and its sup-norm change
    ``|u_new - u|_inf``, or raises :class:`StepRejected`; the step is then
    retried with half the dt (see the module docstring for the policy).
    The last step is clipped to end on ``t_final``.  The steady test is
    ``change / dt < steady_tol`` over one accepted step.  At least one of
    ``t_final`` and ``steady_tol`` must be given.  ``on_step(u, steps)``
    is called after every accepted step.
    """
    if t_final is None and steady_tol is None:
        raise ValueError("need t_final, steady_tol, or both")
    summary = RunSummary()
    dt = min(dt_init, dt_max)
    while True:
        if t_final is not None and t >= t_final - 1e-14:
            summary.reason = "t_final"
            break
        if summary.steps >= max_steps:
            summary.reason = "max_steps"
            break
        step_dt = dt if t_final is None else min(dt, t_final - t)
        rejected = 0
        while True:
            try:
                u_new, change = advance(u, step_dt)
                break
            except StepRejected:
                rejected += 1
                step_dt *= 0.5
                if step_dt < dt_min:
                    raise TimeStepUnderflowError(
                        f"dt underflow at t = {t:.6g} after {rejected} halvings"
                    ) from None
        summary.rejected += rejected
        summary.steps += 1
        u, t = u_new, t + step_dt
        if on_step is not None:
            on_step(u, summary.steps)
        dt = min(step_dt * _DT_GROWTH, dt_max) if rejected == 0 else step_dt
        if steady_tol is not None and change / step_dt < steady_tol:
            summary.converged_steady = True
            summary.reason = "steady"
            break
    summary.t = t
    return u, summary


def run(state: SimState, c: CoefficientSet, **controls) -> tuple[SimState, RunSummary]:
    """March the system by :func:`step_imex` on the :func:`march` driver.

    ``controls`` are the stopping and stepping keywords of :func:`march`,
    and its ``on_step`` callback.  Every accepted step must keep the
    discrete mass balance within ``MASS_BALANCE_RTOL``, or the run aborts
    with :class:`MassBalanceError`.  The march's LU factors die with it.
    """
    solvers = _solvers(c)

    def advance(s: SimState, dt: float) -> tuple[SimState, float]:
        new, stats = step_imex(s, c, dt, solvers=solvers)
        if stats.mass_defect > MASS_BALANCE_RTOL:
            raise MassBalanceError(
                f"mass-balance defect {stats.mass_defect:.3e} exceeds "
                f"{MASS_BALANCE_RTOL:.1e} at t = {s.t:.6g}"
            )
        change = max(
            float(np.max(np.abs(new.S.values - s.S.values))),
            float(np.max(np.abs(new.I.values - s.I.values))),
        )
        return new, change

    return march(advance, state, t=state.t, **controls)
