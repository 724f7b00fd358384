"""Time integration of the epidemic system by an IMEX splitting.

Each step treats diffusion and the linear sinks implicitly and the
transfer terms explicitly.  With ``F = beta (S^n)^q (I^n)^p``:

    (1/dt + 1) S' - d_S Lap(S') = S^n/dt + recruitment - F + gamma I^n
    (1/dt) I' - d_I Lap(I') + eta I' = I^n/dt + F - gamma I^n

Both updates are symmetric positive definite solves, each with an LU
factor of its time-step operator (:func:`sisrd.grid.shifted_factor`).
:func:`run` holds one pair of factors, for the current dt, and builds a
new pair (freeing the old one first) on every change of dt.  dt only
moves between the levels of a doubling ladder (below), so a march that
halves down ``L`` levels and doubles back builds ``2L - 1`` pairs, and a
march whose dt saws between levels builds one pair per change; while dt
stays at ``dt_max`` every step is two pairs of triangular solves.
Because the transfer terms ``-F + gamma I`` and ``+F - gamma I`` appear
explicitly with opposite signs, they cancel exactly in the discrete
total-mass balance; integrating the two updates gives

    d/dt Int(S + I) = Int(recruitment) - Int(S') - Int(eta I')

up to solver roundoff.  :func:`step_imex` returns that balance's defect
relative to ``Int(recruitment)`` with the new state, and :func:`run`
holds every accepted step to 1e-10 (:class:`MassBalanceError` otherwise).

A step checks the two solve outputs without copying them: first their
minima for positivity (:class:`StepRejected`), then the defect for
finiteness.  The cell measures are positive, so a non-finite entry in
either output makes the defect non-finite, and the step then raises the
``ValueError`` that :class:`~sisrd.grid.ScalarField` raises for
non-finite values.  Otherwise the outputs become the new fields as they
are.  :func:`run` steps with overflow warnings off, so a transfer that
overflows (a large ``q``) ends in that one error.

:func:`run` is the package's one time loop.  It starts at ``dt_max``
(0.4); a start that is too large is handled like any other step.  A step
that raises :class:`StepRejected` (a nonpositive susceptible or a
negative infected value) is retried with half the step; once dt falls
below ``dt_min`` the march aborts with :class:`TimeStepUnderflowError`.
After an accepted step dt halves if the step's increment ``(dS, dI)``
reverses the last one, ``<dS, dS_prev>_W + <dI, dI_prev>_W < 0``: the
explicit transfer overshoots and the march oscillates instead of
settling (a discrete form of switched evolution relaxation).  These
halvings stop at ``dt_max 2^-4``, where dt holds.  Otherwise dt stays at
the accepted value after a rejection and doubles, capped at ``dt_max``.
Halving and doubling keep every dt on the ladder ``dt_max 2^-j``, apart
from steps clipped to end on ``t_final``, so the march factors once per
change of dt, not once per step; on the shipped scenarios it never
leaves the cap and builds one factor pair.  Each step rounds the clock
``t + dt`` by at most ``eps max(|t|, |t_final|)``, so a remainder within
that many of them of ``t_final`` is the clock's rounding, not a step: the
step that comes that close ends on ``t_final`` exactly, on the factor
pair it already has.  (Taken as a step, such a sliver broke the mass
balance, whose defect scales as ``1/dt``.)

A march only has to reach Newton's basin, not the steady state itself.
Given a ``handoff`` callback, :func:`run` offers its state to a Newton
solve of the stationary problem at the first step that passes the loose
rate test ``|du|/dt < 1e-2``, stops there if Newton's answer is accepted,
and otherwise simply marches on to the caller's steady test: the first
stage of pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer.
Anal. 35, 1998).  Every equilibrium, and every one-field limit profile
of :mod:`sisrd.asymptotics` (the same system with one diffusion rate at
zero), reaches this one hand-off through
:func:`sisrd.equilibrium.equilibrate`, whose result carries the march's
step counts, end time (``SimState.t``) and stop reason
(``RunSummary.reason``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientSet
from .grid import ScalarField, shifted_factor
from .solvers import NonConvergenceError

__all__ = [
    "MASS_BALANCE_RTOL",
    "SimState",
    "StepRejected",
    "TimeStepUnderflowError",
    "MassBalanceError",
    "RunSummary",
    "step_imex",
    "run",
]

MASS_BALANCE_RTOL = 1e-10
_DT_GROWTH = 2.0  # undoes a rejection halving, so dt stays on the levels of one ladder
_HANDOFF_TOL = 1e-2  # steady test at which a march hands its state to Newton
_REVERSAL_FLOOR = 2.0**-4  # a reversal halves dt only down to dt_max times this


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


@dataclass
class RunSummary:
    steps: int = 0
    rejected: int = 0
    reversals: int = 0  # dt halvings after an increment reversal
    reason: str = ""  # "steady" | "t_final" | "max_steps"
    handoff: Optional[str] = None  # "newton" (accepted) | "resumed" (refused) | None


def _factor_pair(c: CoefficientSet, dt: float) -> tuple:
    """LU factors of the S and I time-step operators for ``dt``."""
    return (
        shifted_factor(c.domain, 1.0 / dt + 1.0, c.d_S),
        shifted_factor(c.domain, 1.0 / dt + c.eta.values, c.d_I),
    )


def step_imex(
    state: SimState, c: CoefficientSet, dt: float, *, factors=None
) -> tuple[SimState, float]:
    """Advance one IMEX step; raises :class:`StepRejected` on lost positivity.

    Returns the new state and the step's relative defect of the discrete
    mass balance (see the module docstring).  ``factors`` is the S and I
    factor pair for ``dt`` that :func:`run` holds; a step taken alone
    factors its two operators for itself.
    """
    dom = state.domain
    if dom is not c.domain:
        raise ValueError("state and coefficients live on different domains")
    lu_S, lu_I = _factor_pair(c, dt) if factors is None else factors
    w = dom.cell_measures
    S = state.S.values
    I = state.I.values
    # in place, in the left-to-right order of the formulas above
    transfer = c.beta.values * S**c.q
    transfer *= I**c.p
    recovery = c.gamma.values * I

    rhs = S / dt
    rhs += c.recruitment.values
    rhs -= transfer
    rhs += recovery
    rhs *= w
    S_new = lu_S.solve(rhs)
    rhs = I / dt
    rhs += transfer
    rhs -= recovery
    rhs *= w
    I_new = lu_I.solve(rhs)

    min_S = float(S_new.min())
    min_I = float(I_new.min())
    # strict positivity of I is part of the state contract when p < 1
    lost_I = min_I < 0.0 or (c.p < 1.0 and min_I <= 0.0 and I.min() > 0.0)
    if min_S <= 0.0 or lost_I:
        raise StepRejected(f"step rejected: min S = {min_S:.3e}, min I = {min_I:.3e}")

    lhs = (float(np.dot(w, S_new - S)) + float(np.dot(w, I_new - I))) / dt
    outflow = c.recruitment.values - S_new
    outflow -= c.eta.values * I_new
    balance = float(np.dot(w, outflow))
    source = float(np.dot(w, c.recruitment.values))
    defect = abs(lhs - balance) / source
    if not math.isfinite(defect):  # a non-finite entry of S_new or I_new, with w > 0
        raise ValueError("field contains non-finite values")
    new_state = SimState(ScalarField.adopt(dom, S_new), ScalarField.adopt(dom, I_new), state.t + dt)
    return new_state, defect


def run(
    state: SimState,
    c: CoefficientSet,
    *,
    t_final: Optional[float] = None,
    steady_tol: Optional[float] = None,
    dt_max: float = 0.4,
    dt_min: float = 1e-9,
    max_steps: int = 2_000_000,
    on_step: Optional[Callable[[SimState, int], None]] = None,
    handoff: Optional[Callable[[SimState, RunSummary], bool]] = None,
) -> tuple[SimState, RunSummary]:
    """March ``state`` by :func:`step_imex` from ``state.t`` to a stopping rule.

    The march starts at ``dt_max``.  A step is retried at half the dt on
    :class:`StepRejected`, the next dt halves after an increment reversal
    (counted in ``summary.reversals``), and the last step is clipped to
    end on ``t_final``, which a march that stops there ends on exactly
    (see the module docstring for the policy).  The
    steady test is ``|u_new - u|_inf / dt < steady_tol`` over both fields
    and one accepted step; at least one of ``t_final`` and ``steady_tol``
    must be given.  ``on_step(state, steps)`` runs after every accepted
    step, and an accepted step whose mass-balance defect exceeds
    ``MASS_BALANCE_RTOL`` raises :class:`MassBalanceError`.

    ``handoff(state, summary) -> bool`` is offered the state once, at the
    first step whose rate is below ``_HANDOFF_TOL``, before its steady
    test, and only when ``steady_tol`` is tighter; ``summary`` is the one a
    stop there would return.  Accepted, it ends the run as steady
    (``summary.handoff == "newton"``); refused, the loop goes on
    (``"resumed"``).  The loop holds the LU factor pair of the current dt
    and frees it before ``handoff`` runs, so none is alive while Newton
    factors.
    """
    if t_final is None and steady_tol is None:
        raise ValueError("need t_final, steady_tol, or both")
    summary = RunSummary()
    dt = dt_max
    dt_floor = dt_max * _REVERSAL_FLOOR
    offer = handoff is not None and steady_tol is not None and steady_tol < _HANDOFF_TOL
    held_dt, factors = None, None
    w = state.domain.cell_measures
    dS_prev = dI_prev = 0.0  # the first step has no increment to reverse
    if t_final is not None:  # each addition to the clock rounds by at most this
        ulp = np.finfo(float).eps * max(abs(state.t), abs(t_final))
    with np.errstate(over="ignore"):  # an overflowing transfer ends in step_imex's error
        while True:
            step_dt = dt
            if t_final is not None:
                slack = (summary.steps + 1) * ulp  # the clock's rounding so far
                if t_final - state.t <= slack:
                    summary.reason = "t_final"
                    break
                if t_final - state.t < dt - slack:
                    step_dt = t_final - state.t  # clipped to end on t_final
            if summary.steps >= max_steps:
                summary.reason = "max_steps"
                break
            rejected = 0
            while True:
                if step_dt != held_dt:
                    factors = None  # free the old pair before its successor is built
                    factors, held_dt = _factor_pair(c, step_dt), step_dt
                try:
                    new, defect = step_imex(state, c, step_dt, factors=factors)
                    break
                except StepRejected:
                    rejected += 1
                    step_dt *= 0.5
                    if step_dt < dt_min:
                        raise TimeStepUnderflowError(
                            f"dt underflow at t = {state.t:.6g} after {rejected} halvings"
                        ) from None
            if defect > MASS_BALANCE_RTOL:
                raise MassBalanceError(
                    f"mass-balance defect {defect:.3e} exceeds "
                    f"{MASS_BALANCE_RTOL:.1e} at t = {state.t:.6g}"
                )
            if t_final is not None and t_final - new.t <= slack:
                new = replace(new, t=t_final)  # the rest is the clock's rounding, not a step
            dS = new.S.values - state.S.values
            dI = new.I.values - state.I.values
            rate = max(float(abs(dS).max()), float(abs(dI).max())) / step_dt
            reversed_ = float(np.dot(w, dS * dS_prev)) + float(np.dot(w, dI * dI_prev)) < 0.0
            dS_prev, dI_prev = dS, dI
            summary.rejected += rejected
            summary.steps += 1
            state = new
            if on_step is not None:
                on_step(state, summary.steps)
            if reversed_ and step_dt * 0.5 >= dt_floor:
                dt = step_dt * 0.5
                summary.reversals += 1
            elif reversed_ or rejected:
                dt = step_dt
            else:
                dt = min(step_dt * _DT_GROWTH, dt_max)
            if offer and rate < _HANDOFF_TOL:
                offer = False
                held_dt, factors = None, None  # freed before the hand-off factors
                if handoff(state, replace(summary, reason="steady")):
                    summary.reason, summary.handoff = "steady", "newton"
                    break
                summary.handoff = "resumed"
            if steady_tol is not None and rate < steady_tol:
                summary.reason = "steady"
                break
    return state, summary
