"""Time integration of the epidemic system by an IMEX splitting.

Each step treats diffusion and the linear sinks implicitly and the
transfer terms explicitly.  With ``F = beta (S^n)^q (I^n)^p``:

    (1/dt + 1) S' - d_S Lap(S') = S^n/dt + recruitment - F + gamma I^n
    (1/dt) I' - d_I Lap(I') + eta I' = I^n/dt + F - gamma I^n

Both updates are symmetric positive definite solves, each through a
:func:`sisrd.grid.shifted_solver` that :func:`run` holds for the march:
an operator is factored again only when dt changes, and dt only moves
between the levels of a doubling ladder (below), so a march builds one
factor per operator and level, however many steps it takes; once dt
reaches ``dt_max`` every step is two pairs of triangular solves.
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
are.

:func:`run`, the package's one march, runs on the adaptive driver
:func:`march` and its rejection policy: a step that raises
:class:`StepRejected` (a nonpositive susceptible or a negative infected
value) is retried with half the step; dt stays at the accepted value
after a rejection and otherwise doubles, capped at ``dt_max``; once dt
falls below ``dt_min`` the march aborts with
:class:`TimeStepUnderflowError`.  Halving and
doubling keep every dt on the ladder ``dt_init 2^k`` (``dt_max 2^-j`` after
a rejection at the cap), so the march factors once per level it visits
(five from 0.01 to 0.1), not once per step.

A march only has to reach Newton's basin, not the steady state itself.
Given a ``handoff`` callback, :func:`march` offers its state to a Newton
solve of the stationary problem at the first step that passes the loose
rate test ``|du|/dt < 1e-2``, stops there if Newton's answer is accepted,
and otherwise simply marches on to the caller's steady test: the first
stage of pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer.
Anal. 35, 1998).  Every equilibrium, and every one-field limit profile
of :mod:`sisrd.asymptotics` (the same system with one diffusion rate at
zero), reaches this one hand-off through
:func:`sisrd.equilibrium.equilibrate`, whose result carries the march's
step counts, end time and stop reason (``RunSummary.reason``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from .coefficients import CoefficientSet
from .grid import ScalarField, shifted_solver
from .solvers import NonConvergenceError

__all__ = [
    "MASS_BALANCE_RTOL",
    "SimState",
    "StepRejected",
    "TimeStepUnderflowError",
    "MassBalanceError",
    "RunSummary",
    "step_imex",
    "march",
    "run",
]

MASS_BALANCE_RTOL = 1e-10
_DT_GROWTH = 2.0  # undoes a rejection halving, so dt stays on the levels of one ladder
_HANDOFF_TOL = 1e-2  # steady test at which a march hands its state to Newton


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
    reason: str = ""  # "steady" | "t_final" | "max_steps"
    t: float = 0.0  # time reached
    handoff: Optional[str] = None  # "newton" (accepted) | "resumed" (refused) | None


def _solvers(c: CoefficientSet) -> tuple[Callable, Callable]:
    """The S and I time-step solves of one march, each holding its own factor."""
    return shifted_solver(c.domain, 1.0, c.d_S), shifted_solver(c.domain, c.eta.values, c.d_I)


def step_imex(
    state: SimState, c: CoefficientSet, dt: float, *, solvers=None
) -> tuple[SimState, float]:
    """Advance one IMEX step; raises :class:`StepRejected` on lost positivity.

    Returns the new state and the step's relative defect of the discrete
    mass balance (see the module docstring).  ``solvers`` are the S and I
    solves of a march (see :func:`run`); a step taken alone factors its two
    operators for itself.
    """
    dom = state.domain
    if dom is not c.domain:
        raise ValueError("state and coefficients live on different domains")
    solve_S, solve_I = _solvers(c) if solvers is None else solvers
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
    S_new = solve_S(dt, rhs)
    rhs = I / dt
    rhs += transfer
    rhs -= recovery
    rhs *= w
    I_new = solve_I(dt, rhs)

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
    handoff: Optional[Callable[[Any, RunSummary], bool]] = None,
) -> tuple[Any, RunSummary]:
    """Adaptive time loop: advance ``u`` from time ``t`` to a stopping rule.

    ``advance(u, dt)`` returns the next state and its sup-norm change
    ``|u_new - u|_inf``, or raises :class:`StepRejected`; the step is then
    retried with half the dt (see the module docstring for the policy).
    The last step is clipped to end on ``t_final``.  The steady test is
    ``change / dt < steady_tol`` over one accepted step.  At least one of
    ``t_final`` and ``steady_tol`` must be given.  ``on_step(u, steps)``
    is called after every accepted step.

    ``handoff(u, summary) -> bool`` is offered the state once, at the first
    accepted step with ``change / dt < _HANDOFF_TOL``, before that step's
    steady test; only a ``steady_tol`` below ``_HANDOFF_TOL`` asks for it.
    ``summary`` is the one the march would return if it stopped there.  An
    accepted hand-off ends the march as steady (``summary.handoff ==
    "newton"``); a refused one lets the same loop go on (``"resumed"``).
    """
    if t_final is None and steady_tol is None:
        raise ValueError("need t_final, steady_tol, or both")
    summary = RunSummary()
    dt = min(dt_init, dt_max)
    loose = _HANDOFF_TOL
    offer = handoff is not None and steady_tol is not None and steady_tol < loose
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
        if offer and change / step_dt < loose:
            offer = False
            stop = replace(summary, reason="steady", t=t)
            if handoff(u, stop):
                summary = replace(stop, handoff="newton")
                break
            summary.handoff = "resumed"
        if steady_tol is not None and change / step_dt < steady_tol:
            summary.reason = "steady"
            break
    summary.t = t
    return u, summary


def run(
    state: SimState, c: CoefficientSet, *, handoff: Optional[Callable] = None, **controls
) -> tuple[SimState, RunSummary]:
    """March the system by :func:`step_imex` on the :func:`march` driver.

    ``controls`` are the stopping and stepping keywords of :func:`march`,
    and its ``on_step`` callback; ``handoff`` is passed on to it.  Every
    accepted step must keep the discrete mass balance within
    ``MASS_BALANCE_RTOL``, or the run aborts with :class:`MassBalanceError`.
    The march's LU factors die with it, and are freed before ``handoff``
    runs, so none is alive while Newton factors; a refused hand-off
    rebuilds them.
    """
    solvers = None

    def advance(s: SimState, dt: float) -> tuple[SimState, float]:
        nonlocal solvers
        if solvers is None:
            solvers = _solvers(c)
        new, defect = step_imex(s, c, dt, solvers=solvers)
        if defect > MASS_BALANCE_RTOL:
            raise MassBalanceError(
                f"mass-balance defect {defect:.3e} exceeds "
                f"{MASS_BALANCE_RTOL:.1e} at t = {s.t:.6g}"
            )
        change = max(
            float(abs(new.S.values - s.S.values).max()),
            float(abs(new.I.values - s.I.values).max()),
        )
        return new, change

    def hand_off(s: SimState, summary: RunSummary) -> bool:
        nonlocal solvers
        solvers = None  # no march factor is alive while the hand-off factors
        return handoff(s, summary)

    return march(advance, state, t=state.t, handoff=hand_off if handoff else None, **controls)

