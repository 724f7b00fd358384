"""Small-diffusion limit profiles, bracketing sequences, and bound audits.

As the diffusion rates shrink, endemic equilibria approach limit
profiles.  With
``h = (gamma+eta)/beta`` and the pointwise ceiling ``h^(1/q)``:

* ``d_I -> 0``, p = 1: infection persists for small ``d_I`` only if the
  disease-free profile exceeds the ceiling somewhere; on
  ``{S~ < h^(1/q)}`` the infected density vanishes, and the infected mass
  concentrates where the susceptible profile touches the ceiling
  (:func:`classify_small_di`).
* ``d_I -> 0``, p < 1: the limit is the stationary system at ``d_I = 0``,
  where the infected field is slaved pointwise as ``(S^q/h)^(1/(1-p))``
  and the susceptible limit solves
  ``d_S Lap(S) + recruitment - S - eta (S^q/h)^(1/(1-p)) = 0``
  (:func:`limit_small_di`).
* ``d_S -> 0``: the limit is the stationary system at ``d_S = 0``, where
  the susceptible equation is the pointwise algebraic balance
  ``recruitment - S - beta S^q I^p + gamma I = 0``, leaving a single
  reaction-diffusion equation for I (:func:`limit_small_ds`).
* joint limit at fixed ratio ``sigma = d_I/d_S``: closed forms for p = 1
  when ``sigma >= max(eta)`` (envelope bounds otherwise), and for p < 1 a
  per-node scalar equation ``recruitment = eta t + h^(1/q) t^((1-p)/q)``
  (:func:`limit_joint_p1`, :func:`limit_joint_sublinear`).  The joint
  limits are also bracketed from below and above by one monotone
  iteration that differs between p = 1 and p < 1 only in its inner map
  (:func:`monotone_joint_p1`, :func:`monotone_joint_sublinear`); its limit
  is taken from the joint-limit profile, and every round is checked for
  monotonicity.

Both one-field limits are the coupled steady state with the vanishing
rate set to zero, found by :func:`sisrd.equilibrium.find_ee` from its
default start and ``t_final`` with ``steady_tol`` 1e-10 (hand-off:
:func:`sisrd.equilibrium.equilibrate`; zero-rate Newton:
:func:`sisrd.equilibrium._newton_coupled`).
``LimitProfile.meta`` records the march's ``steps``, the ``handoff``
outcome, and Newton's ``newton_iterations`` and ``newton_stop``.

This module is the one home of the regime decision.  ``REGIMES`` names
what shrinks; the joint regime's ratio ``sigma`` always comes from the
caller.  :func:`shrink_diffusion` sets a regime's rates,
:func:`limit_profile` picks its profile, and ``LimitProfile.regime``
carries the name.

Every pointwise scalar equation has the one form ``a t + b (t/s)^e = c``
on ``[0, hi]`` and is solved by bracketed Newton on that monotone map
(:func:`newton_increasing`): the sign change is verified up front and
every iterate shrinks the bracket, so each returned root is its own
certificate.
:func:`bounds_audit` checks a computed equilibrium against the a-priori
interior-extremum bounds (susceptible range for p = 1; infected range,
diffusion-weighted caps, and the positive floor of
:func:`susceptible_floor_constant` for p < 1)
and, for every p, against the maximum principle's sign of each field's
local reaction at that field's extrema.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientSet
from .equilibrium import EquilibriumResult, find_ee, grid_tolerance, solve_dfe
from .grid import ScalarField, assemble_neumann_laplacian, stiffness_matrix
from .solvers import NonConvergenceError
from .spectral import compute_lambda0, principal_potential

__all__ = [
    "LimitProfile",
    "MonotoneSequence",
    "BoundsReport",
    "newton_increasing",
    "classify_small_di",
    "limit_small_di",
    "limit_small_ds",
    "limit_joint_p1",
    "limit_joint_sublinear",
    "limit_profile",
    "REGIMES",
    "shrink_diffusion",
    "monotone_joint_p1",
    "monotone_joint_sublinear",
    "susceptible_floor_constant",
    "bounds_audit",
]


@dataclass(frozen=True)
class LimitProfile:
    """Predicted small-diffusion profile (or classification) for one regime."""

    regime: str  # one of REGIMES
    S_limit: Optional[ScalarField]
    I_limit: Optional[ScalarField]
    masks: dict = dc_field(default_factory=dict)  # name -> boolean node mask
    envelopes: dict = dc_field(default_factory=dict)  # name -> ScalarField bound
    sigma: Optional[float] = None
    meta: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class MonotoneSequence:
    """A bracketing iteration together with the joint-limit profile it approaches."""

    direction: str  # "increasing" | "decreasing"
    u_iterates: list  # early iterates only (up to a storage cap)
    v_iterates: list
    final_u: np.ndarray
    final_v: np.ndarray
    u_limit: np.ndarray
    v_limit: np.ndarray
    n_iterations: int
    converged: bool


@dataclass(frozen=True)
class BoundsReport:
    checks: list  # dicts: name, kind, bound, observed, margin, passed
    all_passed: bool
    tolerance: float


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


_NEWTON_MAX_ITER = 100  # the old halving count
_NEWTON_ULPS = 4.0
_MASS_IDENTITY_RTOL = 1e-12  # of max recruitment; a converged joint limit meets it to rounding


def newton_increasing(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
) -> np.ndarray:
    """Vectorized safeguarded Newton for a nondecreasing map with a sign change.

    ``f(lo) <= 0 <= f(hi)`` is verified up front, and every node keeps a
    bracket that the sign of ``f`` at each iterate shrinks.  Starting from
    the bracket midpoint, the Newton step is taken when the slope ``df`` is
    finite and the step lands inside the closed bracket; otherwise the node
    bisects.  A node has converged when an accepted Newton step
    moved it by at most 4 ulp or its bracket is at most 4 ulp of ``hi``
    wide.  :class:`NonConvergenceError` after 100 iterations.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    if np.any(f(lo) > 0.0) or np.any(f(hi) < 0.0):
        raise ValueError("root bracket does not straddle a sign change")
    width_tol = _NEWTON_ULPS * np.spacing(np.abs(hi))
    x = 0.5 * (lo + hi)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        fx = f(x)
        lo = np.where(fx <= 0.0, x, lo)
        hi = np.where(fx >= 0.0, x, hi)
        # an infinite slope (a power below one at 0) gives a zero step that
        # proves nothing, so it bisects like a step out of the bracket
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = df(x)
            x_newton = x - fx / slope
        newton = np.isfinite(slope) & (lo <= x_newton) & (x_newton <= hi)
        x_next = np.where(newton, x_newton, 0.5 * (lo + hi))
        converged = (
            newton & (np.abs(x_next - x) <= _NEWTON_ULPS * np.spacing(np.abs(x)))
        ) | (hi - lo <= width_tol)
        x = np.where(done, x, x_next)
        done |= converged
        if done.all():
            return x
    raise NonConvergenceError(
        f"Newton root not converged after {_NEWTON_MAX_ITER} iterations "
        f"at {int((~done).sum())} of {done.size} nodes"
    )


def _power_sum_root(a, b, s, e, c, hi) -> np.ndarray:
    """The root in ``[0, hi]`` of ``a t + b (t/s)^e = c``, by :func:`newton_increasing`."""

    def f(t: np.ndarray) -> np.ndarray:
        return a * t + b * (t / s) ** e - c

    def df(t: np.ndarray) -> np.ndarray:
        return a + (e / s) * b * (t / s) ** (e - 1.0)

    return newton_increasing(f, df, np.zeros_like(hi), hi)


# ---------------------------------------------------------------------------
# One-field limits: the stationary system with one diffusion rate at zero
# ---------------------------------------------------------------------------


def _limit_at_zero_diffusion(c: CoefficientSet, regime: str) -> LimitProfile:
    """Steady state of ``c`` with ``regime``'s rate set to zero, as its limit profile.

    :func:`~sisrd.equilibrium.find_ee` from its default start and
    ``t_final``, marched to ``|du|/dt < 1e-10``; its
    :class:`NonConvergenceError` if not steady.  ``meta`` holds the
    march's ``steps`` and ``t``, the ``handoff`` outcome, Newton's
    ``newton_iterations`` and ``newton_stop``, and ``residual_sup``, the
    larger sup residual of the two equations.
    """
    result = find_ee(shrink_diffusion(c, regime, 0.0), steady_tol=1e-10)
    meta = {
        "steps": result.steps,
        "t": result.t,
        "handoff": result.meta.get("handoff"),
        "newton_iterations": result.newton_iterations,
        "newton_stop": result.meta["newton_stop"],
        "residual_sup": max(result.residual_S, result.residual_I),
    }
    return LimitProfile(regime=regime, S_limit=result.S, I_limit=result.I, meta=meta)


# ---------------------------------------------------------------------------
# d_I -> 0
# ---------------------------------------------------------------------------


def classify_small_di(c: CoefficientSet) -> LimitProfile:
    """Small-``d_I`` classification for p = 1.

    Returns the high-risk set ``{S~ > h^(1/q)}`` (somewhere nonempty iff
    endemic equilibria survive small ``d_I``), the vanishing set
    ``{S~ < h^(1/q)}`` where infection dies out, the ceiling field, and a
    pointwise infected-mass density estimate
    ``(d_S Lap(h^(1/q)) + recruitment - h^(1/q)) / eta`` (meaningful only
    where the coefficients are twice differentiable).
    """
    if c.p != 1.0:
        raise ValueError("the small-d_I classification applies only to p = 1")
    dom = c.domain
    S_dfe = solve_dfe(c)
    ceiling = c.risk_ceiling()
    support = S_dfe.values > ceiling
    vanishing = S_dfe.values < ceiling
    L = assemble_neumann_laplacian(dom)
    density = (c.d_S * (L @ ceiling) + c.recruitment.values - ceiling) / c.eta.values
    return LimitProfile(
        regime="d_I",
        S_limit=None,
        I_limit=None,
        masks={"high_risk": support, "vanishing": vanishing},
        envelopes={
            "ceiling": dom.field(ceiling),
            "dfe": S_dfe,
            "mass_density": dom.field(density),
        },
        meta={"no_ee_for_small_d_I": bool(not support.any())},
    )


def limit_small_di(c: CoefficientSet) -> LimitProfile:
    """Small-``d_I`` limit profile for 0 < p < 1: the steady state at ``d_I = 0``.

    There the infected equation is the pointwise balance
    ``beta S^q I^p = (gamma+eta) I``, whose positive root is the slaved
    field ``I = (S^q/h)^(1/(1-p))``, and S solves
    ``d_S Lap(S) + recruitment - S - eta (S^q/h)^(1/(1-p)) = 0``.  The
    coupled system is solved with ``d_I = 0`` (see
    :func:`_limit_at_zero_diffusion`, whose keys ``meta`` carries).
    """
    if not c.p < 1.0:
        raise ValueError("the small-d_I limit profile requires 0 < p < 1")
    return _limit_at_zero_diffusion(c, "d_I")


# ---------------------------------------------------------------------------
# d_S -> 0
# ---------------------------------------------------------------------------


def _constant_rayleigh_quotient(c: CoefficientSet) -> tuple[float, float]:
    """``sum(w)`` times the Rayleigh quotient of the constant, and its rounding.

    ``lambda0`` is the smallest Rayleigh quotient of ``(M, W)``, so the
    constant's, ``(d_I 1'K1 - sum(w potential)) / sum(w)``, bounds it from
    above.  The slack is the worst-case rounding of the numerator's sums:
    ``(nnz(K) + n) eps`` times the magnitudes of their terms, for ``M`` and
    for the shifted operator ``M - shift W`` on which :func:`compute_lambda0`
    takes its Rayleigh quotient.  Where the bound is near 0 and ``lambda0`` near it, the
    eigenfunction is near the constant, so the eigen-solve's value rounds
    over the same terms.  An overflowing potential raises as
    :func:`compute_lambda0` does; a sum that overflows makes the slack
    ``inf``.
    """
    potential = principal_potential(c)
    w = c.domain.cell_measures
    K = stiffness_matrix(c.domain).data
    with np.errstate(over="ignore"):
        numerator = c.d_I * K.sum() - float(w @ potential)
        shifted = potential.max() + 1.0 - potential  # compute_lambda0's reaction
        terms = c.d_I * np.abs(K).sum() + float(w @ (np.abs(potential) + shifted))
        slack = (K.size + w.size) * np.finfo(float).eps * terms
    return numerator, slack


def _lambda0_certified_negative(c: CoefficientSet) -> bool:
    """Whether the Rayleigh quotient of the constant proves ``lambda0 < 0``,
    by more than its rounding (:func:`_constant_rayleigh_quotient`)."""
    numerator, slack = _constant_rayleigh_quotient(c)
    return bool(numerator < -slack)


def limit_small_ds(c: CoefficientSet) -> LimitProfile:
    """Small-``d_S`` limit: the steady state at ``d_S = 0``.

    There S is slaved to I node by node by the algebraic balance
    ``recruitment - S - beta S^q I^p + gamma I = 0``, leaving one
    reaction-diffusion equation for I.  The coupled system is solved with
    ``d_S = 0`` (see :func:`_limit_at_zero_diffusion`, whose keys ``meta``
    carries).  For p = 1 an endemic limit requires a negative principal
    eigenvalue; the request is refused unless ``lambda0`` is below 0 by
    more than the rounding of the constant's Rayleigh quotient, the sums
    the eigen-solve's value rounds over near 0.  ``K 1 = 0``, so that
    quotient, ``(d_I 1'K1 - Int(potential))/|Omega|``, bounds ``lambda0``
    from above; when it is negative beyond its rounding
    (:func:`_lambda0_certified_negative`), the eigen-solve is skipped,
    since the refusal cannot fire.
    """
    if c.p == 1.0 and not _lambda0_certified_negative(c):
        lam0 = compute_lambda0(c).value
        rounding = _constant_rayleigh_quotient(c)[1] / c.domain.cell_measures.sum()
        if lam0 >= -rounding:
            raise ValueError(
                f"no endemic small-d_S limit: principal eigenvalue {lam0:.6g} is not "
                f"negative beyond its rounding {rounding:.2g}"
            )
    return _limit_at_zero_diffusion(c, "d_S")


# ---------------------------------------------------------------------------
# Joint limit d_S, d_I -> 0 at fixed sigma = d_I/d_S
# ---------------------------------------------------------------------------


def limit_joint_p1(c: CoefficientSet, sigma: float) -> LimitProfile:
    """Joint limit for p = 1 at fixed diffusion ratio ``sigma``.

    For ``sigma >= max(eta)`` the limit is closed-form:
    ``S* = min(recruitment, h^(1/q))`` and
    ``I* = (recruitment - h^(1/q))_+ / eta``.  Below that threshold only
    envelope bounds are known, and they are returned as fields:
    constants ``min(recruitment_min, r_min^(1/q)) <= S* <= recruitment_max``,
    the cap ``I* <= (recruitment - h^(1/q))_+ / min(sigma, eta)``, and for
    q = 1 additionally ``I* >= (recruitment - h)_+ / eta`` with
    ``S* <= min(recruitment, h)``.  In all cases the mass identity
    ``S* + eta I* = recruitment`` holds in the limit.
    """
    if c.p != 1.0:
        raise ValueError("this joint limit requires p = 1")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    dom = c.domain
    lam = c.recruitment.values
    eta = c.eta.values
    ceiling = c.risk_ceiling()
    r = c.recovery_ratio()

    envelopes = {
        "S_lower": dom.field(min(lam.min(), (r.min()) ** (1.0 / c.q))),
        "S_upper": dom.field(lam.max()),
        "I_upper": dom.field(np.maximum(lam - ceiling, 0.0) / np.minimum(sigma, eta)),
    }
    if c.q == 1.0:
        h = c.risk()
        envelopes["I_lower"] = dom.field(np.maximum(lam - h, 0.0) / eta)
        envelopes["S_upper_pointwise"] = dom.field(np.minimum(lam, h))

    closed_form = sigma >= float(eta.max())
    if closed_form:
        S_star = np.minimum(lam, ceiling)
        I_star = np.maximum(lam - ceiling, 0.0) / eta
        S_field, I_field = dom.field(S_star), dom.field(I_star)
    else:
        S_field = I_field = None
    return LimitProfile(
        regime="joint",
        S_limit=S_field,
        I_limit=I_field,
        masks={"positive_infection": lam > ceiling},
        envelopes=envelopes,
        sigma=float(sigma),
        meta={"closed_form": closed_form},
    )


def limit_joint_sublinear(c: CoefficientSet, sigma: float) -> LimitProfile:
    """Joint limit for 0 < p < 1 at fixed ratio ``sigma > max(eta)``.

    Per node, ``I*`` is the unique positive root of
    ``recruitment = eta t + h^(1/q) t^((1-p)/q)`` and
    ``S* = h^(1/q) (I*)^((1-p)/q)``, so ``S* + eta I* = recruitment``.  The
    root is found by :func:`newton_increasing` on
    ``[0, recruitment_max/eta_min + 1]``.  A profile whose
    ``sup|S* + eta I* - recruitment|`` exceeds 1e-12 of the largest
    recruitment raises :class:`NonConvergenceError`.
    """
    if not c.p < 1.0:
        raise ValueError("this joint limit requires 0 < p < 1")
    eta = c.eta.values
    if not sigma > float(eta.max()):
        raise ValueError(f"sigma must exceed max(eta) = {float(eta.max()):.6g}")
    dom = c.domain
    lam = c.recruitment.values
    ceiling = c.risk_ceiling()
    expo = (1.0 - c.p) / c.q
    hi = np.full(dom.n_nodes, lam.max() / eta.min() + 1.0)
    I_star = _power_sum_root(eta, ceiling, 1.0, expo, lam, hi)
    S_star = ceiling * I_star**expo
    defect = float(np.max(np.abs(S_star + eta * I_star - lam)))
    if defect > _MASS_IDENTITY_RTOL * float(lam.max()):
        # a root far below the bracket's ulp resolution: I* is only accurate
        # to a few ulp of hi, and t^((1-p)/q) magnifies that error in S*
        raise NonConvergenceError(
            f"joint limit misses its mass identity S* + eta I* = recruitment by {defect:.3g}"
        )
    return LimitProfile(
        regime="joint",
        S_limit=dom.field(S_star),
        I_limit=dom.field(I_star),
        sigma=float(sigma),
        meta={"mass_identity_sup": defect},
    )


# what shrinks; the last, the joint regime, needs the ratio sigma = d_I/d_S
REGIMES = ("d_I", "d_S", "joint")


def _check_regime(regime: str, sigma: Optional[float]) -> None:  # the one sigma rule
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; use one of {', '.join(REGIMES)}")
    if regime == "joint" and sigma is None:
        raise ValueError("the joint regime needs a diffusion ratio sigma")


def shrink_diffusion(
    c: CoefficientSet, regime: str, value: float, sigma: Optional[float] = None
) -> CoefficientSet:
    """``c`` with the diffusion of ``regime`` set to ``value``.

    ``"d_I"`` and ``"d_S"`` set that rate; ``"joint"`` sets ``d_S = value`` and
    ``d_I = sigma value``.  ``ValueError`` for a name not in :data:`REGIMES`
    or a joint regime without ``sigma``.
    """
    _check_regime(regime, sigma)
    if regime == "d_I":
        return c.with_diffusion(d_I=value)
    if regime == "d_S":
        return c.with_diffusion(d_S=value)
    return c.with_diffusion(d_S=value, d_I=sigma * value)


def limit_profile(
    c: CoefficientSet, regime: str, sigma: Optional[float] = None
) -> LimitProfile:
    """The predicted small-diffusion profile of one of :data:`REGIMES`.

    ``"d_I"`` gives the classification for p = 1 and the limit profile for
    p < 1; ``"joint"`` needs ``sigma`` (see :func:`shrink_diffusion`).
    """
    _check_regime(regime, sigma)
    if regime == "d_I":
        return classify_small_di(c) if c.p == 1.0 else limit_small_di(c)
    if regime == "d_S":
        return limit_small_ds(c)
    return limit_joint_p1(c, sigma) if c.p == 1.0 else limit_joint_sublinear(c, sigma)


# ---------------------------------------------------------------------------
# Monotone bracketing sequences for the joint limit
# ---------------------------------------------------------------------------

_SEQ_STORE_LIMIT = 200
_SEQ_TOL = 1e-10  # stop once one round moves the iterates less than this
_SEQ_SLACK = 1e-12  # rounding allowance against the direction of travel
_SEQ_MAX_ITER = 100000


def _bracketing_sequence(
    c: CoefficientSet,
    sigma: float,
    direction: str,
    joint_limit: Callable[[CoefficientSet, float], LimitProfile],
    inner: Callable[[np.ndarray], np.ndarray],
) -> MonotoneSequence:
    """One monotone iteration behind both joint-limit bracketing sequences.

    A round is ``v = inner(u)`` and ``u = recruitment + (1 - eta/sigma) v``: in
    that order from ``(recruitment, 0)`` (increasing), in the other order from
    the constant ``recruitment_max + (sigma+1) max(recruitment/eta)``
    (decreasing).  The limit is ``v* = sigma I*`` with ``I*`` from
    ``joint_limit``, which also refuses a ``p`` it does not cover; a round
    against the direction raises NonConvergenceError.
    """
    eta = c.eta.values
    if not sigma > float(eta.max()):
        raise ValueError(f"sigma = {sigma:g} must exceed max(eta) = {float(eta.max()):g}")
    if direction not in ("increasing", "decreasing"):
        raise ValueError("direction must be 'increasing' or 'decreasing'")
    lam = c.recruitment.values
    factor = 1.0 - eta / sigma
    v_limit = sigma * joint_limit(c, sigma).I_limit.values
    u_limit = lam + factor * v_limit

    increasing = direction == "increasing"
    if increasing:
        u, v = lam.copy(), np.zeros(c.domain.n_nodes)
    else:
        u = v = np.full(c.domain.n_nodes, lam.max() + (sigma + 1.0) * float((lam / eta).max()))
    u_iter, v_iter = [u], [v]
    for n in range(1, _SEQ_MAX_ITER + 1):
        if increasing:
            v_next = inner(u)
            u_next = lam + factor * v_next
        else:
            u_next = lam + factor * v
            v_next = inner(u_next)
        du, dv = (u_next - u, v_next - v) if increasing else (u - u_next, v - v_next)
        worst = min(float(du.min()), float(dv.min()))
        if worst < -_SEQ_SLACK:
            raise NonConvergenceError(
                f"{direction} sequence lost monotonicity at round {n} (violation {worst:.3e})"
            )
        u, v = u_next, v_next
        if len(u_iter) < _SEQ_STORE_LIMIT:
            u_iter.append(u)
            v_iter.append(v)
        step = max(float(np.max(np.abs(du))), float(np.max(np.abs(dv))))
        if step < _SEQ_TOL:
            break
    return MonotoneSequence(
        direction=direction,
        u_iterates=u_iter,
        v_iterates=v_iter,
        final_u=u,
        final_v=v,
        u_limit=u_limit,
        v_limit=v_limit,
        n_iterations=n,
        converged=step < _SEQ_TOL,
    )


def monotone_joint_p1(
    c: CoefficientSet,
    sigma: float,
    direction: str = "increasing",
) -> MonotoneSequence:
    """Explicit bracketing iteration for the p = 1 joint limit.

    The inner map is ``v = (u - h^(1/q))_+``; both directions converge to
    the closed form of :func:`limit_joint_p1`,
    ``v* = (sigma/eta)(recruitment - h^(1/q))_+``.
    """
    ceiling = c.risk_ceiling()
    return _bracketing_sequence(
        c, sigma, direction, limit_joint_p1, lambda u: np.maximum(u - ceiling, 0.0)
    )


def monotone_joint_sublinear(
    c: CoefficientSet,
    sigma: float,
    direction: str = "increasing",
) -> MonotoneSequence:
    """Bracketing iteration for the 0 < p < 1 joint limit.

    The inner map inverts the strictly increasing
    ``v -> v + h^(1/q) (v/sigma)^((1-p)/q)`` on ``[0, u]`` by
    :func:`newton_increasing`; both directions
    converge to ``v* = sigma I*`` with ``I*`` from :func:`limit_joint_sublinear`.
    """
    ceiling = c.risk_ceiling()
    expo = (1.0 - c.p) / c.q
    return _bracketing_sequence(
        c, sigma, direction, limit_joint_sublinear,
        lambda u: _power_sum_root(1.0, ceiling, sigma, expo, u, u),
    )


# ---------------------------------------------------------------------------
# A-priori bound audit
# ---------------------------------------------------------------------------


def susceptible_floor_constant(c: CoefficientSet) -> float:
    """The positive root ``x`` of ``x + x^q = target`` with

    ``target = recruitment_min / (1 + (d_S/d_I + 1/eta_min)^p *
    recruitment_max^p * beta_max)``; every p < 1 equilibrium satisfies
    ``min(S) >= x``.
    """
    lam = c.recruitment.values
    target = lam.min() / (
        1.0
        + (c.d_S / c.d_I + 1.0 / c.eta.values.min()) ** c.p
        * lam.max() ** c.p
        * c.beta.values.max()
    )
    return float(_power_sum_root(1.0, 1.0, 1.0, c.q, target, np.full(1, target))[0])


def bounds_audit(c: CoefficientSet, eq: EquilibriumResult) -> BoundsReport:
    """Check an equilibrium against the a-priori interior-extremum bounds.

    p = 1: the susceptible range lies in
    ``[min(recruitment_min, r_min^(1/q)), max(recruitment_max, r_max^(1/q))]``.
    p < 1: the infected range is pinned by the susceptible extremes through
    ``[(beta/(gamma+eta)) S^q]^(1/(1-p))``, both fields obey the
    diffusion-weighted caps, and ``min(S)`` is at least
    :func:`susceptible_floor_constant`, with the matching infected floor.
    Any p: at a discrete maximum of a field its diffusion term is
    nonpositive, so its local reaction (``recruitment - S -
    beta S^q I^p + gamma I`` for S, ``beta S^q I^p - (gamma+eta) I`` for I)
    is nonnegative there, and nonpositive at a minimum (the
    ``reaction_*`` checks, with bound 0).  Margins are judged against the
    grid tolerance.
    """
    dom = c.domain
    tol = grid_tolerance(dom)
    S = eq.S.values
    I = eq.I.values
    lam = c.recruitment.values
    ratio = c.beta.values / (c.gamma.values + c.eta.values)
    checks: list[dict] = []

    def add(name: str, kind: str, bound: float, observed: float) -> None:
        margin = observed - bound if kind == "lower" else bound - observed
        checks.append(
            {
                "name": name,
                "kind": kind,
                "bound": float(bound),
                "observed": float(observed),
                "margin": float(margin),
                "passed": bool(margin >= -tol),
            }
        )

    if c.p == 1.0:
        r = c.recovery_ratio()
        add("S_min_floor", "lower", min(lam.min(), r.min() ** (1.0 / c.q)), S.min())
        add("S_max_cap", "upper", max(lam.max(), r.max() ** (1.0 / c.q)), S.max())
    else:
        expo = 1.0 / (1.0 - c.p)
        add("I_min_vs_S_min", "lower", (ratio.min() * S.min() ** c.q) ** expo, I.min())
        add("I_max_vs_S_max", "upper", (ratio.max() * S.max() ** c.q) ** expo, I.max())
        add(
            "S_max_diffusion_cap",
            "upper",
            (1.0 + c.d_I / (c.d_S * c.eta.values.min())) * lam.max(),
            S.max(),
        )
        add(
            "I_max_diffusion_cap",
            "upper",
            (c.d_S / c.d_I + 1.0 / c.eta.values.min()) * lam.max(),
            I.max(),
        )
        s_floor = susceptible_floor_constant(c)
        add("S_min_positive_floor", "lower", s_floor, S.min())
        add("I_min_positive_floor", "lower", (ratio.min() * s_floor**c.q) ** expo, I.min())
    transfer = c.beta.values * S**c.q * I**c.p
    reaction_S = lam - S - transfer + c.gamma.values * I
    reaction_I = transfer - (c.gamma.values + c.eta.values) * I
    add("reaction_S_at_max_S", "lower", 0.0, reaction_S[np.argmax(S)])
    add("reaction_S_at_min_S", "upper", 0.0, reaction_S[np.argmin(S)])
    add("reaction_I_at_max_I", "lower", 0.0, reaction_I[np.argmax(I)])
    add("reaction_I_at_min_I", "upper", 0.0, reaction_I[np.argmin(I)])
    return BoundsReport(
        checks=checks,
        all_passed=all(ch["passed"] for ch in checks),
        tolerance=tol,
    )
