"""Small-diffusion limits, bracketing sequences, and a-priori bound audits.

Frozen numbers in this file come from independent derivations: algebraic
closed forms where available, otherwise brute-force scans or standalone
bisection on the defining scalar equations.
"""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import bisect_increasing, nearest_node

from sisrd import asymptotics, dynamics, equilibrium
from sisrd.asymptotics import (
    REGIMES,
    bounds_audit,
    classify_small_di,
    limit_joint_p1,
    limit_joint_sublinear,
    limit_small_di,
    limit_small_ds,
    limit_profile,
    monotone_joint_p1,
    monotone_joint_sublinear,
    newton_increasing,
    shrink_diffusion,
    susceptible_floor_constant,
)
from sisrd.coefficients import CoefficientSet
from sisrd.equilibrium import find_ee
from sisrd.grid import DomainSpec, build_domain, integrate, stiffness_matrix
from sisrd.scenario import load_scenario
from sisrd.solvers import NonConvergenceError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN_S = 0.6180339887498949
GOLDEN_I = 0.3819660112501051
C0_REFERENCE = 0.20710678118654752  # (sqrt(2) - 1)/2


def interval(n=65):
    return build_domain(DomainSpec.interval(0, 1, n))


def golden_constants(dom, d_S=0.1, d_I=0.05):
    """Lambda=1, beta=2, gamma=eta=1, p=1/2, q=1: risk h = 1 everywhere."""
    return CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=d_S, d_I=d_I, p=0.5, q=1.0,
    )


def mass_action_constants(dom, recruitment=2.0, d_S=0.1, d_I=0.05):
    """Lambda=2, beta=2, gamma=eta=1, p=q=1: h = 1, EE = (1, 1)."""
    return CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=recruitment,
        d_S=d_S, d_I=d_I, p=1.0, q=1.0,
    )


def scenario_disk(p=1.0, cell=0.0625):
    dom = build_domain(DomainSpec.disk(1.0, (0, 0), cell))
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    beta = 3.0 + 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
    c = CoefficientSet(
        dom, beta=beta, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=1.0, d_I=0.001, p=p, q=0.5,
    )
    return dom, c


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def bisect(f, df, lo, hi):
    return bisect_increasing(f, lo, hi)


# every root-finder test runs on both solvers, the slope supplied to both
ROOT_FINDERS = (bisect, newton_increasing)


def square_slope(t):
    return 2.0 * t


def test_bisection_scalar_root():
    for solve in ROOT_FINDERS:
        root = solve(lambda t: t * t - 2.0, square_slope, 0.0, 2.0)
        assert root[0] == pytest.approx(np.sqrt(2.0), abs=1e-14), solve.__name__


def test_bisection_vectorized_roots():
    targets = np.array([1.0, 4.0, 9.0, 2.5])
    for solve in ROOT_FINDERS:
        roots = solve(lambda t: t * t - targets, square_slope, np.zeros(4), np.full(4, 4.0))
        np.testing.assert_allclose(
            roots, np.sqrt(targets), atol=1e-13, err_msg=solve.__name__
        )


def test_bisection_rejects_bad_bracket():
    for solve in ROOT_FINDERS:
        with pytest.raises(ValueError):
            solve(lambda t: t + 1.0, np.ones_like, 0.0, 1.0)


def golden_map(t):
    return t + np.sqrt(t) - 1.0


def golden_slope(t):
    return 1.0 + 0.5 / np.sqrt(t)


def test_bisection_against_brute_force_scan():
    # scan the golden-pair equation eta*t + h^(1/q) t^((1-p)/q) - Lambda on a
    # million-point grid, locate the sign change, and confirm that each
    # solver's root lands inside that bracket
    grid = np.linspace(0.0, 1.0, 1_000_001)
    signs = golden_map(grid)
    k = int(np.argmax(signs > 0.0))
    assert signs[k - 1] <= 0.0 < signs[k]
    for solve in ROOT_FINDERS:
        root = solve(golden_map, golden_slope, 0.0, 1.0)[0]
        assert grid[k - 1] <= root <= grid[k], solve.__name__
        assert root == pytest.approx(GOLDEN_I, abs=1e-12), solve.__name__


def test_newton_bisects_on_infinite_slope():
    # an infinite slope (sqrt(t) at t = 0) makes the Newton step 0; at the
    # first iterate, the midpoint, that must bisect, not count as converged
    def slope(t):
        return np.where(t == 0.5, np.inf, golden_slope(t))

    root = newton_increasing(golden_map, slope, 0.0, 1.0)
    assert root[0] == pytest.approx(GOLDEN_I, abs=1e-15)


def test_newton_converges_on_rounding_level_sign_flip():
    # for these targets the Newton iterates of t^2 - c alternate between the
    # two doubles around sqrt(c), where f changes sign
    targets = np.array([2.00034, 2.00062, 2.00076])
    roots = newton_increasing(
        lambda t: t * t - targets, square_slope, np.ones(3), np.full(3, 2.0)
    )
    np.testing.assert_allclose(roots, np.sqrt(targets), rtol=2.0 * np.finfo(float).eps)


def test_newton_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(asymptotics, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="not converged"):
        newton_increasing(lambda t: t * t - 2.0, square_slope, 0.0, 2.0)


# ---------------------------------------------------------------------------
# d_I -> 0
# ---------------------------------------------------------------------------


def test_classification_requires_mass_action():
    dom = interval()
    with pytest.raises(ValueError):
        classify_small_di(golden_constants(dom))


def test_classification_masks_on_scenario_coefficients():
    dom, c = scenario_disk()
    profile = classify_small_di(c)
    high = profile.masks["high_risk"]
    vanish = profile.masks["vanishing"]
    # ceiling (2/beta)^2 < 1 = S~ exactly where beta > 2
    np.testing.assert_array_equal(high, c.beta.values > 2.0)
    assert not (high & vanish).any()
    # probe nodes: beta(0.5,0.5)=5 is high risk, beta(-0.5,0.5)=1 is not
    assert high[nearest_node(dom, (0.5, 0.5))]
    assert vanish[nearest_node(dom, (-0.5, 0.5))]
    assert not profile.meta["no_ee_for_small_d_I"]


def test_classification_flags_hopeless_coefficients():
    dom = interval()
    c = CoefficientSet(
        dom, beta=0.5, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=0.1, d_I=0.1, p=1.0, q=1.0,
    )  # ceiling (2/0.5) = 4 > 1 = S~ everywhere
    profile = classify_small_di(c)
    assert profile.meta["no_ee_for_small_d_I"]
    assert not profile.masks["high_risk"].any()


def test_sublinear_limit_constant_coefficients():
    # the scalar balance is 1 - S - S^2 = 0, independent of x
    dom = interval()
    profile = limit_small_di(golden_constants(dom))
    np.testing.assert_allclose(profile.S_limit.values, GOLDEN_S, atol=1e-8)
    np.testing.assert_allclose(profile.I_limit.values, GOLDEN_I, atol=1e-8)
    assert profile.meta["residual_sup"] <= 1e-8


def test_sublinear_limit_requires_sublinear():
    dom = interval()
    with pytest.raises(ValueError):
        limit_small_di(mass_action_constants(dom))


def test_sublinear_limit_varying_recruitment_residual():
    dom = build_domain(DomainSpec.interval(0, 1, 257))
    lam = 1.0 + 0.5 * np.sin(np.pi * dom.coords)
    c = CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=lam,
        d_S=0.05, d_I=0.01, p=0.5, q=1.0,
    )
    profile = limit_small_di(c)
    assert profile.meta["residual_sup"] <= 1e-8
    # slaved infected field: I = (S^q/h)^(1/(1-p)) = S^2 here
    np.testing.assert_allclose(
        profile.I_limit.values, profile.S_limit.values**2, atol=1e-12
    )


# ---------------------------------------------------------------------------
# d_S -> 0
# ---------------------------------------------------------------------------


@pytest.fixture
def lambda0_calls(monkeypatch) -> list:
    """The value of every ``compute_lambda0`` that ``limit_small_ds`` runs."""
    real = asymptotics.compute_lambda0
    values: list = []

    def recording(c):
        result = real(c)
        values.append(result.value)
        return result

    monkeypatch.setattr(asymptotics, "compute_lambda0", recording)
    return values


def test_small_ds_limit_constants():
    dom = interval(33)
    c = mass_action_constants(dom)  # EE (1, 1) independent of diffusion
    profile = limit_small_ds(c)
    np.testing.assert_allclose(profile.S_limit.values, 1.0, atol=1e-7)
    np.testing.assert_allclose(profile.I_limit.values, 1.0, atol=1e-7)
    assert profile.meta["residual_sup"] <= 1e-7


def test_small_ds_limit_refuses_subcritical_mass_action(lambda0_calls):
    dom = interval(33)
    c = CoefficientSet(
        dom, beta=0.4, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=0.1, d_I=0.05, p=1.0, q=1.0,
    )  # lambda0 = 0.6 > 0: no endemic limit
    with pytest.raises(ValueError, match="eigenvalue"):
        limit_small_ds(c)
    assert lambda0_calls == [pytest.approx(0.6)]


def test_small_ds_limit_with_a_positive_mean_potential_skips_the_eigen_solve(monkeypatch):
    # potential beta - 2 in [-1, 3] with mean about 1: the Rayleigh quotient
    # of the constant bounds lambda0 below 0, so the refusal cannot fire
    _, c = scenario_disk()
    with monkeypatch.context() as m:
        m.setattr(asymptotics, "_lambda0_certified_negative", lambda c: False)
        eigen_path = limit_small_ds(c)

    def refuse(c):
        raise AssertionError("compute_lambda0 called")

    monkeypatch.setattr(asymptotics, "compute_lambda0", refuse)
    profile = limit_small_ds(c)
    np.testing.assert_array_equal(profile.S_limit.values, eigen_path.S_limit.values)
    np.testing.assert_array_equal(profile.I_limit.values, eigen_path.I_limit.values)
    assert profile.meta == eigen_path.meta


def test_small_ds_limit_on_a_hot_spot_runs_the_eigen_solve(lambda0_calls):
    # the mean potential is about -0.45 but the peak 3.2, and d_I is small:
    # the bound of the constant is positive while lambda0 is negative
    dom = interval(65)
    beta = 0.2 + 4.0 * np.exp(-400.0 * (dom.coords - 0.5) ** 2)
    c = CoefficientSet(
        dom, beta=beta, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=0.1, d_I=1e-3, p=1.0, q=1.0,
    )
    assert integrate(dom, c.beta.values - 1.0) < 0.0
    profile = limit_small_ds(c)
    assert len(lambda0_calls) == 1 and lambda0_calls[0] < 0.0
    assert profile.I_limit.values.max() > 0.1


def test_small_ds_limit_refuses_a_zero_potential(lambda0_calls):
    # beta lambda^q = gamma + eta: the potential is 0 and so is lambda0, which
    # the eigen-solve computes as 4.4e-16 here; the bound of the constant,
    # 0 to rounding, certifies nothing
    c = CoefficientSet(
        interval(33), beta=1.0, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=0.1, d_I=0.05, p=1.0, q=1.0,
    )
    with pytest.raises(ValueError, match="eigenvalue"):
        limit_small_ds(c)
    assert len(lambda0_calls) == 1


@pytest.mark.parametrize("d_I", [1e-3, 10.0])
def test_small_ds_limit_refuses_an_eigenvalue_that_is_zero_to_rounding(lambda0_calls, d_I):
    # beta lambda^q = 2 = gamma + eta: lambda0 is 0, which the eigen-solve gives
    # as -2.2e-16 (d_I = 1e-3) and -1.1e-13 (d_I = 10) here, inside the rounding
    # of the constant's Rayleigh quotient; a march towards an endemic limit
    # would run to t_final and fail
    c = CoefficientSet(
        interval(17), beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=1.0, d_I=d_I, p=1.0, q=0.5,
    )
    with pytest.raises(ValueError, match="eigenvalue .* is not negative beyond its rounding"):
        limit_small_ds(c)
    assert len(lambda0_calls) == 1 and abs(lambda0_calls[0]) < 1e-12


def test_lambda0_bound_allows_for_the_rounding_of_its_sums():
    # on this rectangle 1'K1 rounds to -9.8e-15: with a zero potential the
    # bound is negative, but only by rounding
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 2), (5, 7)))
    assert stiffness_matrix(dom).data.sum() < 0.0
    c = CoefficientSet(
        dom, beta=1.0, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=0.1, d_I=1.0, p=1.0, q=1.0,
    )
    assert not asymptotics._lambda0_certified_negative(c)
    assert asymptotics._lambda0_certified_negative(replace(c, beta=c.domain.field(1.0 + 1e-9)))


def test_small_ds_limit_refuses_an_overflowing_potential():
    # beta lambda^q = 3e400 is inf: that would certify lambda0 < 0
    c = CoefficientSet(
        interval(7), beta=3.0, gamma=1.0, eta=1.0, recruitment=10.0,
        d_S=1.0, d_I=0.01, p=1.0, q=400.0,
    )
    with pytest.raises(NonConvergenceError, match="potential .* overflows"):
        limit_small_ds(c)


def test_small_ds_limit_sublinear_close_to_ee():
    dom = interval(129)
    c = golden_constants(dom, d_S=1e-4, d_I=0.05)
    eq = find_ee(c)
    profile = limit_small_ds(c)
    assert np.abs(eq.S.values - profile.S_limit.values).max() <= 5e-3
    assert np.abs(eq.I.values - profile.I_limit.values).max() <= 5e-3


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_small_ds_limit_slaves_susceptible_by_the_algebraic_balance(p):
    # at d_S = 0 the susceptible equation is recruitment - S - beta S^q I^p + gamma I = 0
    _, c = scenario_disk(p=p)
    profile = limit_small_ds(c)
    S, I = profile.S_limit.values, profile.I_limit.values
    balance = c.recruitment.values - S - c.beta.values * S**c.q * I**c.p + c.gamma.values * I
    assert profile.meta["newton_stop"] == "converged"
    assert np.abs(balance).max() <= 1e-11


def test_small_di_limit_slaves_infection_on_the_disk():
    # at d_I = 0 the infected equation has the positive root I = (S^q/h)^(1/(1-p))
    _, c = scenario_disk(p=0.5)
    profile = limit_small_di(c)
    S, I = profile.S_limit.values, profile.I_limit.values
    slave = (S**c.q / c.risk()) ** (1.0 / (1.0 - c.p))
    assert profile.meta["newton_stop"] == "converged"
    assert np.abs(I - slave).max() <= 1e-12


def refuse_newton(c, S, I):
    return S, I, 0, "max_iter"


LIMIT_MARCHES = [(limit_small_ds, 1.0), (limit_small_ds, 0.5), (limit_small_di, 0.5)]


@pytest.mark.parametrize("limit, p", LIMIT_MARCHES)
def test_limit_handoff_matches_the_long_march(monkeypatch, limit, p):
    # the reference refuses Newton, so its march resumes to the 1e-10 steady test
    _, c = scenario_disk(p=p)
    profile = limit(c)
    monkeypatch.setattr(equilibrium, "_newton_coupled", refuse_newton)
    reference = limit(c)
    assert profile.meta["handoff"] == "newton"
    assert profile.meta["newton_stop"] == "converged"
    assert profile.meta["newton_iterations"] >= 1
    assert reference.meta["handoff"] == "resumed"
    assert profile.meta["steps"] < reference.meta["steps"]
    assert profile.meta["residual_sup"] <= 1e-11
    assert reference.meta["residual_sup"] <= 1e-8
    assert np.abs(profile.S_limit.values - reference.S_limit.values).max() <= 1e-8
    assert np.abs(profile.I_limit.values - reference.I_limit.values).max() <= 1e-8


def test_resumed_limit_march_continues_where_it_stopped(monkeypatch):
    # march to 1e-2, refuse, resume: the same steps, clock and fields as
    # one march to 1e-10 with no hand-off
    _, c = scenario_disk()
    monkeypatch.setattr(equilibrium, "_newton_coupled", refuse_newton)
    resumed = limit_small_ds(c)
    monkeypatch.setattr(dynamics, "_HANDOFF_TOL", 0.0)
    single = limit_small_ds(c)
    assert resumed.meta["handoff"] == "resumed"
    assert single.meta["handoff"] is None
    assert resumed.meta["steps"] == single.meta["steps"]
    assert resumed.meta["t"] == single.meta["t"]
    np.testing.assert_array_equal(resumed.S_limit.values, single.S_limit.values)
    np.testing.assert_array_equal(resumed.I_limit.values, single.I_limit.values)


def test_inaccurate_newton_solve_resumes_the_march(monkeypatch, inaccurate_newton_solves):
    _, c = scenario_disk()
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "_newton_coupled", refuse_newton)
        reference = limit_small_ds(c)
    profile = limit_small_ds(c)
    assert profile.meta["newton_stop"] == "inaccurate solve"
    assert profile.meta["newton_iterations"] == 1
    assert profile.meta["handoff"] == "resumed"
    assert profile.meta["steps"] == reference.meta["steps"]
    np.testing.assert_array_equal(profile.S_limit.values, reference.S_limit.values)
    np.testing.assert_array_equal(profile.I_limit.values, reference.I_limit.values)


def equilibrium_meta():
    return find_ee(mass_action_constants(interval())).meta


def small_ds_limit_meta():
    return limit_small_ds(scenario_disk()[1]).meta


@pytest.mark.parametrize("refused", [False, True], ids=["accepted", "refused"])
@pytest.mark.parametrize("solve", [equilibrium_meta, small_ds_limit_meta])
def test_no_march_factor_is_alive_while_newton_factors(
    factor_log, monkeypatch, request, solve, refused
):
    # a refused hand-off runs Newton twice: at the hand-off and after the march
    if refused:
        request.getfixturevalue("inaccurate_newton_solves")
    live_at_newton = []
    real = equilibrium.sparse_lu

    def logging_lu(A):
        live_at_newton.append(sum(factor_log.live.values()))
        return real(A)

    monkeypatch.setattr(equilibrium, "sparse_lu", logging_lu)
    meta = solve()
    assert meta["handoff"] == ("resumed" if refused else "newton")
    assert factor_log.builds
    assert len(live_at_newton) >= (2 if refused else 1)
    assert live_at_newton == [0] * len(live_at_newton)


def test_small_ds_limit_on_scenario1_factors_once_per_ladder_level(factor_log):
    # the march starts at its cap and never leaves it, so it visits one
    # ladder level and builds one factor of each of its two operators,
    # however many steps it takes
    cfg = load_scenario(CONFIG_DIR / "scenario1.json")
    dom = cfg.build_domain()
    profile = limit_small_ds(cfg.build_coefficients(dom))
    assert profile.meta["handoff"] == "newton"
    assert profile.meta["steps"] >= 10
    assert Counter(key for key, _ in factor_log.builds) == {0.0: 1, cfg.d_I: 1}


# ---------------------------------------------------------------------------
# Joint limit
# ---------------------------------------------------------------------------


def test_joint_p1_closed_form_probe_values():
    dom, c = scenario_disk()
    profile = limit_joint_p1(c, sigma=2.0)
    assert profile.meta["closed_form"]
    i = nearest_node(dom, (0.5, 0.5))  # beta=5: ceiling=(2/5)^2=0.16
    j = nearest_node(dom, (-0.5, 0.5))  # beta=1: ceiling=4>Lambda
    # probe node sits slightly off (0.5, 0.5); evaluate the exact formulas
    ceil_i = (2.0 / c.beta.values[i]) ** 2
    assert profile.S_limit.values[i] == pytest.approx(ceil_i, abs=1e-12)
    assert profile.I_limit.values[i] == pytest.approx(1.0 - ceil_i, abs=1e-12)
    assert profile.S_limit.values[j] == pytest.approx(1.0, abs=1e-12)
    assert profile.I_limit.values[j] == 0.0
    # the exact-point values quoted for (0.5, 0.5): S*=0.16, I*=0.84
    assert ceil_i == pytest.approx(0.16, abs=5e-3)


def test_joint_p1_below_threshold_returns_envelopes_only():
    dom = interval()
    c = mass_action_constants(dom)  # eta = 1
    profile = limit_joint_p1(c, sigma=0.5)
    assert not profile.meta["closed_form"]
    assert profile.S_limit is None
    env = profile.envelopes
    # with q=1 both extra envelopes exist and the generic cap uses min(sigma, eta)
    assert set(env) >= {"S_lower", "S_upper", "I_upper", "I_lower", "S_upper_pointwise"}
    np.testing.assert_allclose(env["I_upper"].values, (2.0 - 1.0) / 0.5)
    np.testing.assert_allclose(env["I_lower"].values, 1.0)
    np.testing.assert_allclose(env["S_lower"].values, min(2.0, 0.5))


def test_joint_p1_envelopes_contain_closed_form():
    dom, c = scenario_disk()
    profile = limit_joint_p1(c, sigma=2.0)
    S, I = profile.S_limit.values, profile.I_limit.values
    env = profile.envelopes
    tol = 1e-12
    assert (S >= env["S_lower"].values - tol).all()
    assert (S <= env["S_upper"].values + tol).all()
    assert (I <= env["I_upper"].values + tol).all()


def test_joint_p1_input_validation():
    dom = interval()
    c = mass_action_constants(dom)
    with pytest.raises(ValueError):
        limit_joint_p1(c, sigma=-1.0)
    with pytest.raises(ValueError):
        limit_joint_p1(golden_constants(dom), sigma=2.0)


def test_joint_sublinear_golden_pair():
    dom = interval()
    profile = limit_joint_sublinear(golden_constants(dom), sigma=2.0)
    np.testing.assert_allclose(profile.S_limit.values, GOLDEN_S, atol=1e-12)
    np.testing.assert_allclose(profile.I_limit.values, GOLDEN_I, atol=1e-12)
    assert profile.meta["mass_identity_sup"] <= 1e-12


def test_joint_sublinear_refuses_a_profile_that_misses_its_mass_identity():
    # the root I* = 1e-20 lies far below the 4-ulp resolution of its bracket
    # [0, 3]: the returned root was 6.7e-16, which lifts S* from 1.0 to 1.742
    dom = interval(9)
    c = CoefficientSet(
        dom, beta=0.01, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=1.0, d_I=1.0, p=0.9, q=2.0,
    )
    with pytest.raises(NonConvergenceError, match="mass identity"):
        limit_joint_sublinear(c, sigma=1.0)
    with pytest.raises(NonConvergenceError, match="mass identity"):
        monotone_joint_sublinear(c, sigma=1.0)


def test_joint_sublinear_requires_large_sigma():
    dom = interval()
    with pytest.raises(ValueError, match="sigma"):
        limit_joint_sublinear(golden_constants(dom), sigma=0.5)


# ---------------------------------------------------------------------------
# Regime dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("constants", [mass_action_constants, golden_constants])
def test_limit_profile_carries_its_regime_name(constants, regime):
    c = constants(interval(17))
    assert limit_profile(c, regime, 2.0).regime == regime


def test_shrink_diffusion_sets_the_regime_rates():
    c = mass_action_constants(interval(9), d_S=0.1, d_I=0.05)
    shrunk = {r: shrink_diffusion(c, r, 1e-3, 2.0) for r in REGIMES}
    assert [(s.d_S, s.d_I) for s in shrunk.values()] == [(0.1, 1e-3), (1e-3, 0.05), (1e-3, 2e-3)]


@pytest.mark.parametrize("dispatch", [shrink_diffusion, limit_profile])
def test_regime_dispatch_refuses_a_missing_sigma_and_unknown_names(dispatch):
    c = mass_action_constants(interval(9))
    args = (1e-3,) if dispatch is shrink_diffusion else ()
    with pytest.raises(ValueError, match="needs a diffusion ratio sigma"):
        dispatch(c, REGIMES[-1], *args)
    with pytest.raises(ValueError, match="unknown regime"):
        dispatch(c, "small_d_I", *args, 2.0)


# ---------------------------------------------------------------------------
# Monotone bracketing sequences
# ---------------------------------------------------------------------------


def test_p1_increasing_sequence_frozen_iterates():
    dom = interval(9)
    c = mass_action_constants(dom)  # Lambda=2, h=1, eta=1; sigma=2
    seq = monotone_joint_p1(c, 2.0, "increasing")
    v = [it[0] for it in seq.v_iterates[:4]]
    u = [it[0] for it in seq.u_iterates[:4]]
    np.testing.assert_allclose(v, [0.0, 1.0, 1.5, 1.75], atol=1e-14)
    np.testing.assert_allclose(u, [2.0, 2.5, 2.75, 2.875], atol=1e-14)
    np.testing.assert_allclose(seq.v_limit, 2.0, atol=1e-14)
    np.testing.assert_allclose(seq.u_limit, 3.0, atol=1e-14)
    assert seq.converged


def test_p1_decreasing_sequence_start_and_limit():
    dom = interval(9)
    c = mass_action_constants(dom)
    seq = monotone_joint_p1(c, 2.0, "decreasing")
    # start value Lambda_max + (sigma+1) max(Lambda/eta) = 2 + 3*2 = 8
    assert seq.u_iterates[0][0] == pytest.approx(8.0)
    assert seq.v_iterates[0][0] == pytest.approx(8.0)
    # first round: u = 2 + (1/2) 8 = 6, then v = (u - 1)_+ = 5 from the new u
    assert seq.u_iterates[1][0] == pytest.approx(6.0)
    assert seq.v_iterates[1][0] == pytest.approx(5.0)
    np.testing.assert_allclose(seq.final_u, 3.0, atol=1e-8)
    np.testing.assert_allclose(seq.final_v, 2.0, atol=1e-8)


def test_p1_sequences_bracket_and_agree():
    dom, c = scenario_disk()
    inc = monotone_joint_p1(c, 2.0, "increasing")
    dec = monotone_joint_p1(c, 2.0, "decreasing")
    assert np.abs(inc.final_v - dec.final_v).max() <= 1e-8
    assert np.abs(inc.final_u - dec.final_u).max() <= 1e-8
    # independent oracle: bisect the fixed-point equation
    # v = (Lambda + (1-eta/sigma) v - ceiling)_+ per node
    lam = c.recruitment.values
    eta = c.eta.values
    ceiling = c.risk_ceiling()

    def g(v):
        return v - np.maximum(lam + (1 - eta / 2.0) * v - ceiling, 0.0)

    hi = np.full(dom.n_nodes, 100.0)
    v_oracle = bisect_increasing(g, np.zeros(dom.n_nodes), hi)
    assert np.abs(inc.v_limit - v_oracle).max() <= 1e-10


def test_p1_sequence_strictly_monotone_on_active_nodes():
    dom, c = scenario_disk()
    inc = monotone_joint_p1(c, 2.0, "increasing")
    active = inc.v_limit > 0.0
    for n in range(1, min(len(inc.v_iterates), 12)):
        dv = inc.v_iterates[n] - inc.v_iterates[n - 1]
        assert dv[active].min() > 0.0
        assert dv[~active].min() >= 0.0
    dec = monotone_joint_p1(c, 2.0, "decreasing")
    dec_active = dec.v_limit > 0.0
    for n in range(1, min(len(dec.v_iterates), 12)):
        dv = dec.v_iterates[n - 1] - dec.v_iterates[n]
        # strict decrease where the limit is positive; nodes whose limit is
        # zero may land on it exactly after finitely many rounds
        assert dv[dec_active].min() > 0.0
        assert dv.min() >= 0.0


def test_p1_sequence_gaps_shrink():
    dom = interval(9)
    c = mass_action_constants(dom)
    seq = monotone_joint_p1(c, 2.0, "increasing")

    def gap(u, v):
        return max(np.abs(u - seq.u_limit).max(), np.abs(v - seq.v_limit).max())

    gaps = [gap(u, v) for u, v in zip(seq.u_iterates, seq.v_iterates)]
    assert len(gaps) == min(seq.n_iterations + 1, 200)  # every round up to the storage cap
    assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))
    assert gap(seq.final_u, seq.final_v) <= 1e-9


def test_p1_sequence_sigma_validation():
    dom = interval(9)
    c = mass_action_constants(dom)
    with pytest.raises(ValueError, match="sigma"):
        monotone_joint_p1(c, 0.9, "increasing")
    with pytest.raises(ValueError):
        monotone_joint_p1(c, 2.0, "sideways")
    # a wrong p is refused by the joint limit the sequence approaches
    with pytest.raises(ValueError, match="this joint limit requires p = 1"):
        monotone_joint_p1(golden_constants(dom), 2.0)
    with pytest.raises(ValueError, match="this joint limit requires 0 < p < 1"):
        monotone_joint_sublinear(c, 2.0)


def test_sublinear_sequence_frozen_first_round():
    dom = interval(9)
    c = golden_constants(dom)
    seq = monotone_joint_sublinear(c, 2.0, "increasing")
    # v_1 solves v + sqrt(v/2) = 1 => v = 1/2; u_1 = 1 + (1/2)(1/2) = 1.25
    assert seq.v_iterates[1][0] == pytest.approx(0.5, abs=1e-12)
    assert seq.u_iterates[1][0] == pytest.approx(1.25, abs=1e-12)
    # limits: v* = sigma I* with I* the golden root
    assert seq.v_limit[0] == pytest.approx(2.0 * GOLDEN_I, abs=1e-10)
    assert seq.u_limit[0] == pytest.approx(1.0 + 0.5 * 2.0 * GOLDEN_I, abs=1e-10)


def test_sublinear_sequences_converge_to_profile():
    dom = interval(9)
    c = golden_constants(dom)
    profile = limit_joint_sublinear(c, 2.0)
    for direction in ("increasing", "decreasing"):
        seq = monotone_joint_sublinear(c, 2.0, direction)
        np.testing.assert_allclose(seq.final_v / 2.0, profile.I_limit.values, atol=1e-8)
    inc = monotone_joint_sublinear(c, 2.0, "increasing")
    dec = monotone_joint_sublinear(c, 2.0, "decreasing")
    assert np.abs(inc.final_u - dec.final_u).max() <= 1e-8


def test_sequence_checks_monotonicity_on_every_round(monkeypatch):
    # one late round, past the stored iterates, is pushed against the
    # direction of travel; the per-round check must catch it
    c = golden_constants(interval(9))
    calls = []

    def shifted(f, df, lo, hi):
        calls.append(None)
        root = newton_increasing(f, df, lo, hi)
        return root - 1e-6 if len(calls) == 500 else root

    monkeypatch.setattr(asymptotics, "newton_increasing", shifted)
    with pytest.raises(NonConvergenceError, match="monotonicity"):
        monotone_joint_sublinear(c, 50.0, "increasing")
    assert len(calls) == 500


def test_sublinear_sequence_scenario_coefficients():
    dom, c = scenario_disk(p=0.5)
    inc = monotone_joint_sublinear(c, 2.0, "increasing")
    dec = monotone_joint_sublinear(c, 2.0, "decreasing")
    assert np.abs(inc.final_v - dec.final_v).max() <= 1e-8
    profile = limit_joint_sublinear(c, 2.0)
    np.testing.assert_allclose(
        inc.v_limit / 2.0, profile.I_limit.values, atol=1e-10
    )
    # strict componentwise monotonicity early on (v* > 0 at every node)
    assert inc.v_limit.min() > 0.0
    for n in range(1, 6):
        assert (inc.v_iterates[n] - inc.v_iterates[n - 1]).min() > 0.0


def test_sublinear_sequences_match_bisection(monkeypatch):
    _, c = scenario_disk(p=0.5)
    newton = [monotone_joint_sublinear(c, 2.0, d) for d in ("increasing", "decreasing")]
    monkeypatch.setattr(asymptotics, "newton_increasing", bisect)
    for seq in newton:
        reference = monotone_joint_sublinear(c, 2.0, seq.direction)
        assert seq.n_iterations == reference.n_iterations
        assert np.abs(seq.final_u - reference.final_u).max() <= 1e-13
        assert np.abs(seq.final_v - reference.final_v).max() <= 1e-13


# ---------------------------------------------------------------------------
# Bound audit
# ---------------------------------------------------------------------------


def test_floor_constant_frozen_value():
    dom = interval(9)
    c = CoefficientSet(
        dom, beta=1.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=0.1, d_I=0.1, p=0.5, q=1.0,
    )
    # target = 1/(1 + sqrt(d_S/d_I + 1)) = 1/(1+sqrt(2)); c0 = target/2
    assert susceptible_floor_constant(c) == pytest.approx(C0_REFERENCE, abs=1e-12)


# the maximum-principle sign checks, audited for every p
EXTREMUM_CHECKS = {
    "reaction_S_at_max_S",
    "reaction_S_at_min_S",
    "reaction_I_at_max_I",
    "reaction_I_at_min_I",
}


def test_audit_mass_action_ee():
    dom = interval(65)
    c = mass_action_constants(dom)
    report = bounds_audit(c, find_ee(c))
    assert report.all_passed
    names = {ch["name"] for ch in report.checks}
    assert names == {"S_min_floor", "S_max_cap"} | EXTREMUM_CHECKS  # no positive floor at p = 1


def test_audit_sublinear_ee():
    dom = interval(65)
    c = golden_constants(dom)
    report = bounds_audit(c, find_ee(c))
    assert report.all_passed
    names = {ch["name"] for ch in report.checks}
    assert names == {
        "I_min_vs_S_min",
        "I_max_vs_S_max",
        "S_max_diffusion_cap",
        "I_max_diffusion_cap",
        "S_min_positive_floor",
        "I_min_positive_floor",
    } | EXTREMUM_CHECKS
    (floor,) = [ch for ch in report.checks if ch["name"] == "S_min_positive_floor"]
    assert floor["kind"] == "lower"
    assert floor["bound"] == susceptible_floor_constant(c) > 0.0
    assert all(ch["passed"] for ch in report.checks)


def test_audit_detects_violations():
    dom = interval(65)
    c = golden_constants(dom)
    eq = find_ee(c)
    # inflate the susceptible field past the diffusion cap
    from dataclasses import replace

    fake = replace(eq, S=dom.field(eq.S.values * 10.0))
    report = bounds_audit(c, fake)
    assert not report.all_passed
    assert any(
        ch["name"] == "S_max_diffusion_cap" and not ch["passed"] for ch in report.checks
    )

    # a bump of S at one node stays inside the p = 1 range bounds (EE (1, 1),
    # range [1, 2]), but there the local reaction 2 - 1.1 - 2.2 + 1 = -0.3 is
    # negative at a maximum of S, which the maximum principle forbids
    c = mass_action_constants(dom)
    eq = find_ee(c)
    S = eq.S.values.copy()
    S[32] += 0.1
    report = bounds_audit(c, replace(eq, S=dom.field(S)))
    failed = {ch["name"]: ch for ch in report.checks if not ch["passed"]}
    assert set(failed) == {"reaction_S_at_max_S"}
    assert failed["reaction_S_at_max_S"]["observed"] == pytest.approx(-0.3, abs=1e-6)
