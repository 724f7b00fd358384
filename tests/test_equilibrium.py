"""Disease-free and endemic steady states against independent oracles."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import nearest_node

from sisrd import solvers
from sisrd.coefficients import CoefficientSet
from sisrd.dynamics import MassBalanceError, SimState, run
from sisrd.equilibrium import (
    conservation_gap,
    diagnostics,
    elliptic_residuals,
    find_ee,
    grid_tolerance,
    settle,
    solve_dfe,
)
from sisrd.grid import (
    DomainSpec,
    assemble_neumann_laplacian,
    build_domain,
    stiffness_matrix,
)
from sisrd.scenario import load_scenario
from sisrd.solvers import NonConvergenceError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Constant-coefficient fixtures with hand-solvable equilibria:
#   mass action (p = q = 1):  S = h, I = (Lambda - h)/eta
#   saturating (p = 1/2, q = 1, h = 1, eta = 1):  1 - S - S^2 = 0
GOLDEN_S = 0.6180339887498949  # (sqrt(5) - 1)/2
GOLDEN_I = 0.3819660112501051  # GOLDEN_S**2


def constants_p1(dom=None):
    if dom is None:
        dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (17, 17)))
    return dom, CoefficientSet(
        dom, beta=1.0, gamma=0.5, eta=0.5, recruitment=2.0,
        d_S=0.1, d_I=0.05, p=1.0, q=1.0,
    )


def constants_sublinear(dom=None):
    if dom is None:
        dom = build_domain(DomainSpec.interval(0, 1, 65))
    return dom, CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=0.1, d_I=0.05, p=0.5, q=1.0,
    )


# ---------------------------------------------------------------------------
# Disease-free profile
# ---------------------------------------------------------------------------


def test_dfe_constant_recruitment_is_identity():
    dom, c = constants_p1()
    S = solve_dfe(c)
    np.testing.assert_allclose(S.values, 2.0, atol=1e-11)


def test_dfe_matches_dense_linear_solve():
    # independent route: assemble (W + d_S K) S = W Lambda densely and use
    # numpy's direct solver
    dom = build_domain(DomainSpec.interval(0, 1, 129))
    lam = 1.0 + 0.5 * np.sin(np.pi * dom.coords)
    c = CoefficientSet(
        dom, beta=1.0, gamma=0.5, eta=0.5, recruitment=lam,
        d_S=0.05, d_I=0.05, p=1.0, q=1.0,
    )
    S = solve_dfe(c).values
    W = np.diag(dom.cell_measures)
    A = W + 0.05 * stiffness_matrix(dom).toarray()
    expected = np.linalg.solve(A, dom.cell_measures * lam)
    np.testing.assert_allclose(S, expected, atol=1e-10)
    # and the residual of the continuous equation is at solver precision
    L = assemble_neumann_laplacian(dom)
    assert np.abs(0.05 * (L @ S) - S + lam).max() <= 1e-9


# ---------------------------------------------------------------------------
# Endemic equilibria with known values
# ---------------------------------------------------------------------------


def test_ee_mass_action_constants():
    dom, c = constants_p1()
    eq = find_ee(c)
    assert eq.endemic
    np.testing.assert_allclose(eq.S.values, 1.0, atol=1e-6)
    np.testing.assert_allclose(eq.I.values, 2.0, atol=1e-6)
    assert eq.residual_S <= 1e-10
    assert eq.residual_I <= 1e-10
    assert eq.conservation_gap <= 1e-12


def test_ee_saturating_constants_golden_pair():
    dom, c = constants_sublinear()
    eq = find_ee(c)
    assert eq.endemic
    np.testing.assert_allclose(eq.S.values, GOLDEN_S, atol=1e-5)
    np.testing.assert_allclose(eq.I.values, GOLDEN_I, atol=1e-5)


def test_golden_pair_against_bisection_oracle():
    # the reduced scalar equation is I + sqrt(I) = 1: bisect it directly
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid + np.sqrt(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    I_oracle = 0.5 * (lo + hi)
    assert I_oracle == pytest.approx(GOLDEN_I, abs=1e-12)
    assert np.sqrt(I_oracle) == pytest.approx(GOLDEN_S, abs=1e-12)


def test_subcritical_constants_reach_dfe():
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (9, 9)))
    c = CoefficientSet(
        dom, beta=0.4, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=0.1, d_I=0.05, p=1.0, q=1.0,
    )  # R0 = 0.4 < 1
    eq = find_ee(c)
    assert not eq.endemic
    np.testing.assert_allclose(eq.S.values, 1.0, atol=1e-5)
    assert eq.I.values.max() <= 1e-6


def test_newton_refines_to_tight_residual():
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    lam = 1.0 + 0.5 * np.sin(np.pi * dom.coords)
    c = CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=lam,
        d_S=0.05, d_I=0.02, p=0.5, q=1.0,
    )
    init = SimState(dom.field(0.8), dom.field(0.2))
    state, _ = run(init, c, steady_tol=1e-7, t_final=4000.0)
    rough = max(np.abs(r).max() for r in elliptic_residuals(c, state.S.values, state.I.values))
    sharp = find_ee(c, init)
    assert sharp.newton_iterations > 0
    assert max(sharp.residual_S, sharp.residual_I) <= 1e-10
    assert max(sharp.residual_S, sharp.residual_I) < rough


def test_newton_stop_reason_is_recorded():
    dom, c = constants_p1()
    assert find_ee(c).meta["newton_stop"] == "converged"
    # a march stopped by t_final, not by its steady test, is not polished
    state, summary = run(SimState(dom.field(0.8), dom.field(0.2)), c, t_final=0.5)
    assert summary.reason == "t_final"
    result = settle(c, state, summary)
    assert result.meta == {"march_reason": summary.reason, "newton_stop": "skipped"}
    np.testing.assert_array_equal(result.I.values, state.I.values)


def _singular(J):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize(
    "factor, reason",
    [
        (_singular, "singular"),
        (lambda J: SimpleNamespace(solve=lambda b: np.full_like(b, np.nan)), "non-finite"),
        (lambda J: SimpleNamespace(solve=np.zeros_like), "inaccurate solve"),
    ],
)
def test_stalled_newton_keeps_marched_fields(monkeypatch, factor, reason):
    dom, c = constants_p1()
    state, summary = run(SimState(dom.field(0.8), dom.field(0.2)), c, steady_tol=1e-6)
    monkeypatch.setattr(solvers, "sparse_lu", factor)
    result = settle(c, state, summary)
    assert result.meta == {"march_reason": "steady", "newton_stop": reason}
    np.testing.assert_array_equal(result.S.values, state.S.values)
    np.testing.assert_array_equal(result.I.values, state.I.values)


def _long_march(c, init):
    """The equilibrium without a hand-off: march to 1e-9, then settle."""
    state, summary = run(init, c, steady_tol=1e-9, t_final=4000.0)
    return settle(c, state, summary)


def test_handoff_accepts_newton_at_the_loose_steady_test():
    dom, c = constants_p1()
    init = SimState(dom.field(0.8), dom.field(0.2))
    eq = find_ee(c, init)
    long = _long_march(c, init)
    assert eq.meta == {"march_reason": "steady", "newton_stop": "converged", "handoff": "newton"}
    assert eq.steps < long.steps
    np.testing.assert_allclose(eq.S.values, long.S.values, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(eq.I.values, long.I.values, rtol=0.0, atol=1e-10)


def sublinear_sine():
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    lam = 1.0 + 0.5 * np.sin(np.pi * dom.coords)
    return dom, CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=lam,
        d_S=0.05, d_I=0.02, p=0.5, q=1.0,
    )


def test_stalled_handoff_resumes_the_march(newton_stall_once):
    dom, c = sublinear_sine()
    init = SimState(dom.field(0.8), dom.field(0.2))
    eq = find_ee(c, init)
    # the stalled hand-off, then Newton after the resumed march
    assert len(newton_stall_once) == 2
    long = _long_march(c, init)
    assert eq.meta == {"march_reason": "steady", "newton_stop": "converged", "handoff": "resumed"}
    # the resumed leg continues the march exactly, so both legs together
    # take the long march's steps
    assert (eq.steps, eq.rejected) == (long.steps, long.rejected)
    np.testing.assert_allclose(eq.S.values, long.S.values, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(eq.I.values, long.I.values, rtol=0.0, atol=1e-10)


def test_subcritical_handoff_resumes_to_the_dfe():
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (9, 9)))
    c = CoefficientSet(
        dom, beta=0.4, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=0.1, d_I=0.05, p=1.0, q=1.0,
    )  # R0 = 0.4 < 1: Newton's answer is disease-free, so the march resumes
    init = SimState(dom.field(0.8), dom.field(0.2))
    eq = find_ee(c, init)
    long = _long_march(c, init)
    assert not eq.endemic and not long.endemic
    assert eq.meta == {**long.meta, "handoff": "resumed"}
    assert eq.steps == long.steps
    np.testing.assert_array_equal(eq.S.values, long.S.values)
    np.testing.assert_array_equal(eq.I.values, long.I.values)


def test_inaccurate_newton_solve_resumes_the_march(inaccurate_newton_solves):
    # every Newton solve is refused by the backward-error guard, so the
    # march resumes to its own steady test and keeps its own fields
    dom, c = sublinear_sine()
    init = SimState(dom.field(0.8), dom.field(0.2))
    eq = find_ee(c, init)
    long = _long_march(c, init)
    assert long.meta == {"march_reason": "steady", "newton_stop": "inaccurate solve"}
    assert eq.meta == {**long.meta, "handoff": "resumed"}
    assert eq.newton_iterations == 1
    assert (eq.steps, eq.rejected) == (long.steps, long.rejected)
    np.testing.assert_array_equal(eq.S.values, long.S.values)
    np.testing.assert_array_equal(eq.I.values, long.I.values)


def test_scenario1_equilibrium_newton_holds_one_factor(newton_factors):
    # from the hand-off state every step on the first factor cuts the
    # residual tenfold down to the rounding floor, so Newton factors once
    cfg = load_scenario(CONFIG_DIR / "scenario1.json")
    dom = cfg.build_domain()
    eq = find_ee(cfg.build_coefficients(dom), cfg.initial_state(dom), **cfg.controls)
    assert eq.meta["handoff"] == "newton"
    assert eq.meta["newton_stop"] == "converged"
    assert newton_factors == [2 * dom.n_nodes]
    assert eq.newton_iterations > 1


@pytest.mark.parametrize(
    "spec, params, most",
    [
        # the hand-off fires on the slow passage near the disease-free state
        (
            DomainSpec.interval(0, 1, 17),
            dict(beta=1.0, gamma=1.0, eta=1.0, recruitment=2.21875, d_S=1.0, d_I=1.0),
            16,
        ),
        # at d_S = 1e4 the strong-form residual stalls above the target
        (
            DomainSpec.rectangle((0, 1), (0, 1), (9, 9)),
            dict(beta=1.0, gamma=0.5, eta=0.5, recruitment=2.0, d_S=1e4, d_I=0.1),
            21,
        ),
        # R0 = 0.4 < 1: Newton runs towards the disease-free state twice
        (
            DomainSpec.rectangle((0, 1), (0, 1), (9, 9)),
            dict(beta=0.4, gamma=0.5, eta=0.5, recruitment=1.0, d_S=0.1, d_I=0.05),
            9,
        ),
    ],
    ids=["dfe-passage", "large-d_S", "subcritical"],
)
def test_newton_factors_on_the_wasteful_cases_do_not_grow(newton_factors, spec, params, most):
    # the bounds are the factors a fresh-factor-per-step Newton builds
    dom = build_domain(spec)
    c = CoefficientSet(dom, **params, p=1.0, q=1.0)
    find_ee(c, SimState(dom.field(0.8), dom.field(0.2)))
    assert set(newton_factors) == {2 * dom.n_nodes}
    assert len(newton_factors) <= most


def test_ee_independent_of_initial_state():
    dom, c = constants_p1()
    a = find_ee(c, init=SimState(dom.field(0.8), dom.field(0.2)))
    b = find_ee(c, init=SimState(dom.field(3.0), dom.field(0.01)))
    assert np.abs(a.S.values - b.S.values).max() <= 1e-5
    assert np.abs(a.I.values - b.I.values).max() <= 1e-5


@pytest.mark.xfail(
    strict=True,
    raises=MassBalanceError,
    reason="the mass-balance defect is relative to the recruitment alone, so rounding "
    "at the initial mass breaks the 1e-10 bound when the recruitment is small",
)
def test_small_recruitment_passes_the_mass_balance():
    # mass action on an interval: S* = ((gamma + eta)/beta)^(1/q) and
    # I* = (recruitment - S*)/eta; the march stops near t = 1.05 on a false
    # MassBalanceError, an artifact of the bound's scale, not of the step
    dom = build_domain(DomainSpec.interval(0, 1, 17))
    c = CoefficientSet(
        dom, beta=2.0, gamma=0.0156, eta=0.5, recruitment=0.00884,
        d_S=1.0, d_I=1.0, p=1.0, q=0.25,
    )
    eq = find_ee(c)
    S_star = (0.5156 / 2.0) ** 4
    I_star = (0.00884 - S_star) / 0.5
    assert np.abs(eq.S.values - S_star).max() <= 1e-8 * S_star
    assert np.abs(eq.I.values - I_star).max() <= 1e-8 * I_star


def test_nonconvergence_is_loud():
    dom, c = constants_p1()
    with pytest.raises(NonConvergenceError):
        find_ee(c, steady_tol=1e-14, t_final=0.3)


def test_conservation_gap_definition():
    dom, c = constants_p1()
    S = np.full(dom.n_nodes, 1.0)
    I = np.full(dom.n_nodes, 2.0)
    assert conservation_gap(c, S, I) <= 1e-14  # 1 + 0.5*2 = 2 = Lambda
    assert conservation_gap(c, S, 0.0 * I) == pytest.approx(0.5)


def test_diagnostics_extremum_signs():
    dom, c = constants_sublinear()
    eq = find_ee(c)
    diag = diagnostics(c, eq)
    assert diag["extremum_checks_pass"]
    assert "conservation_gap" in diag


def test_grid_tolerance_scales_with_spacing():
    coarse = build_domain(DomainSpec.interval(0, 1, 11))
    fine = build_domain(DomainSpec.interval(0, 1, 101))
    assert grid_tolerance(coarse) == pytest.approx(1e-6 + 2 * 0.1**2)
    assert grid_tolerance(fine) < grid_tolerance(coarse)


def test_spatially_varying_ee_satisfies_pde():
    dom = build_domain(DomainSpec.interval(0, 1, 129))
    beta = 2.0 + np.sin(2 * np.pi * dom.coords)
    c = CoefficientSet(
        dom, beta=beta, gamma=0.5, eta=0.5, recruitment=1.0,
        d_S=0.1, d_I=0.05, p=1.0, q=1.0,
    )
    eq = find_ee(c)
    assert eq.endemic
    # residuals returned are sup norms of the discrete elliptic equations
    assert eq.residual_S <= 1e-10
    assert eq.residual_I <= 1e-10
    assert eq.conservation_gap <= 1e-10
    # infection should be highest where transmission peaks (x = 0.25)
    peak = nearest_node(dom, (0.25,))
    assert eq.I.values[peak] == pytest.approx(eq.I.values.max(), rel=1e-2)
