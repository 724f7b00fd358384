"""Reproduction number and principal eigenvalue against dense eigensolvers."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from sisrd import spectral
from sisrd.coefficients import CoefficientSet
from sisrd.equilibrium import solve_dfe
from sisrd.grid import DomainSpec, build_domain, stiffness_matrix
from sisrd.scenario import load_scenario
from sisrd.solvers import NonConvergenceError
from sisrd.spectral import compute_lambda0, compute_r0

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def constants(dom=None, **kw):
    if dom is None:
        dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (13, 13)))
    params = dict(
        beta=1.0, gamma=0.5, eta=0.5, recruitment=2.0, d_S=0.1, d_I=0.05, p=1.0, q=1.0
    )
    params.update(kw)
    return dom, CoefficientSet(dom, **params)


def varying_1d(d_I=0.05, q=1.0):
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    beta = 2.0 + np.sin(2 * np.pi * dom.coords)
    c = CoefficientSet(
        dom, beta=beta, gamma=0.6, eta=0.4, recruitment=1.0 + 0.5 * dom.coords,
        d_S=0.07, d_I=d_I, p=1.0, q=q,
    )
    return dom, c


def varying_2d(d_I=0.05):
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (13, 13)))
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    c = CoefficientSet(
        dom, beta=1.5 + np.cos(np.pi * x) * np.sin(np.pi * y), gamma=0.3 + 0.4 * y,
        eta=0.5, recruitment=1.0 + x * y, d_S=0.1, d_I=d_I, p=1.0, q=1.0,
    )
    return dom, c


# ---------------------------------------------------------------------------
# R0
# ---------------------------------------------------------------------------


def test_r0_constant_coefficients_closed_form():
    _, c = constants()  # beta Lambda^q/(gamma+eta) = 2
    res = compute_r0(c)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.field.values.min() > 0.0


def test_r0_rejects_sublinear_incidence():
    _, c = constants(p=0.5)
    with pytest.raises(ValueError, match="p = 1"):
        compute_r0(c)


def test_r0_matches_dense_generalized_eigenproblem():
    dom, c = varying_1d()
    res = compute_r0(c)
    w = dom.cell_measures
    S = solve_dfe(c).values
    A = np.diag(w * c.beta.values * S**c.q)
    B = c.d_I * stiffness_matrix(dom).toarray() + np.diag(
        w * (c.gamma.values + c.eta.values)
    )
    vals, vecs = scipy.linalg.eigh(A, B)
    assert res.value == pytest.approx(vals[-1], rel=1e-9)
    ref = vecs[:, -1] / vecs[np.argmax(np.abs(vecs[:, -1])), -1]
    np.testing.assert_allclose(res.field.values, ref, atol=1e-7)


@pytest.mark.parametrize("name", ["beta", "gamma", "eta", "recruitment"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_coefficients_refuse_nonpositive_rates(name, value):
    # why the power iteration has no zero-gain case: R0's gain beta S~^q is positive
    dom = build_domain(DomainSpec.interval(0, 1, 9))
    params = dict(beta=1.0, gamma=0.5, eta=0.5, recruitment=2.0, d_S=0.1, d_I=0.05, p=1.0, q=1.0)
    with pytest.raises(ValueError, match=f"{name} must be strictly positive"):
        CoefficientSet(dom, **{**params, name: value})


@pytest.mark.parametrize("compute", [compute_r0, compute_lambda0], ids=["r0", "lambda0"])
def test_power_iteration_cap_raises(monkeypatch, compute):
    _, c = varying_1d()
    # two factor solves end the Lanczos iteration, whose basis alone needs more
    monkeypatch.setattr(spectral, "_MAX_SOLVES", 2)
    with pytest.raises(NonConvergenceError, match="stalled"):
        compute(c)


def test_lanczos_without_convergence_raises_stalled(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    _, c = varying_1d()
    monkeypatch.setattr(spectral, "eigsh", no_convergence)
    with pytest.raises(NonConvergenceError, match="stalled"):
        compute_r0(c)


def test_r0_nonincreasing_in_infected_diffusion():
    values = []
    for d_I in (1e-1, 1e-2, 1e-3, 1e-4):
        _, c = varying_1d(d_I=d_I)
        values.append(compute_r0(c).value)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_r0_small_diffusion_limit_is_pointwise_max():
    # as d_I -> 0, R0 approaches max over nodes of beta S~^q/(gamma+eta)
    dom, c = varying_1d(d_I=1e-4, q=0.5)
    S = solve_dfe(c).values
    target = np.max(c.beta.values * S**c.q / (c.gamma.values + c.eta.values))
    assert compute_r0(c).value == pytest.approx(target, rel=0.05)


# ---------------------------------------------------------------------------
# lambda0
# ---------------------------------------------------------------------------


def test_lambda0_constant_coefficients_closed_form():
    _, c = constants()  # -(beta Lambda^q - gamma - eta) = -1
    res = compute_lambda0(c)
    assert res.converged
    assert res.value == pytest.approx(-1.0, abs=1e-8)


def test_lambda0_matches_dense_generalized_eigenproblem():
    for dom, c in (varying_1d(), varying_2d(d_I=1e-3)):
        res = compute_lambda0(c)
        w = dom.cell_measures
        potential = c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values
        M = c.d_I * stiffness_matrix(dom).toarray() - np.diag(w * potential)
        vals = scipy.linalg.eigh(M, np.diag(w), eigvals_only=True)
        assert res.value == pytest.approx(vals[0], abs=1e-9)
        assert res.residual <= 1e-8


def test_near_degenerate_lambda0_needs_few_solves():
    # at d_I = 1e-3 the two risk peaks of varying_2d give nearly equal top
    # eigenvalues; plain power iteration needed 47,740 solves here
    dom, c = varying_2d(d_I=1e-3)
    res = compute_lambda0(c)
    w = dom.cell_measures
    potential = c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values
    M = c.d_I * stiffness_matrix(dom).toarray() - np.diag(w * potential)
    vals = scipy.linalg.eigh(M, np.diag(w), eigvals_only=True)
    assert res.iterations <= 100
    assert res.value == pytest.approx(vals[0], abs=1e-9)


def test_lambda0_on_scenario1_without_polish():
    # after the bottom-of-spectrum shift, Lanczos and its power-step polish
    # take a few dozen factor solves with a small residual and no
    # inverse-iteration polish
    cfg = load_scenario(CONFIG_DIR / "scenario1.json")
    res = compute_lambda0(cfg.build_coefficients(cfg.build_domain()))
    assert res.value == pytest.approx(-2.8050662869860297, abs=1e-12)
    assert res.iterations <= 200
    assert res.residual <= 1e-9


def test_lambda0_sign_tracks_pointwise_potential_for_small_diffusion():
    # when d_I is small, lambda0 approaches -max(beta Lambda^q - gamma - eta)
    dom, c = varying_1d(d_I=1e-5)
    potential = c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values
    assert compute_lambda0(c).value == pytest.approx(-potential.max(), rel=0.05)


def test_lambda0_defined_for_sublinear_incidence_too():
    # the eigenvalue uses the q-power of the disease-free profile only, so
    # p < 1 is legitimate input
    _, c = constants(p=0.5, q=0.5)
    res = compute_lambda0(c)
    # potential beta sqrt(2) - 1 > 0 so lambda0 < 0
    assert res.value < 0.0


def test_lambda0_positive_when_subcritical():
    _, c = constants(beta=0.4)  # potential 0.4*2 - 1 = -0.2 < 0
    res = compute_lambda0(c)
    assert res.value == pytest.approx(0.2, abs=1e-8)


def test_eigenvector_positive_and_normalized():
    dom, c = varying_1d()
    for res in (compute_r0(c), compute_lambda0(c)):
        assert res.field.values.min() >= 0.0
        assert res.field.values.max() == pytest.approx(1.0)


def test_r0_threshold_consistent_with_lambda0_sign():
    # R0 > 1 exactly when lambda0 < 0 (both built from the same DFE)
    for beta in (0.4, 0.8, 1.2, 2.0):
        _, c = constants(beta=beta)
        r0 = compute_r0(c).value
        l0 = compute_lambda0(c).value
        assert (r0 > 1.0) == (l0 < 0.0)
