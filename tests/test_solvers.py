"""The solver layer: the guarded damped Newton loop, and the eigen-solve
behind R0 and lambda0 (Lanczos, polished by positive power iteration)
against dense oracles.

``spectral._principal`` solves ``diag(a) phi = mu B phi`` with
``B = d_I K + W diag(reaction)``; these tests feed it operator pencils
from an actual mesh and compare with a dense generalized eigensolver.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sisrd import spectral
from sisrd.coefficients import CoefficientSet
from sisrd.grid import DomainSpec, build_domain, stiffness_matrix
from sisrd.solvers import damped_newton, sparse_lu


def factored(matrix, sizes=None):
    """``damped_newton``'s ``jacobian`` for ``matrix(x)``: the matrix and its factor.

    ``sizes``, if given, gains the order of every matrix factored.
    """

    def jacobian(x):
        J = matrix(x).tocsc()
        if sizes is not None:
            sizes.append(J.shape[0])
        return J, sparse_lu(J)

    return jacobian


def test_damped_newton_stops_on_an_ascent_direction():
    # a wrong-sign Jacobian for x^2 = 2: the step solves accurately but
    # climbs the residual, so no halving of it descends on the fresh factor
    def residual(x):
        return x**2 - 2.0

    def jacobian(x):
        return sp.diags(-2.0 * x)

    x0 = np.array([1.0, 3.0])
    x, iters, stop = damped_newton(residual, factored(jacobian), x0)
    assert (iters, stop) == (1, "no descent")
    np.testing.assert_array_equal(x, x0)


def _square_root_problem():
    # x^2 = 2 from a start where a factor held from it contracts tenfold
    # per step: the chord error ratio is 1 - sqrt(2)/x0 <= 0.06
    def residual(x):
        return x**2 - 2.0

    def jacobian(x):
        return sp.diags(2.0 * x)

    return residual, jacobian, np.array([1.45, 1.5])


def test_damped_newton_keeps_a_contracting_factor():
    residual, jacobian, x0 = _square_root_problem()
    sizes = []
    x, steps, stop = damped_newton(residual, factored(jacobian, sizes), x0)
    assert stop == "converged"
    assert sizes == [2]
    assert steps > len(sizes)
    np.testing.assert_allclose(x, np.sqrt(2.0), rtol=1e-15)


def test_damped_newton_runs_on_to_the_rounding_floor():
    # the first residual below 1e-11 is 7.8e-13 here; the loop goes on while
    # the held factor still cuts the residual tenfold
    residual, jacobian, x0 = _square_root_problem()
    x, steps, stop = damped_newton(residual, factored(jacobian), x0)
    assert stop == "converged"
    assert np.max(np.abs(residual(x))) <= 1e-15


def test_damped_newton_tries_only_the_full_step_at_the_rounding_floor():
    # from 1.45 the step after the residual reaches 7e-15 lands on 4.4e-16,
    # contracts enough to hold the factor, and the next full step cannot
    # descend: it is the one residual evaluated after the last accepted step
    residual, jacobian, _ = _square_root_problem()
    inputs = []

    def logged(x):
        inputs.append(x)
        return residual(x)

    x, steps, stop = damped_newton(logged, factored(jacobian), np.array([1.45]))
    assert stop == "converged"
    assert np.max(np.abs(residual(x))) <= 1e-15
    last_accepted = max(k for k, v in enumerate(inputs) if v is x)
    assert len(inputs) - 1 - last_accepted == 1
    assert len(inputs) == steps + 1  # the start, then one evaluation per step


def test_damped_newton_refactors_a_held_factor_that_does_not_descend():
    # sin(x) = 0: the Newton step from x0 lands near 3 pi, cutting |sin|
    # twentyfold, so its factor is held; there cos has turned from +0.21 to
    # -1, the held step climbs, and the loop refactors instead of stopping
    def residual(x):
        return np.sin(x)

    def jacobian(x):
        return sp.diags(np.cos(x))

    sizes = []
    x, steps, stop = damped_newton(residual, factored(jacobian, sizes), np.array([4.929]))
    assert stop == "converged"
    assert len(sizes) == 2
    np.testing.assert_allclose(x, 3.0 * np.pi, rtol=1e-15)


def pencil_owner(n_nodes, d_I):
    # _principal reads only the domain and d_I of the coefficient set
    dom = build_domain(DomainSpec.interval(0, 1, n_nodes))
    c = CoefficientSet(
        dom, beta=1.0, gamma=0.5, eta=0.5, recruitment=1.0, d_S=0.1, d_I=d_I, p=1.0, q=1.0
    )
    return dom, c


def test_eigenpair_matches_dense_generalized_solver():
    # an operator pencil from an actual mesh: A = W diag(a), B = d K + W diag(b)
    dom, c = pencil_owner(41, 0.05)
    w = dom.cell_measures
    a = 2.0 + np.sin(2 * np.pi * dom.coords)
    b = 1.0 + 0.5 * dom.coords
    res = spectral._principal(c, w * a, b, "test")
    A = np.diag(w * a)
    B = 0.05 * stiffness_matrix(dom).toarray() + np.diag(w * b)
    vals, vecs = scipy.linalg.eigh(A, B)
    assert res.converged
    assert res.value == pytest.approx(vals[-1], rel=1e-10)
    ref = vecs[:, -1]
    ref = ref / ref[np.argmax(np.abs(ref))]
    phi = res.field.values
    np.testing.assert_allclose(phi / phi[np.argmax(np.abs(ref))], ref, atol=1e-7)


def test_eigenpair_positive_eigenvector():
    dom, c = pencil_owner(31, 0.1)
    w = dom.cell_measures
    res = spectral._principal(c, w * (1.0 + dom.coords), np.ones(dom.n_nodes), "test")
    phi = res.field.values
    assert phi.min() > 0.0
    assert phi.max() == pytest.approx(1.0)
