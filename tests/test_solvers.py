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
from sisrd.solvers import damped_newton


def test_damped_newton_stops_on_an_ascent_direction():
    # a wrong-sign Newton system for x^2 = 2: the step solves accurately
    # but climbs the residual, so no halving of it descends
    def residual(x):
        return x**2 - 2.0

    def system(x, G):
        return sp.diags(2.0 * x), G

    x0 = np.array([1.0, 3.0])
    x, iters, stop = damped_newton(residual, system, x0)
    assert (iters, stop) == (1, "no descent")
    np.testing.assert_array_equal(x, x0)


def pencil_owner(n_nodes, d_I):
    # _principal reads only the domain and d_I of the coefficient set
    dom = build_domain(DomainSpec.interval(0, 1, n_nodes))
    c = CoefficientSet.from_values(
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
