"""Property tests over random inputs: invariants of the IMEX step and of the
bracketed Newton root finder, the conservation identity at Newton-certified
equilibria, R0 and lambda0 against a dense eigensolver, and the formula
printer's round trip."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sisrd import asymptotics
from sisrd.asymptotics import newton_increasing
from sisrd.coefficients import CoefficientSet
from sisrd.dynamics import MASS_BALANCE_RTOL, SimState, StepRejected, step_imex
from sisrd.equilibrium import find_ee
from sisrd.formula import BinOp, Call, Neg, Num, Pi, Piecewise, Var, parse, pretty
from sisrd.grid import DomainSpec, build_domain, stiffness_matrix
from sisrd.solvers import NonConvergenceError
from sisrd.spectral import compute_lambda0, compute_r0

DOMAINS = (
    build_domain(DomainSpec.interval(0, 1, 13)),
    build_domain(DomainSpec.rectangle((0, 1), (0, 2), (5, 7))),
)

# fixed examples, and no example database written next to the tests
PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def step_cases(draw):
    """A domain, positive fields and coefficients, exponents and a step size."""
    dom = draw(st.sampled_from(DOMAINS))

    def positive_field(lo, hi):
        return draw(arrays(np.float64, dom.n_nodes, elements=st.floats(lo, hi)))

    c = CoefficientSet(
        dom,
        beta=positive_field(0.1, 5.0),
        gamma=draw(st.floats(0.01, 2.0)),
        eta=draw(st.floats(0.05, 2.0)),
        recruitment=positive_field(0.5, 3.0),
        d_S=draw(st.floats(1e-4, 1.0)),
        d_I=draw(st.floats(1e-4, 1.0)),
        p=draw(st.floats(0.1, 1.0)),
        q=draw(st.floats(0.25, 2.0)),
    )
    state = SimState(dom.field(positive_field(0.01, 5.0)), dom.field(positive_field(0.01, 5.0)))
    return state, c, draw(st.floats(0.01, 1.0))


@PROPERTY_SETTINGS
@given(step_cases())
def test_step_keeps_positivity_and_mass_balance(case):
    state, c, dt = case
    try:
        new, defect = step_imex(state, c, dt)
    except StepRejected:
        return  # a rejected step is the other allowed outcome
    assert new.S.values.min() > 0.0
    assert new.I.values.min() >= 0.0
    assert defect <= MASS_BALANCE_RTOL
    assert new.t == state.t + dt


@st.composite
def monotone_maps(draw):
    """Per-node maps ``a x + b x^k - c`` with a root bracket ``[0, hi]``.

    ``a``, ``b`` and ``c`` are positive, so ``f(0) = -c < 0`` and
    ``f(s c/a) >= b (c/a)^k > 0`` for ``s >= 1``; each node draws its own
    exponent.
    """
    n = draw(st.integers(1, 6))

    def positive(lo, hi):
        return draw(arrays(np.float64, n, elements=st.floats(lo, hi)))

    a, b, c = positive(0.01, 100.0), positive(0.01, 100.0), positive(0.01, 100.0)
    k = positive(0.25, 4.0)
    hi = positive(1.0, 10.0) * c / a

    def f(x):
        return a * x + b * x**k - c

    def df(x):
        return a + k * b * x ** (k - 1.0)

    return f, df, hi


# a node converges on a Newton step of 4 ulp or a bracket of 4 ulp of hi,
# so a root is pinned to a few ulps of the bracket's scale, not its own
ROOT_ULPS = 16


@PROPERTY_SETTINGS
@given(monotone_maps())
def test_newton_roots_lie_in_the_bracket_at_a_sign_change(case):
    f, df, hi = case
    lo = np.zeros_like(hi)
    root = newton_increasing(f, df, lo, hi)
    assert np.all((lo <= root) & (root <= hi))
    slack = ROOT_ULPS * np.spacing(hi)
    assert np.all(f(np.maximum(root - slack, 0.0)) <= 0.0)
    assert np.all(f(root + slack) >= 0.0)


@PROPERTY_SETTINGS
@given(monotone_maps())
def test_newton_rejects_a_bracket_without_sign_change(case):
    f, df, hi = case
    with pytest.raises(ValueError, match="sign change"):
        newton_increasing(f, df, hi, 2.0 * hi)  # f > 0 on the whole bracket


@PROPERTY_SETTINGS
@given(monotone_maps())
def test_newton_cap_raises_nonconvergence(case):
    # one iteration from the midpoint is a bisection or a Newton step of at
    # least a quarter of the way to the root (k <= 4), never a converged one
    # unless the root lies within a few ulp of the midpoint
    f, df, hi = case
    lo = np.zeros_like(hi)
    mid = 0.5 * hi
    root = newton_increasing(f, df, lo, hi)
    assume(np.any(np.abs(root - mid) > ROOT_ULPS * np.spacing(mid)))
    with mock.patch.object(asymptotics, "_NEWTON_MAX_ITER", 1):
        with pytest.raises(NonConvergenceError, match="not converged"):
            newton_increasing(f, df, lo, hi)


EE_DOMAIN = build_domain(DomainSpec.interval(0, 1, 17))


@st.composite
def mass_action_constants(draw):
    """Constant coefficients, p = 1, a drawn endemic equilibrium, and a start.

    The closed form ``S* = ((gamma+eta)/beta)^(1/q)``,
    ``I* = (lambda - S*)/eta`` is drawn, and ``beta`` and ``lambda``
    follow from it.  The march starts from ``(a S*, b I*)`` with ``a, b``
    in [0.5, 1.5], so the test is about Newton rather than the march: from
    the default start (0.8, 0.2) the loose steady test can fire in the slow
    passage near the disease-free state, and for ``S*`` near 0.1 with a
    large ``beta`` the march does not settle by t = 4000.
    """
    gamma = draw(st.floats(0.01, 2.0))
    eta = draw(st.floats(0.1, 2.0))
    q = draw(st.floats(0.25, 2.0))
    S_star = draw(st.floats(0.25, 2.0))
    I_star = draw(st.floats(0.2, 2.0))
    c = CoefficientSet(
        EE_DOMAIN, beta=(gamma + eta) / S_star**q, gamma=gamma, eta=eta,
        recruitment=S_star + eta * I_star, d_S=draw(st.floats(1e-3, 1.0)),
        d_I=draw(st.floats(1e-3, 1.0)), p=1.0, q=q,
    )
    start = SimState(
        EE_DOMAIN.field(S_star * draw(st.floats(0.5, 1.5))),
        EE_DOMAIN.field(I_star * draw(st.floats(0.5, 1.5))),
    )
    return c, start, S_star, I_star


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mass_action_constants())
def test_newton_certified_equilibrium_meets_the_closed_form(case):
    c, start, S_star, I_star = case
    eq = find_ee(c, start)
    assert eq.meta["handoff"] == "newton"
    assert eq.meta["newton_stop"] == "converged"
    assert eq.conservation_gap <= 1e-10
    np.testing.assert_allclose(eq.S.values, S_star, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(eq.I.values, I_star, rtol=0.0, atol=1e-8)


@st.composite
def threshold_problems(draw):
    """Interval problems with p = 1: 5-21 nodes, every rate U(0.1, 3) per node,
    d_S = 10^U(-3, 0), d_I = 10^U(-5, 0) and q ~ U(0.25, 2)."""
    dom = build_domain(DomainSpec.interval(0, 1, draw(st.integers(5, 21))))

    def rate():
        return draw(arrays(np.float64, dom.n_nodes, elements=st.floats(0.1, 3.0)))

    return CoefficientSet(
        dom, beta=rate(), gamma=rate(), eta=rate(), recruitment=rate(),
        d_S=10.0 ** draw(st.floats(-3.0, 0.0)), d_I=10.0 ** draw(st.floats(-5.0, 0.0)),
        p=1.0, q=draw(st.floats(0.25, 2.0)),
    )


@PROPERTY_SETTINGS
@given(threshold_problems())
def test_thresholds_match_the_dense_eigensolver(c):
    dom = c.domain
    w = dom.cell_measures
    K = stiffness_matrix(dom).toarray()
    S = np.linalg.solve(np.diag(w) + c.d_S * K, w * c.recruitment.values)
    A = np.diag(w * c.beta.values * S**c.q)
    B = c.d_I * K + np.diag(w * (c.gamma.values + c.eta.values))
    r0 = scipy.linalg.eigh(A, B, eigvals_only=True)[-1]
    potential = c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values
    M = c.d_I * K - np.diag(w * potential)
    lam0 = scipy.linalg.eigh(M, np.diag(w), eigvals_only=True)[0]
    for res, ref in ((compute_r0(c), r0), (compute_lambda0(c), lam0)):
        assert abs(res.value - ref) <= 1e-10 * max(abs(ref), 1.0)
        # positive, not only nonnegative: the last step is a power step
        # with the positive inverse of an M-matrix
        assert res.field.values.min() > 0.0
        assert res.field.values.max() == 1.0


ONE_ARGUMENT = ("sin", "cos", "exp", "sqrt", "abs", "pos")


def _formula_nodes(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(ONE_ARGUMENT), children),
        st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(("min", "max")), children, children),
        st.builds(
            Piecewise,
            st.sampled_from("xy"),
            st.lists(st.tuples(children, children), max_size=2).map(tuple),
            children,
        ),
    )


# literals are unsigned in the grammar: a sign is a Neg node
FORMULAS = st.recursive(
    st.one_of(
        st.builds(Num, st.floats(0.0, 1e6)),
        st.just(Pi()),
        st.sampled_from((Var("x"), Var("y"))),
    ),
    _formula_nodes,
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(FORMULAS)
def test_pretty_round_trips_through_parse(tree):
    assert parse(pretty(tree)) == tree
