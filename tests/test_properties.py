"""Property tests: invariants of the IMEX step over random inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sisrd.coefficients import CoefficientSet
from sisrd.dynamics import MASS_BALANCE_RTOL, SimState, StepRejected, step_imex
from sisrd.grid import DomainSpec, build_domain

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

    c = CoefficientSet.from_values(
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
        new, stats = step_imex(state, c, dt)
    except StepRejected:
        return  # a rejected step is the other allowed outcome
    assert new.S.values.min() > 0.0
    assert new.I.values.min() >= 0.0
    assert stats.mass_defect <= MASS_BALANCE_RTOL
    assert new.t == state.t + dt
