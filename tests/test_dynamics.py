"""Time stepping: positivity control, adaptive steps, and exact mass balance."""

from pathlib import Path

import numpy as np
import pytest

from sisrd import dynamics, equilibrium
from sisrd.coefficients import CoefficientSet
from sisrd.dynamics import (
    MASS_BALANCE_RTOL,
    MassBalanceError,
    SimState,
    StepRejected,
    TimeStepUnderflowError,
    run,
    step_imex,
)
from sisrd import grid
from sisrd.equilibrium import find_ee
from sisrd.grid import DomainSpec, build_domain, integrate, shifted_operator
from sisrd.harness import run_scenario
from sisrd.scenario import load_scenario
from sisrd.solvers import NonConvergenceError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def make(dom=None, **kw):
    if dom is None:
        dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (9, 9)))
    params = dict(
        beta=1.0, gamma=0.5, eta=0.5, recruitment=2.0, d_S=0.1, d_I=0.05, p=1.0, q=1.0
    )
    params.update(kw)
    return dom, CoefficientSet(dom, **params)


def stiff_start():
    """Coefficients and start whose first tries at the cap lose positivity."""
    dom, c = make(beta=50.0, recruitment=1.0, gamma=0.5, eta=0.5)
    return c, SimState(dom.field(0.05), dom.field(1.0))


def test_state_requires_matching_domains():
    dom1, _ = make()
    dom2 = build_domain(DomainSpec.interval(0, 1, 9))
    with pytest.raises(ValueError):
        SimState(dom1.field(1.0), dom2.field(1.0))


def test_single_step_matches_scalar_update():
    # with constant data the Laplacian term vanishes, so the implicit step
    # reduces to an exactly solvable scalar relation per species
    dom, c = make()
    state = SimState(dom.field(0.8), dom.field(0.2))
    dt = 0.05
    new, defect = step_imex(state, c, dt)
    F = 1.0 * 0.8 * 0.2
    S_expected = (0.8 / dt + 2.0 - F + 0.5 * 0.2) / (1 / dt + 1)
    I_expected = (0.2 / dt + F - 0.5 * 0.2) / (1 / dt + 0.5)
    np.testing.assert_allclose(new.S.values, S_expected, rtol=1e-12)
    np.testing.assert_allclose(new.I.values, I_expected, rtol=1e-12)
    assert new.t == pytest.approx(dt)
    assert defect <= MASS_BALANCE_RTOL


def test_step_rejects_negative_infected():
    # gamma I dominates I/dt + F, driving the implicit update below zero
    dom, c = make(beta=1e-6, gamma=200.0, eta=0.1, recruitment=1.0)
    state = SimState(dom.field(1.0), dom.field(0.5))
    with pytest.raises(StepRejected):
        step_imex(state, c, 0.01)


def test_mass_balance_identity_along_run():
    # the transfer term cancels between species, so the discrete balance
    # d/dt int(S+I) = int(recruitment) - int(S') - int(eta I') holds to
    # rounding at every accepted step; run() enforces this and we replay
    # one step explicitly
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (9, 9)))
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    c = CoefficientSet(
        dom,
        beta=2.0 + np.sin(np.pi * x) * np.sin(np.pi * y),
        gamma=0.5,
        eta=0.8,
        recruitment=1.5,
        d_S=0.1,
        d_I=0.02,
        p=1.0,
        q=1.0,
    )
    state = SimState(dom.field(0.8), dom.field(0.2))
    for _ in range(20):
        state, defect = step_imex(state, c, 0.05)
        assert defect <= MASS_BALANCE_RTOL


def test_mass_balance_holds_at_small_dt():
    # the solve residual enters the balance divided by dt; the direct
    # solve's residual does not grow as dt shrinks, so one small step passes
    cfg = load_scenario(CONFIG_DIR / "scenario1.json")
    dom = cfg.build_domain()
    _, defect = step_imex(cfg.initial_state(dom), cfg.build_coefficients(dom), 1e-4)
    assert defect <= MASS_BALANCE_RTOL


def reference_step(state, c, dt):
    # the same IMEX update with both operators solved densely
    dom = c.domain
    w = dom.cell_measures
    S, I = state.S.values, state.I.values
    transfer = c.beta.values * S**c.q * I**c.p
    A_S = shifted_operator(dom, 1.0 / dt + 1.0, c.d_S).toarray()
    rhs_S = S / dt + c.recruitment.values - transfer + c.gamma.values * I
    S_new = np.linalg.solve(A_S, w * rhs_S)
    A_I = shifted_operator(dom, 1.0 / dt + c.eta.values, c.d_I).toarray()
    I_new = np.linalg.solve(A_I, w * (I / dt + transfer - c.gamma.values * I))
    return S_new, I_new


@pytest.mark.parametrize(
    "spec", [DomainSpec.interval(0, 1, 41), DomainSpec.disk(1.0, cell_size=1 / 16)]
)
@pytest.mark.parametrize("dt", [0.01, 0.1])
def test_step_matches_dense_reference(spec, dt):
    dom = build_domain(spec)
    x = dom.coords if dom.dim == 1 else dom.coords[:, 0]
    c = CoefficientSet(
        dom, beta=3.0 + 2.0 * np.sin(np.pi * x), gamma=1.0, eta=0.5 + 0.5 * x**2,
        recruitment=1.0 + 0.5 * np.cos(np.pi * x), d_S=1.0, d_I=1e-3, p=1.0, q=0.5,
    )
    state = SimState(dom.field(0.8 + 0.1 * np.sin(3 * x)), dom.field(0.2 + 0.1 * np.cos(2 * x)))
    new, _ = step_imex(state, c, dt)
    S_ref, I_ref = reference_step(state, c, dt)
    assert np.abs(new.S.values - S_ref).max() <= 1e-12
    assert np.abs(new.I.values - I_ref).max() <= 1e-12


def test_fixed_dt_run_factors_each_operator_once(monkeypatch):
    built = []

    def counting(dom, reaction, diffusion):
        built.append(diffusion)
        return shifted_operator(dom, reaction, diffusion)

    monkeypatch.setattr(grid, "shifted_operator", counting)
    dom, c = make(d_S=0.1, d_I=0.05)
    state = SimState(dom.field(0.8), dom.field(0.2))
    _, summary = run(state, c, t_final=100.0, dt_max=0.05, max_steps=25)
    assert summary.steps == 25
    assert sorted(built) == [0.05, 0.1]


def test_run_owns_one_factor_per_operator_and_frees_them(factor_log, monkeypatch):
    step_dts = []
    real_step = dynamics.step_imex

    def recording_step(state, c, dt, **kw):
        step_dts.append(dt)
        return real_step(state, c, dt, **kw)

    monkeypatch.setattr(dynamics, "step_imex", recording_step)
    c, state = stiff_start()
    _, summary = run(state, c, t_final=100.0, max_steps=40)
    assert summary.steps == 40 and summary.rejected > 0
    # rejections at the cap change dt on some tries, and dt repeats on others
    new_dts = 1 + sum(a != b for a, b in zip(step_dts, step_dts[1:]))
    assert 1 < new_dts < len(step_dts)
    # one factorization per operator and new dt, each after its predecessor was freed
    assert sorted(factor_log.builds) == [(0.05, 0)] * new_dts + [(0.1, 0)] * new_dts
    assert factor_log.live == {0.05: 0, 0.1: 0}


def test_run_reaches_constant_equilibrium():
    dom, c = make()  # Lambda=2, beta=1, gamma=eta=0.5: EE = (1, 2)
    state = SimState(dom.field(0.8), dom.field(0.2))
    final, summary = run(state, c, steady_tol=1e-9, t_final=4000.0)
    assert summary.reason == "steady"
    np.testing.assert_allclose(final.S.values, 1.0, atol=1e-6)
    np.testing.assert_allclose(final.I.values, 2.0, atol=1e-6)
    # total mass settles at int(S + I) = (1 + 2) * |domain|
    assert integrate(dom, final.S.values + final.I.values) == pytest.approx(3.0, abs=1e-5)


def test_run_t_final_stopping():
    dom, c = make()
    state = SimState(dom.field(0.8), dom.field(0.2))
    final, summary = run(state, c, t_final=0.5)
    assert summary.reason == "t_final"
    assert final.t == pytest.approx(0.5, abs=1e-12)


def test_t_final_march_ends_on_t_final_without_a_rounding_sliver(factor_log):
    # 100 steps of 0.4 add up to 39.99999999999992: the 7.8e-14 left is the
    # clock's rounding, not a step; taken as one, its mass-balance defect
    # (which scales as 1/dt) was 2.1e-3
    dom, c = make(build_domain(DomainSpec.interval(0, 1, 9)))
    final, summary = run(SimState(dom.field(0.8), dom.field(0.2)), c, t_final=40.0)
    assert (summary.reason, summary.steps, summary.rejected) == ("t_final", 100, 0)
    assert final.t == 40.0
    assert len(factor_log.builds) == 2  # the one pair at the cap


def test_run_needs_a_stopping_rule():
    dom, c = make()
    state = SimState(dom.field(0.8), dom.field(0.2))
    with pytest.raises(ValueError):
        run(state, c)


def test_run_max_steps_reason():
    dom, c = make()
    state = SimState(dom.field(0.8), dom.field(0.2))
    _, summary = run(state, c, t_final=100.0, max_steps=5)
    assert summary.reason == "max_steps"
    assert summary.steps == 5


def test_timestep_underflow_on_hopeless_stiffness():
    # explicit transfer removes far more susceptibles than exist at any
    # step size above dt_min, so halving gives up loudly
    dom, c = make(beta=1e9, recruitment=1.0, gamma=0.5, eta=0.5)
    state = SimState(dom.field(0.01), dom.field(1.0))
    with pytest.raises(TimeStepUnderflowError):
        run(state, c, t_final=1.0, dt_min=1e-6)


def test_rejection_shrinks_then_recovers():
    # moderate stiffness: the first steps reject and halve, later steps
    # accept and regrow toward dt_max
    c, state = stiff_start()
    final, summary = run(state, c, t_final=2.0)
    assert summary.rejected > 0
    assert summary.reason == "t_final"
    assert final.S.values.min() > 0.0
    assert final.I.values.min() >= 0.0


def test_snapshot_writer_called():
    dom, c = make()
    state = SimState(dom.field(0.8), dom.field(0.2))
    seen = []
    final, summary = run(state, c, t_final=0.5, on_step=lambda st, k: seen.append((k, st.t)))
    assert [k for k, _ in seen] == list(range(1, summary.steps + 1))
    assert seen[-1][1] == final.t


def test_sublinear_incidence_preserves_positivity():
    dom, c = make(p=0.5, q=1.0, beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0)
    state = SimState(dom.field(0.8), dom.field(0.2))
    final, summary = run(state, c, steady_tol=1e-9, t_final=2000.0)
    assert summary.reason == "steady"
    assert final.I.values.min() > 0.0


def test_mass_conservation_totals_over_run():
    # integrate d/dt int(S+I) over the whole run: the final total mass must
    # equal the initial mass plus the time integral of sources minus sinks,
    # which at steady state pins int(S + eta I) = int(recruitment)
    dom, c = make()
    state = SimState(dom.field(0.8), dom.field(0.2))
    final, _ = run(state, c, steady_tol=1e-10, t_final=4000.0)
    lhs = integrate(dom, final.S.values + c.eta.values * final.I.values)
    rhs = integrate(dom, c.recruitment.values)
    assert abs(lhs - rhs) / rhs <= 1e-8


TOY = build_domain(DomainSpec.interval(0, 1, 3))


def toy_run(monkeypatch, advance, u0=1.0, **controls):
    """:func:`run` on a three-node interval whose steps are ``advance(u, dt) -> u_new``.

    ``dynamics.step_imex`` is replaced by a step that applies ``advance``
    to the constant value ``u`` of S (I stays 0), so the loop's sup change
    is ``|u - u_new|``.  Returns the final ``u``, the final state and the
    summary.
    """

    def step(state, c, dt, *, factors=None):
        u_new = advance(float(state.S.values[0]), dt)
        return SimState(TOY.field(u_new), state.I, state.t + dt), 0.0

    monkeypatch.setattr(dynamics, "step_imex", step)
    _, c = make(TOY)
    state, summary = run(SimState(TOY.field(u0), TOY.field(0.0)), c, **controls)
    return float(state.S.values[0]), state, summary


def test_march_halves_rejected_steps_and_holds_dt(monkeypatch):
    # a clock that rejects its first two tries: the cap and its half are
    # rejected, the quarter is accepted and kept for the next step, and
    # only a step accepted without rejection lets dt grow again
    tried = []

    def advance(u, dt):
        tried.append(dt)
        if len(tried) <= 2:
            raise StepRejected(f"try {len(tried)} rejected")
        return u

    _, state, summary = toy_run(
        monkeypatch, advance, t_final=10.0, dt_max=0.1, max_steps=3
    )
    quarter = 0.025
    grown = quarter * dynamics._DT_GROWTH
    assert tried == pytest.approx([0.1, 0.05, quarter, quarter, grown])
    assert summary.rejected == 2
    assert summary.steps == 3
    assert summary.reason == "max_steps"
    assert state.t == pytest.approx(2 * quarter + grown)


def test_reversing_increments_halve_dt_down_to_its_floor(monkeypatch):
    # a two-step oscillation u = 1, 2, 1, 2, ...: every increment after the
    # first reverses its predecessor, so dt halves from the cap down to
    # dt_max * 2^-4 and holds there
    tried = []

    def advance(u, dt):
        tried.append(dt)
        return 3.0 - u

    _, _, summary = toy_run(monkeypatch, advance, t_final=100.0, dt_max=1.6, max_steps=8)
    assert tried == pytest.approx([1.6, 1.6, 0.8, 0.4, 0.2, 0.1, 0.1, 0.1])
    assert 1.6 * dynamics._REVERSAL_FLOOR == pytest.approx(0.1)
    assert summary.reversals == 4
    assert summary.rejected == 0


STIFF = (16.42, 0.390, 1.701, 0.895, 3.316)  # beta, gamma, eta, q, recruitment


def stiff_transfer():
    beta, gamma, eta, q, lam = STIFF
    return CoefficientSet(
        build_domain(DomainSpec.interval(0, 1, 17)), beta=beta, gamma=gamma, eta=eta,
        recruitment=lam, d_S=0.231, d_I=0.0281, p=1.0, q=q,
    )


def test_stiff_transfer_settles_and_hands_off():
    # explicit transfer on a stiff problem makes the increments alternate
    # in sign; the reversal halving damps it, so the march settles and
    # Newton lands on the closed form S* = ((gamma + eta)/beta)^(1/q),
    # I* = (recruitment - S*)/eta
    beta, gamma, eta, q, lam = STIFF
    c = stiff_transfer()
    eq = find_ee(c, max_steps=2000)
    assert eq.meta["handoff"] == "newton"
    S_star = ((gamma + eta) / beta) ** (1.0 / q)
    np.testing.assert_allclose(eq.S.values, S_star, rtol=1e-10)
    np.testing.assert_allclose(eq.I.values, (lam - S_star) / eta, rtol=1e-10)


def test_every_accepted_dt_is_on_the_ladder(monkeypatch):
    # rejections and reversals only halve and regrowth only doubles, so on
    # the stiff march every accepted dt is exactly dt_max 2^-j, apart from
    # the last one, clipped to end on t_final
    accepted = []
    real_step = dynamics.step_imex

    def recording_step(state, c, dt, **kw):
        out = real_step(state, c, dt, **kw)
        accepted.append(dt)
        return out

    monkeypatch.setattr(dynamics, "step_imex", recording_step)
    c = stiff_transfer()
    init = SimState(c.domain.field(0.8), c.domain.field(0.2))
    final, summary = run(init, c, t_final=3.3, max_steps=2000)
    assert summary.reason == "t_final" and final.t == pytest.approx(3.3, abs=1e-14)
    assert summary.rejected > 0 and summary.reversals > 0
    ladder = {0.4 * 2.0**-j for j in range(60)}
    assert set(accepted[:-1]) <= ladder
    assert accepted[-1] not in ladder


@pytest.mark.parametrize("name, most_steps", [("scenario1", 60), ("scenario2", 300)])
def test_shipped_configs_march_at_the_cap(name, most_steps, factor_log, tmp_path, monkeypatch):
    # started at dt_max, the march never reverses or rejects on the shipped
    # configs, so it builds one scalar factor per operator
    summaries = []
    real = equilibrium.run

    def recording_run(state, c, **kwargs):
        state, summary = real(state, c, **kwargs)
        summaries.append(summary)
        return state, summary

    monkeypatch.setattr(equilibrium, "run", recording_run)
    cfg = load_scenario(CONFIG_DIR / f"{name}.json")
    run_scenario(cfg, tmp_path / name)
    (summary,) = summaries
    assert summary.steps <= most_steps
    assert (summary.reversals, summary.rejected) == (0, 0)
    assert sorted(key for key, _ in factor_log.builds) == sorted([cfg.d_S, cfg.d_I])


def test_clean_march_factors_each_operator_once_per_ladder_level(factor_log, monkeypatch):
    # a large infected start loses positivity at the cap, so dt halves down
    # the ladder; once the transient passes, dt doubles back, the inverse of
    # the halving, and stays at the cap.  However many steps the march
    # takes, it factors each of its two operators once per level on the way
    # down and once on the way up: 0.4, 0.2, 0.1, 0.05, 0.025 and back
    tried = []
    real_step = dynamics.step_imex

    def recording_step(state, c, dt, **kw):
        tried.append(dt)
        return real_step(state, c, dt, **kw)

    monkeypatch.setattr(dynamics, "step_imex", recording_step)
    dom, c = make(d_S=0.1, d_I=0.05)
    state = SimState(dom.field(2.0), dom.field(20.0))
    _, summary = run(state, c, t_final=1000.0, max_steps=120)
    assert summary.steps == 120 and summary.rejected > 0
    levels = sorted(set(tried), reverse=True)
    assert levels == [0.4 * 2.0**-j for j in range(len(levels))] and len(levels) > 2
    assert tried[-100:] == [0.4] * 100
    assert len(factor_log.builds) == 2 * (2 * len(levels) - 1)


def test_march_underflow_is_a_nonconvergence_error(monkeypatch):
    def advance(u, dt):
        raise StepRejected("always")

    with pytest.raises(NonConvergenceError) as info:
        toy_run(monkeypatch, advance, t_final=1.0, dt_min=1e-3)
    assert isinstance(info.value, TimeStepUnderflowError)


def test_run_holds_one_factor_pair_and_frees_it_before_the_next(factor_log):
    # the loop keeps exactly one factor of each operator while it steps,
    # and none once it returns
    c, state = stiff_start()
    live = []
    _, summary = run(
        state, c, t_final=100.0, max_steps=10,
        on_step=lambda s, k: live.append(dict(factor_log.live)),
    )
    assert summary.rejected > 0
    assert live == [{0.1: 1, 0.05: 1}] * 10
    assert factor_log.live == {0.1: 0, 0.05: 0}
    # rejections at the cap change dt, and each new pair is built only
    # after the old one was freed
    assert len(factor_log.builds) > 2
    assert all(alive == 0 for _, alive in factor_log.builds)


class _PoisonedFactor:
    """A factor whose solves set their middle entry to ``value``."""

    def __init__(self, lu, value):
        self.lu, self.value = lu, value

    def solve(self, b):
        x = self.lu.solve(b)
        x[len(x) // 2] = self.value
        return x


@pytest.mark.parametrize("species", ["S", "I"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_solve_output_raises_the_field_error(species, value, monkeypatch):
    dom, c = make()
    poisoned = {"S": c.d_S, "I": c.d_I}[species]

    def factor(dom, reaction, diffusion):
        lu = grid.shifted_factor(dom, reaction, diffusion)
        return _PoisonedFactor(lu, value) if diffusion == poisoned else lu

    monkeypatch.setattr(dynamics, "shifted_factor", factor)
    state = SimState(dom.field(0.8), dom.field(0.2))
    # a step taken alone, and the steps of a run, which hold their factors
    with pytest.raises(ValueError, match="field contains non-finite values"):
        step_imex(state, c, 0.05)
    with pytest.raises(ValueError, match="field contains non-finite values"):
        run(state, c, t_final=0.5)


def test_mass_balance_violation_is_typed(monkeypatch):
    monkeypatch.setattr(dynamics, "MASS_BALANCE_RTOL", -1.0)
    dom, c = make()
    state = SimState(dom.field(0.8), dom.field(0.2))
    with pytest.raises(MassBalanceError, match="mass-balance defect"):
        run(state, c, t_final=0.5)


def relax(u, dt):
    # implicit Euler on u' = -u, rejecting steps above 0.07 so that the
    # march halves and regrows dt; the rate change/dt is u_new
    if dt > 0.07:
        raise StepRejected(f"dt {dt} too large")
    return u / (1.0 + dt)


def offered(answer):
    """A hand-off that records the ``u`` and state it is offered, and answers ``answer``."""
    calls = []

    def handoff(state, summary):
        calls.append((float(state.S.values[0]), state, summary))
        return answer

    handoff.calls = calls
    return handoff


def plain_relax_march(monkeypatch, **controls):
    """A march without hand-off, its final state and summary, and ``u`` after each step."""
    us = []
    u, state, summary = toy_run(
        monkeypatch, relax, on_step=lambda s, k: us.append(float(s.S.values[0])), **controls
    )
    return u, state, summary, us


def first_loose_step(us):
    # relax's rate change/dt equals its new value
    return next(k for k, v in enumerate(us, start=1) if v < 1e-2)


def test_march_offers_the_handoff_once_at_the_loose_steady_test(monkeypatch):
    _, _, plain, us = plain_relax_march(monkeypatch, steady_tol=1e-6)
    first = first_loose_step(us)
    assert plain.rejected > 0 and plain.steps > first
    handoff = offered(False)
    toy_run(monkeypatch, relax, steady_tol=1e-6, handoff=handoff)
    assert len(handoff.calls) == 1
    u, _, summary = handoff.calls[0]
    assert u == us[first - 1]
    # the summary is the one the march would return if it stopped there
    assert summary.steps == first
    assert (summary.reason, summary.handoff) == ("steady", None)


def test_refused_handoff_leaves_the_march_unchanged(monkeypatch):
    u_plain, plain_state, plain, _ = plain_relax_march(monkeypatch, steady_tol=1e-6)
    seen = []
    u, state, summary = toy_run(
        monkeypatch, relax, steady_tol=1e-6, handoff=offered(False),
        on_step=lambda s, k: seen.append(k),
    )
    assert (u, summary.steps, summary.rejected, state.t) == (
        u_plain, plain.steps, plain.rejected, plain_state.t
    )
    assert (summary.reason, summary.handoff) == ("steady", "resumed")
    # on_step numbers run on across the hand-off
    assert seen == list(range(1, plain.steps + 1))


def test_accepted_handoff_stops_the_march_at_that_step(monkeypatch):
    first = first_loose_step(plain_relax_march(monkeypatch, steady_tol=1e-6)[3])
    handoff = offered(True)
    u, state, summary = toy_run(monkeypatch, relax, steady_tol=1e-6, t_final=100.0, handoff=handoff)
    offered_u, offered_state, offered_summary = handoff.calls[0]
    assert u == offered_u and state is offered_state
    assert summary.steps == first
    assert (summary.steps, summary.rejected) == (offered_summary.steps, offered_summary.rejected)
    assert (summary.reason, summary.handoff) == ("steady", "newton")


@pytest.mark.parametrize("answer, handoff_result", [(True, "newton"), (False, "resumed")])
def test_march_started_at_its_steady_state_still_hands_off(answer, handoff_result, monkeypatch):
    # the first step passes both tests; the hand-off is offered before the steady test
    handoff = offered(answer)
    u, _, summary = toy_run(monkeypatch, relax, 0.0, steady_tol=1e-9, handoff=handoff)
    assert len(handoff.calls) == 1
    assert (u, summary.steps, summary.reason, summary.handoff) == (0.0, 1, "steady", handoff_result)


@pytest.mark.parametrize(
    "controls",
    [{"t_final": 20.0}, {"steady_tol": 1e-2}, {"steady_tol": 0.5}],
    ids=["no-steady-test", "steady-tol-at-handoff", "steady-tol-above-handoff"],
)
def test_march_offers_no_handoff_without_a_tighter_steady_test(controls, monkeypatch):
    handoff = offered(True)
    u, state, summary = toy_run(monkeypatch, relax, handoff=handoff, **controls)
    plain_u, plain_state, plain = toy_run(monkeypatch, relax, **controls)
    assert handoff.calls == []
    assert summary.handoff is None
    assert (u, state.t, summary) == (plain_u, plain_state.t, plain)
