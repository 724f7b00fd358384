"""Artifact-writing scenario driver and diffusion sweeps."""

import json

import numpy as np
import pytest
from oracles import interior_max

from sisrd import dynamics, equilibrium, harness
from sisrd.coefficients import CoefficientSet
from sisrd.dynamics import MASS_BALANCE_RTOL, TimeStepUnderflowError, run
from sisrd.grid import DomainSpec, build_domain, erode_mask
from sisrd.harness import (
    SWEEP_HEADER,
    check_trend,
    compare_fields,
    field_distances,
    run_scenario,
    sweep,
)
from sisrd.scenario import ScenarioConfig
from sisrd.solvers import NonConvergenceError

GOLDEN_S = 0.6180339887498949
GOLDEN_I = 0.3819660112501051


def rect_scenario_dict() -> dict:
    """9x9 mass-action square with constant coefficients; EE = (1, 2)."""
    return {
        "version": 1,
        "name": "rect-mass-action",
        "domain": {
            "kind": "rectangle",
            "x_range": [0, 1],
            "y_range": [0, 1],
            "shape": [9, 9],
        },
        "coefficients": {"beta": "1", "gamma": "0.5", "eta": "0.5", "lambda": "2"},
        "params": {"d_S": 0.1, "d_I": 0.05, "p": 1, "q": 1},
        "initial": {"S": "0.8", "I": "0.2"},
        "stopping": {"steady_tol": 1e-9, "t_final": 400.0},
    }


def golden_1d(d_S=0.1, d_I=0.05):
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    return CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=d_S, d_I=d_I, p=0.5, q=1.0,
    )


def mass_action_1d(d_S=0.1, d_I=0.05):
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    return CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=2.0,
        d_S=d_S, d_I=d_I, p=1.0, q=1.0,
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def test_field_distances_by_hand():
    dom = build_domain(DomainSpec.interval(0, 1, 5))
    a = np.array([1.0, 0.0, 0.0, 0.0, 2.0])
    b = np.zeros(5)
    sup, l1 = field_distances(dom, a, b)
    assert sup == 2.0
    # trapezoid weights 0.25*[1/2, 1, 1, 1, 1/2]
    assert l1 == pytest.approx(0.25 * (0.5 * 1.0 + 0.5 * 2.0), abs=1e-15)


def test_interior_max_erodes_a_collar():
    dom = build_domain(DomainSpec.interval(0, 1, 11))
    mask = np.zeros(11, dtype=bool)
    mask[2:9] = True
    values = np.arange(11, dtype=float)
    # two erosion layers strip nodes 2,3 and 7,8, leaving 4..6
    assert interior_max(dom, mask, values) == 6.0
    assert interior_max(dom, mask, values, erode_cells=0) == 8.0


def test_interior_max_empty_region_is_zero():
    dom = build_domain(DomainSpec.interval(0, 1, 11))
    mask = np.zeros(11, dtype=bool)
    mask[5] = True  # eroding a single node leaves nothing
    assert interior_max(dom, mask, np.full(11, 9.9)) == 0.0


def test_check_trend_cases():
    assert check_trend([3.0, 2.0, 1.0]) == []
    assert check_trend([1.0, 2.0]) == [0]
    assert check_trend([1.0, 1.05]) == []  # within multiplicative slack
    assert check_trend([1e-12, 2e-12]) == []  # under the additive floor
    assert check_trend([1.0, float("nan")]) == [0]
    assert check_trend([float("nan"), 1.0]) == [0]


def test_compare_fields_checks_meshes():
    dom = build_domain(DomainSpec.interval(0, 1, 9))
    vals = np.linspace(0, 1, 9)
    out = compare_fields(dom, dom.coords, vals, dom.coords, vals + 0.5)
    assert out["sup"] == pytest.approx(0.5)
    assert out["n_nodes"] == 9
    with pytest.raises(ValueError, match="different meshes"):
        compare_fields(dom, dom.coords, vals, dom.coords + 1e-6, vals)
    with pytest.raises(ValueError, match="length"):
        compare_fields(dom, dom.coords[:5], vals[:5], dom.coords[:5], vals[:5])
    # same node count as the config's mesh, but saved on a larger square
    unit = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (5, 5)))
    big = build_domain(DomainSpec.rectangle((0, 2), (0, 2), (5, 5)))
    ones = np.ones(big.n_nodes)
    with pytest.raises(ValueError, match="config's mesh"):
        compare_fields(unit, big.coords, ones, big.coords, 2 * ones)


# ---------------------------------------------------------------------------
# Scenario driver
# ---------------------------------------------------------------------------


def test_run_scenario_artifacts(tmp_path):
    cfg = ScenarioConfig.from_dict(rect_scenario_dict())
    art = run_scenario(cfg, tmp_path / "out")
    expected = {
        "S.csv",
        "I.csv",
        "coincidence_mask_0.csv",
        "coincidence_mask_1.csv",
        "zero_infection_mask.csv",
        "summary.json",
    }
    assert set(art.paths) == expected
    for p in art.paths.values():
        assert p.exists()

    s = art.summary
    assert s["name"] == "rect-mass-action"
    assert s["domain"]["kind"] == "rectangle" and s["domain"]["n_nodes"] == 81
    assert s["params"]["sigma"] == pytest.approx(0.5)
    assert s["reason"] == "steady" and s["converged_steady"]
    assert s["endemic"]
    assert s["residual_S"] <= 1e-9 and s["residual_I"] <= 1e-9
    assert s["conservation_gap"] <= 1e-9
    assert s["min_S"] == pytest.approx(1.0, abs=1e-6)
    assert s["max_I"] == pytest.approx(2.0, abs=1e-6)
    assert s["mass_S"] == pytest.approx(1.0, abs=1e-6)
    assert s["mass_I"] == pytest.approx(2.0, abs=1e-6)
    # at this equilibrium S equals the ceiling h = 1 exactly, so every node
    # coincides at both deltas; I = 2 is far from zero everywhere
    assert s["coincidence_counts"] == [81, 81]
    assert s["zero_infection_count"] == 0

    saved = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert saved == s


def test_run_scenario_writes_a_march_stopped_by_t_final(tmp_path):
    # a march that ends on t_final is written out unpolished, not raised
    data = rect_scenario_dict()
    data["stopping"] = {"t_final": 0.5}
    art = run_scenario(ScenarioConfig.from_dict(data), tmp_path / "out")
    assert set(art.paths) == {
        "S.csv",
        "I.csv",
        "coincidence_mask_0.csv",
        "coincidence_mask_1.csv",
        "zero_infection_mask.csv",
        "summary.json",
    }
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert s["converged_steady"] is False and s["reason"] == "t_final"
    assert s["final_t"] == pytest.approx(0.5)
    assert s["newton_iterations"] == 0


def test_run_scenario_is_byte_reproducible(tmp_path):
    cfg = ScenarioConfig.from_dict(rect_scenario_dict())
    a = run_scenario(cfg, tmp_path / "a")
    b = run_scenario(cfg, tmp_path / "b")
    for name, pa in a.paths.items():
        assert pa.read_bytes() == b.paths[name].read_bytes(), name


def test_run_scenario_snapshots(tmp_path):
    data = rect_scenario_dict()
    data["outputs"] = {"snapshot_every": 10}
    cfg = ScenarioConfig.from_dict(data)
    art = run_scenario(cfg, tmp_path / "snap")
    s_snaps = sorted(n for n in art.paths if n.startswith("S_"))
    i_snaps = sorted(n for n in art.paths if n.startswith("I_"))
    assert s_snaps and len(s_snaps) == len(i_snaps)
    assert len(s_snaps) == art.summary["steps"] // 10
    assert all(n.endswith(".csv") for n in s_snaps)


@pytest.mark.parametrize("every", [0, 50])
def test_march_gets_a_step_callback_only_for_snapshots(every, tmp_path, monkeypatch):
    real = equilibrium.run
    callbacks = []

    def recording_run(state, c, **kwargs):
        callbacks.append(kwargs.get("on_step"))
        return real(state, c, **kwargs)

    monkeypatch.setattr(equilibrium, "run", recording_run)
    data = rect_scenario_dict()
    data["outputs"] = {"snapshot_every": every}
    run_scenario(ScenarioConfig.from_dict(data), tmp_path / "out")
    assert len(callbacks) == 1
    assert (callbacks[0] is not None) == (every > 0)


def test_resumed_march_keeps_counting_snapshots_and_summary(tmp_path, newton_stall_once):
    data = rect_scenario_dict()
    data["outputs"] = {"snapshot_every": 7}
    cfg = ScenarioConfig.from_dict(data)
    # the first Newton attempt stalls, so the march resumes to steady_tol
    art = run_scenario(cfg, tmp_path / "resumed")
    assert len(newton_stall_once) == 2
    s = art.summary
    handed_off = run_scenario(cfg, tmp_path / "handoff").summary
    assert set(s) == set(handed_off)
    # both legs together are the plain march to steady_tol
    dom = cfg.build_domain()
    state, summary = run(cfg.initial_state(dom), cfg.build_coefficients(dom), **cfg.controls)
    assert s["steps"] > handed_off["steps"]
    assert (s["steps"], s["rejected"], s["final_t"]) == (summary.steps, summary.rejected, state.t)
    # snapshot numbers run on through the second leg: none is overwritten
    expected = [f"{k:06d}" for k in range(7, summary.steps + 1, 7)]
    assert sorted(n[2:8] for n in art.paths if n.startswith("S_")) == expected
    assert sorted(n[2:8] for n in art.paths if n.startswith("I_")) == expected
    assert sorted(p.name for p in (tmp_path / "resumed").glob("S_*.csv")) == [
        f"S_{k}.csv" for k in expected
    ]


def test_run_scenario_cleans_up_on_failure(tmp_path):
    data = rect_scenario_dict()
    data["coefficients"]["beta"] = "1000000000"
    data["stepping"] = {"dt_min": 1e-6}
    data["outputs"] = {"snapshot_every": 1}
    cfg = ScenarioConfig.from_dict(data)
    out = tmp_path / "doomed"
    with pytest.raises(TimeStepUnderflowError):
        run_scenario(cfg, out)
    assert list(out.iterdir()) == []


def test_run_scenario_removes_the_files_it_wrote_on_a_later_failure(tmp_path, monkeypatch):
    # the third write fails once S.csv and I.csv exist; both are removed
    written = []
    real_write = harness.write_field_csv

    def failing_write(path, field):
        if len(written) == 2:
            raise OSError("disk full")
        real_write(path, field)
        written.append(path.name)

    monkeypatch.setattr(harness, "write_field_csv", failing_write)
    out = tmp_path / "doomed"
    with pytest.raises(OSError, match="disk full"):
        run_scenario(ScenarioConfig.from_dict(rect_scenario_dict()), out)
    assert written == ["S.csv", "I.csv"]
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_schedule_validation():
    c = golden_1d()
    with pytest.raises(ValueError, match="decreasing"):
        sweep(c, "d_I", [0.1, 0.1])
    with pytest.raises(ValueError, match="positive"):
        sweep(c, "d_I", [0.1, -0.01])
    with pytest.raises(ValueError, match="positive"):
        sweep(c, "d_I", [0.1, 0.0])
    with pytest.raises(ValueError, match="empty"):
        sweep(c, "d_I", [])
    with pytest.raises(ValueError, match="regime"):
        sweep(c, "sideways", [0.1])


@pytest.mark.parametrize("name", ["d_S", "d_I", "q"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_coefficients_refuse_non_finite_scalars(name, value):
    dom = build_domain(DomainSpec.interval(0, 1, 9))
    params = dict(beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0, d_S=0.1, d_I=0.05, p=1.0, q=1.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CoefficientSet(dom, **{**params, name: value})


@pytest.mark.parametrize("name", ["d_S", "d_I"])
def test_coefficients_accept_zero_diffusion_and_refuse_negative(name):
    # a zero rate is a one-field limit problem; non-finite rates are refused above
    dom = build_domain(DomainSpec.interval(0, 1, 9))
    params = dict(beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0, d_S=0.1, d_I=0.05, p=1.0, q=1.0)
    assert getattr(CoefficientSet(dom, **{**params, name: 0.0}), name) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        CoefficientSet(dom, **{**params, name: -1e-3})


@pytest.mark.parametrize("values, sigma", [([np.inf, 0.02], 2.0), ([0.05, 0.02], np.inf)])
def test_sweep_refuses_infinite_diffusion(values, sigma):
    # an infinite rate would otherwise reach the march as a singular factor
    with pytest.raises(ValueError, match="must be finite"):
        sweep(mass_action_1d(), "joint", values, sigma=sigma)


def test_sweep_small_di_sublinear(tmp_path):
    # constant coefficients: the equilibrium and the limit profile are both
    # the golden pair, so every distance sits at the numerical floor
    c = golden_1d()
    out = tmp_path / "sweep.csv"
    res = sweep(c, "d_I", [0.05, 0.02], out_csv=out)
    assert res.regime == "d_I"
    assert res.violations == {}
    assert len(res.rows) == 2
    for row in res.rows:
        assert row["eq"].endemic
        assert row["dist_S_sup"] <= 1e-7
        assert row["dist_I_sup"] <= 1e-7
        assert np.isnan(row["R0"])  # undefined for sublinear incidence
        assert row["seconds"] > 0.0

    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    first = dict(zip(SWEEP_HEADER.split(","), lines[1].split(",")))
    assert float(first["d_S"]) == 0.1
    assert float(first["d_I"]) == 0.05
    assert first["R0"] == "nan"


def test_sweep_small_ds_mass_action():
    c = mass_action_1d()
    res = sweep(c, "d_S", [0.05, 0.02])
    assert res.violations == {}
    for row, expect_ds in zip(res.rows, [0.05, 0.02]):
        assert row["d_S"] == expect_ds
        assert row["d_I"] == 0.05  # fixed at the base value
        assert row["dist_S_sup"] <= 1e-6
        assert row["R0"] == pytest.approx(2.0, abs=1e-8)


def test_sweep_joint_closed_form():
    c = mass_action_1d()
    res = sweep(c, "joint", [0.05, 0.02], sigma=2.0)
    assert res.sigma == 2.0
    assert res.oracle.meta["closed_form"]
    for row, v in zip(res.rows, [0.05, 0.02]):
        assert row["d_S"] == v and row["d_I"] == pytest.approx(2.0 * v)
        assert row["dist_S_sup"] <= 1e-6
        assert row["dist_I_sup"] <= 1e-6


def test_sweep_joint_below_threshold_measures_envelope_excess():
    # sigma < eta: the oracle has envelopes only, and each row's distances
    # are how far the equilibrium lies outside them
    dom = build_domain(DomainSpec.interval(-1, 1, 65))
    c = CoefficientSet(
        dom, beta=3 + 2 * np.sin(np.pi * dom.coords), gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=1.0, d_I=1e-3, p=1.0, q=0.5,
    )
    res = sweep(c, "joint", [1e-1, 1e-2, 1e-3], sigma=0.5)
    assert not res.oracle.meta["closed_form"]
    assert res.violations == {}
    I_upper = res.oracle.envelopes["I_upper"].values
    for row in res.rows:
        assert row["dist_S_sup"] == 0.0 and row["dist_S_L1"] == 0.0
        assert row["dist_I_sup"] == pytest.approx(np.max(row["eq"].I.values - I_upper))
    excess = [row["dist_I_sup"] for row in res.rows]
    assert excess[0] > excess[1] > excess[2] > 0.0


def _oracle_errors(oracle, dom, S, I):
    """Per-node S and I errors of an equilibrium against each kind of sweep oracle."""
    if oracle.S_limit is not None:  # closed-form profile
        return np.abs(S - oracle.S_limit.values), np.abs(I - oracle.I_limit.values)
    if "high_risk" in oracle.masks:  # d_I classification at p = 1
        inner = erode_mask(dom, oracle.masks["vanishing"], 2)
        return np.maximum(S - oracle.envelopes["ceiling"].values, 0.0), I * inner
    env = oracle.envelopes  # joint envelopes below the closed-form threshold
    S_inside = np.clip(S, env["S_lower"].values, env["S_upper"].values)
    return np.abs(S - S_inside), np.clip(I - env["I_upper"].values, 0.0, None)


@pytest.mark.parametrize(
    "regime, sigma, kind",
    [("d_I", None, "classification"), ("joint", 2.0, "closed form"), ("joint", 0.5, "envelopes")],
)
def test_sweep_distances_match_an_independent_reduction(regime, sigma, kind):
    dom = build_domain(DomainSpec.interval(-1, 1, 33))
    c = CoefficientSet(
        dom, beta=3 + 2 * np.sin(np.pi * dom.coords), gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=1.0, d_I=1e-3, p=1.0, q=0.5,
    )
    res = sweep(c, regime, [1e-1, 1e-2], sigma=sigma)
    oracle = res.oracle
    assert kind == (
        "closed form" if oracle.S_limit is not None
        else "classification" if "high_risk" in oracle.masks else "envelopes"
    )
    for row in res.rows:
        s_err, i_err = _oracle_errors(oracle, dom, row["eq"].S.values, row["eq"].I.values)
        assert row["dist_S_sup"] == s_err.max()
        assert row["dist_I_sup"] == i_err.max()
        assert row["dist_S_L1"] == np.dot(dom.cell_measures, s_err)
        assert row["dist_I_L1"] == np.dot(dom.cell_measures, i_err)
        assert row["dist_I_sup"] > 0.0 and row["dist_I_L1"] > 0.0


def test_sweep_records_failed_rows(tmp_path, monkeypatch):
    def no_steady_state(c, init=None):
        raise NonConvergenceError("no steady state by t = 0.05 (stopped on t_final)")

    monkeypatch.setattr(harness, "find_ee", no_steady_state)
    c = golden_1d()
    out = tmp_path / "failed.csv"
    res = sweep(c, "d_I", [0.05, 0.02], out_csv=out)
    assert all(row["eq"] is None for row in res.rows)
    assert all("error" in row for row in res.rows)
    assert all(np.isnan(row["dist_S_sup"]) for row in res.rows)
    assert "dist_S_sup" in res.violations  # nan rows are flagged, not skipped
    body = out.read_text().splitlines()[1:]
    assert all("nan" in line for line in body)


def test_sweep_records_a_mass_balance_failure_and_goes_on(tmp_path, monkeypatch):
    # every step of the d_S = 1e4 row reports a defect above the 1e-10 mass
    # balance; that row fails and the next one still solves
    real_step = dynamics.step_imex

    def defective_step(state, c, dt, **kw):
        new, defect = real_step(state, c, dt, **kw)
        return new, (2.0 * MASS_BALANCE_RTOL if c.d_S == 1e4 else defect)

    monkeypatch.setattr(dynamics, "step_imex", defective_step)
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (9, 9)))
    c = CoefficientSet(
        dom, beta=1.0, gamma=0.5, eta=0.5, recruitment=2.0, d_S=1.0, d_I=0.1, p=1.0, q=1.0
    )
    out = tmp_path / "sweep.csv"
    res = sweep(c, "d_S", [1e4, 1.0], out_csv=out)
    failed, solved = res.rows
    assert failed["eq"] is None and "mass-balance defect" in failed["error"]
    assert all(np.isnan(failed[k]) for k in ("dist_S_sup", "dist_I_sup", "gap", "R0"))
    assert "error" not in solved and solved["eq"].endemic
    assert len(out.read_text().splitlines()) == 3


def test_sweep_csv_deterministic_except_seconds(tmp_path):
    c = golden_1d()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    sweep(c, "d_I", [0.05, 0.02], out_csv=a)
    sweep(c, "d_I", [0.05, 0.02], out_csv=b)
    cols = SWEEP_HEADER.split(",")
    for line_a, line_b in zip(a.read_text().splitlines()[1:], b.read_text().splitlines()[1:]):
        row_a = dict(zip(cols, line_a.split(",")))
        row_b = dict(zip(cols, line_b.split(",")))
        for key in cols:
            if key == "seconds":
                continue
            assert row_a[key] == row_b[key], key
