"""Scenario JSON loading: validation, defaults, and the shipped configs."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from oracles import nearest_node

from sisrd.scenario import ConfigError, ScenarioConfig, load_scenario

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def base_config() -> dict:
    return {
        "version": 1,
        "name": "unit-test",
        "domain": {"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 17},
        "coefficients": {"beta": "2", "gamma": "1", "eta": "1", "lambda": "1"},
        "params": {"d_S": 0.1, "d_I": 0.05, "p": 1, "q": 1},
        "initial": {"S": "0.8", "I": "0.2"},
        "stopping": {"steady_tol": 1e-9, "t_final": 400.0},
    }


def expect_error(data: dict, fragment: str):
    with pytest.raises(ConfigError, match=fragment):
        ScenarioConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = ScenarioConfig.from_dict(base_config())
    assert cfg.name == "unit-test"
    assert cfg.recruitment == "1"
    assert cfg.controls == {"steady_tol": 1e-9, "t_final": 400.0}
    assert cfg.snapshot_every == 0
    assert cfg.mask_deltas == (1e-2, 1e-4)
    assert cfg.zero_infection_tol == 1e-2
    assert cfg.sigma is None


def test_numbers_accepted_for_formulas():
    data = base_config()
    data["coefficients"]["beta"] = 2  # JSON number instead of string
    data["initial"]["I"] = 0.25
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.beta == "2.0"
    assert cfg.initial_I == "0.25"
    dom = cfg.build_domain()
    c = cfg.build_coefficients(dom)
    np.testing.assert_array_equal(c.beta.values, 2.0)


def test_realization_builds_fields_and_state():
    data = base_config()
    data["coefficients"]["beta"] = "2 + sin(2*pi*x)"
    data["initial"]["S"] = "0.5 + 0.25*x"
    cfg = ScenarioConfig.from_dict(data)
    dom = cfg.build_domain()
    c = cfg.build_coefficients(dom)
    np.testing.assert_allclose(c.beta.values, 2.0 + np.sin(2 * np.pi * dom.coords))
    state = cfg.initial_state(dom)
    np.testing.assert_allclose(state.S.values, 0.5 + 0.25 * dom.coords)
    np.testing.assert_array_equal(state.I.values, 0.2)


def test_stepping_and_outputs_blocks():
    data = base_config()
    data["stepping"] = {"dt_init": 0.005, "dt_max": 0.2}
    data["outputs"] = {
        "snapshot_every": 7,
        "mask_deltas": [0.1],
        "zero_infection_tol": 0.05,
    }
    data["sigma"] = 3.5
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.controls == {
        "steady_tol": 1e-9,
        "t_final": 400.0,
        "dt_init": 0.005,
        "dt_max": 0.2,
    }
    assert cfg.snapshot_every == 7
    assert cfg.mask_deltas == (0.1,)
    assert cfg.zero_infection_tol == 0.05
    assert cfg.sigma == 3.5


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    cfg = load_scenario(path)
    assert cfg.name == "unit-test"
    assert cfg == ScenarioConfig.from_dict(base_config())


# ---------------------------------------------------------------------------
# Rejections
# ---------------------------------------------------------------------------


def test_rejects_unknown_keys_everywhere():
    data = base_config()
    data["extra"] = 1
    expect_error(data, "unknown key")

    data = base_config()
    data["domain"]["cell_size"] = 0.1  # interval does not take cell_size
    expect_error(data, "unknown key")

    data = base_config()
    data["coefficients"]["mu"] = "1"
    expect_error(data, "unknown key")

    data = base_config()
    data["stopping"]["tolerance"] = 1e-8
    expect_error(data, "unknown key")

    data = base_config()
    data["outputs"] = {"newton_refine": True}
    expect_error(data, "unknown key")


def test_rejects_bad_version():
    data = base_config()
    data["version"] = 2
    expect_error(data, "version")
    del data["version"]
    expect_error(data, "version")


def test_rejects_missing_blocks():
    for key in ("domain", "coefficients", "params", "initial", "stopping"):
        data = base_config()
        del data[key]
        expect_error(data, key)


def test_rejects_exponents_out_of_range():
    for p in (0, -0.5, 1.5):
        data = base_config()
        data["params"]["p"] = p
        expect_error(data, "params.p")
    data = base_config()
    data["params"]["q"] = 0
    expect_error(data, "params.q")


def test_rejects_nonpositive_diffusion():
    data = base_config()
    data["params"]["d_I"] = 0
    expect_error(data, "positive")


def test_rejects_y_on_interval_domain():
    data = base_config()
    data["coefficients"]["beta"] = "1 + y"
    expect_error(data, "one-dimensional")


def test_rejects_malformed_formula():
    data = base_config()
    data["coefficients"]["gamma"] = "1 + * 2"
    expect_error(data, "bad formula")


def test_rejects_empty_stopping():
    data = base_config()
    data["stopping"] = {}
    expect_error(data, "stopping")
    data["stopping"] = {"t_final": None}
    expect_error(data, "stopping")


def test_rejects_nonpositive_controls():
    for block, key in (
        ("stopping", "steady_tol"),
        ("stopping", "t_final"),
        ("stepping", "dt_init"),
        ("stepping", "dt_max"),
        ("stepping", "dt_min"),
    ):
        for value in (-0.1, 0, "0.1", True):
            data = base_config()
            data.setdefault(block, {})[key] = value
            expect_error(data, f"{block}.{key}")


def test_null_control_is_unset():
    data = base_config()
    data["stopping"]["t_final"] = None
    data["stepping"] = {"dt_max": None, "dt_init": 0.02}
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.controls == {"steady_tol": 1e-9, "dt_init": 0.02}


def test_rejects_bad_mask_deltas():
    for deltas in ([-0.1], [0.1, 0], "0.1", [True]):
        data = base_config()
        data["outputs"] = {"mask_deltas": deltas}
        expect_error(data, "mask_deltas")


def test_rejects_bad_snapshot_every():
    for value in (2.7, 3.0, -4, "x", True, None):
        data = base_config()
        data["outputs"] = {"snapshot_every": value}
        expect_error(data, "snapshot_every")


def test_rejects_non_integer_domain_sizes():
    for value in (17.9, 17.0, "17", True, None):
        data = base_config()
        data["domain"]["nodes"] = value
        expect_error(data, "nodes must be an integer")
    rect = {"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1]}
    for shape in ([9, 9.5], [9, "9"], [True, 9]):
        data = base_config()
        data["domain"] = {**rect, "shape": shape}
        expect_error(data, "shape must be an integer")
    for shape in ([9], [9, 9, 9], 9, "99"):
        data = base_config()
        data["domain"] = {**rect, "shape": shape}
        expect_error(data, "shape must be two integers")


def test_rejects_nonpositive_zero_infection_tol():
    for value in (-1, 0, 0.0, "0.1", True):
        data = base_config()
        data["outputs"] = {"zero_infection_tol": value}
        expect_error(data, "zero_infection_tol")


def test_rejects_bad_domain_kind():
    data = base_config()
    data["domain"] = {"kind": "annulus"}
    expect_error(data, "kind")


def test_rejects_nonpositive_sigma():
    data = base_config()
    data["sigma"] = -2.0
    expect_error(data, "sigma")


def test_initial_state_positivity_rules():
    data = base_config()
    data["initial"]["S"] = "x - 0.5"  # negative on the left half
    cfg = ScenarioConfig.from_dict(data)
    with pytest.raises(ConfigError, match="initial.S"):
        cfg.initial_state(cfg.build_domain())

    data = base_config()
    data["initial"]["I"] = "0 - 0.1"
    cfg = ScenarioConfig.from_dict(data)
    with pytest.raises(ConfigError, match="initial.I"):
        cfg.initial_state(cfg.build_domain())

    # I = 0 is fine for p = 1 but not for p < 1
    data = base_config()
    data["initial"]["I"] = "0"
    cfg = ScenarioConfig.from_dict(data)
    cfg.initial_state(cfg.build_domain())
    data["params"]["p"] = 0.5
    cfg = ScenarioConfig.from_dict(data)
    with pytest.raises(ConfigError, match="p < 1"):
        cfg.initial_state(cfg.build_domain())


def test_load_scenario_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(bad)


# ---------------------------------------------------------------------------
# Shipped configs
# ---------------------------------------------------------------------------


def test_shipped_sinusoidal_disk_config():
    cfg = load_scenario(CONFIG_DIR / "scenario1.json")
    assert cfg.domain_spec.kind == "disk"
    assert cfg.p == 1.0 and cfg.q == 0.5
    assert cfg.sigma == 2.0
    assert cfg.mask_deltas == (0.01, 0.0001)
    dom = cfg.build_domain()
    c = cfg.build_coefficients(dom)
    # transmission peaks near (0.5, 0.5) and (-0.5, -0.5), dips near the
    # anti-diagonal peaks; gamma = eta = 1 everywhere
    i = nearest_node(dom, (0.5, 0.5))
    x, y = dom.coords[i]
    assert c.beta.values[i] == pytest.approx(
        3.0 + 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y), abs=1e-14
    )
    assert c.beta.values[i] == pytest.approx(5.0, abs=0.02)
    j = nearest_node(dom, (-0.5, 0.5))
    assert c.beta.values[j] == pytest.approx(1.0, abs=0.02)
    np.testing.assert_array_equal(c.gamma.values, 1.0)
    np.testing.assert_array_equal(c.eta.values, 1.0)
    # risk ceiling h^(1/q) = ((gamma+eta)/beta)^2 spans [about 0.16, about 4]
    ceiling = c.risk_ceiling()
    assert ceiling.min() == pytest.approx(0.16, abs=5e-3)
    assert ceiling.max() == pytest.approx(4.0, abs=0.1)


def test_shipped_piecewise_disk_config():
    cfg = load_scenario(CONFIG_DIR / "scenario2.json")
    dom = cfg.build_domain()
    c = cfg.build_coefficients(dom)
    np.testing.assert_array_equal(c.beta.values, 0.5)
    np.testing.assert_array_equal(c.eta.values, 0.1)
    gamma = c.gamma.values
    # the factor f equals 0.5 exactly for 0 < x <= 0.25, so the plateau value
    # 0.25 is attained exactly at nodes inside (0, 0.25]^2
    assert gamma.min() == 0.25
    k = nearest_node(dom, (0.125, 0.125))
    assert gamma[k] == 0.25
    # just left of 0: f = 0.5 + 0.4 x^2 slightly above the plateau
    m = nearest_node(dom, (-0.015625, 0.125))
    assert gamma[m] == pytest.approx(0.5 * (0.5 + 0.4 * 0.015625**2), abs=1e-15)
    assert gamma[m] > 0.25
    # near the isolated minimum line x = 0.625 the grid sees f slightly > 0.5
    n = nearest_node(dom, (0.625, 0.125))
    xn = dom.coords[n, 0]
    assert gamma[n] == pytest.approx(0.5 * (0.5 + 1.6 * (xn - 0.625) ** 2), abs=1e-15)
    # minimal risk h = (gamma + eta)/beta = 0.7 on the plateau
    assert c.risk().min() == pytest.approx(0.7, abs=1e-14)


def test_shipped_configs_have_matching_stopping_rules():
    for name in ("scenario1.json", "scenario2.json"):
        cfg = load_scenario(CONFIG_DIR / name)
        assert cfg.controls == {"steady_tol": 1e-9, "t_final": 4000.0}
        assert cfg.zero_infection_tol == 0.01
