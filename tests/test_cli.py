"""Command-line interface: exit codes, outputs, and artifact writing.

All invocations go through ``main(argv)`` in-process, so coverage and
failure reporting stay inside pytest.
"""

import json

import pytest

from sisrd import dynamics, harness
from sisrd.cli import main
from sisrd.scenario import ConfigError, load_scenario
from sisrd.solvers import NonConvergenceError


def write_config(tmp_path, **tweaks) -> str:
    data = {
        "version": 1,
        "name": "cli-test",
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
    data.update(tweaks)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def value_after(stdout: str, key: str) -> float:
    for token in stdout.replace("\n", " ").split():
        if token.startswith(key + "="):
            return float(token.split("=", 1)[1])
    raise AssertionError(f"{key}= not found in output:\n{stdout}")


def test_r0_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["r0", "--config", cfg]) == 0
    out = capsys.readouterr().out
    # disease-free susceptible profile is 2, so R0 = beta*2/(gamma+eta) = 2
    assert value_after(out, "R0") == pytest.approx(2.0, abs=1e-8)


def test_r0_rejects_sublinear(tmp_path, capsys):
    cfg = write_config(
        tmp_path, params={"d_S": 0.1, "d_I": 0.05, "p": 0.5, "q": 1}
    )
    assert main(["r0", "--config", cfg]) == 1
    assert "p = 1" in capsys.readouterr().err


def test_lambda0_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["lambda0", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert value_after(out, "lambda0") == pytest.approx(-1.0, abs=1e-7)


def test_equilibrium_command_writes_fields(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "eq"
    assert main(["equilibrium", "--config", cfg, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "endemic=True" in out
    assert (out_dir / "S.csv").exists() and (out_dir / "I.csv").exists()


def test_simulate_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()
    assert "reason=steady" in capsys.readouterr().out


def test_asymptotics_joint_needs_sigma(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["asymptotics", "--config", cfg, "--regime", "joint"]) == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["asymptotics", "sweep"])
def test_joint_without_sigma_is_bad_usage_for_both_commands(tmp_path, capsys, command):
    # the config has no "sigma" and its own d_I/d_S is never used in its place
    argv = [command, "--config", write_config(tmp_path), "--regime", "joint"]
    if command == "sweep":
        argv += ["--values", "0.05,0.02", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: the joint regime needs --sigma (or 'sigma' in the config)\n"
    )
    assert not (tmp_path / "x.csv").exists()


def test_asymptotics_regime_names(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["asymptotics", "--config", cfg, "--regime", "d_S"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("regime=d_S sigma=None\n")
    assert "steady=" not in out


def test_asymptotics_joint_writes_profile(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "prof"
    code = main(
        ["asymptotics", "--config", cfg, "--regime", "joint", "--sigma", "2.0",
         "--out", str(out_dir)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "regime=joint" in out
    assert (out_dir / "S_limit.csv").exists()
    assert (out_dir / "I_limit.csv").exists()
    assert (out_dir / "mask_positive_infection.csv").exists()


def test_asymptotics_sigma_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, sigma=2.0)
    assert main(["asymptotics", "--config", cfg, "--regime", "joint"]) == 0
    assert "sigma=2.0" in capsys.readouterr().out


def test_asymptotics_classification(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["asymptotics", "--config", cfg, "--regime", "d_I"]) == 0
    out = capsys.readouterr().out
    assert "mask high_risk" in out
    assert "no_ee_for_small_d_I=False" in out


def test_sweep_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--config", cfg, "--regime", "d_I", "--values", "0.05,0.02",
         "--out", str(out_csv)]
    )
    assert code == 0
    assert out_csv.exists()
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("d_S,d_I,sigma,")
    assert "wrote 2 rows" in capsys.readouterr().out


def test_sweep_rejects_bad_schedule(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(
        ["sweep", "--config", cfg, "--regime", "d_I", "--values", "0.02,0.05",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "decreasing" in capsys.readouterr().err


def test_sweep_rejects_non_numeric_values(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--regime", "d_I", "--values", "0.05,abc",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("sweep", "--values", "inf,0.1"),
        ("sweep", "--values", "0.05,nan"),
        ("sweep", "--sigma", "inf"),
        ("sweep", "--sigma", "nan"),
        ("asymptotics", "--sigma", "inf"),
        ("asymptotics", "--sigma", "nan"),
    ],
)
def test_non_finite_numbers_are_bad_usage(tmp_path, capsys, command, flag, value):
    args = {"--regime": "joint", "--sigma": "2"}
    if command == "sweep":
        args.update({"--values": "0.05,0.02", "--out": str(tmp_path / "x.csv")})
    args[flag] = value
    argv = [command, "--config", write_config(tmp_path)]
    for key, text in args.items():
        argv += [key, text]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "finite" in err


def test_audit_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["audit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "all_passed=True" in out
    assert "S_min_floor" in out
    for name in (
        "reaction_S_at_max_S",
        "reaction_S_at_min_S",
        "reaction_I_at_max_I",
        "reaction_I_at_min_I",
    ):
        assert f"ok  {name}: " in out


def test_compare_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "eq"
    main(["equilibrium", "--config", cfg, "--out", str(out_dir)])
    capsys.readouterr()
    s_csv = str(out_dir / "S.csv")
    assert main(["compare", "--config", cfg, s_csv, s_csv]) == 0
    out = capsys.readouterr().out
    assert "sup=0.0" in out


def test_compare_missing_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    missing = str(tmp_path / "missing.csv")
    assert main(["compare", "--config", cfg, missing, missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.csv" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


NINE_ROWS = [f"{k / 8!r},1.0" for k in range(9)]  # a valid field on the 9-node interval
MALFORMED_FIELDS = {
    "header-only": ["x,value"],
    "empty": [],
    "one-column": ["x,value", *(row.split(",")[0] for row in NINE_ROWS)],
    "garbage": ["garbage"],
    "four-columns": ["x,value", "0.0,1.0,2.0,3.0"],
    "ragged": ["x,value", *NINE_ROWS[:-1], "1.0"],
    "non-numeric": ["x,value", *NINE_ROWS[:-1], "1.0,abc"],
    "nan": ["x,value", *NINE_ROWS[:4], "0.5,nan", *NINE_ROWS[5:]],
    "inf": ["x,value", *NINE_ROWS[:4], "0.5,1e400", *NINE_ROWS[5:]],
}


FIELDS_OFF_THE_MESH = {
    # well-formed fields of other meshes, compared under a 17-node interval config
    "rectangle": ["x,y,value", *(f"{x / 2!r},{y / 2!r},1.0" for x in range(3) for y in range(3))],
    "nine-nodes": ["x,value", *NINE_ROWS],
}


@pytest.mark.parametrize("case", list(FIELDS_OFF_THE_MESH))
def test_compare_field_from_another_mesh_exits_2(tmp_path, capsys, case):
    cfg = write_config(tmp_path, domain={"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 17})
    field = tmp_path / "other.csv"
    field.write_text("".join(line + "\n" for line in FIELDS_OFF_THE_MESH[case]))
    assert main(["compare", "--config", cfg, str(field), str(field)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config's mesh" in err
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # numpy's "input contained no data" warning fails the test
@pytest.mark.parametrize("case", list(MALFORMED_FIELDS))
def test_compare_malformed_field_exits_2(tmp_path, capsys, case):
    cfg = write_config(tmp_path, domain={"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 9})
    good = tmp_path / "good.csv"
    good.write_text("\n".join(["x,value", *NINE_ROWS]) + "\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(line + "\n" for line in MALFORMED_FIELDS[case]))
    assert main(["compare", "--config", cfg, str(good), str(good)]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", cfg, str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not a field CSV")
    assert err.count("\n") == 1


def test_bad_config_exits_2(tmp_path, capsys):
    data = json.loads(open(write_config(tmp_path)).read())
    data["surprise"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["r0", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, value",
    [
        ("params", 5),
        ("stopping", None),
        ("stepping", 1),
        ("outputs", True),
        ("coefficients", 3),
        ("initial", 0.2),
    ],
)
def test_non_object_block_exits_2(tmp_path, capsys, block, value):
    cfg = write_config(tmp_path, **{block: value})
    assert main(["r0", "--config", cfg]) == 2
    assert f"{block} must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", [17.9, "17", True])
def test_non_integer_nodes_exits_2(tmp_path, capsys, nodes):
    domain = {"kind": "interval", "start": 0, "end": 1, "nodes": nodes}
    cfg = write_config(tmp_path, domain=domain)
    assert main(["r0", "--config", cfg]) == 2
    assert "nodes must be an integer" in capsys.readouterr().err


RECTANGLE = {"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1], "shape": [9, 9]}


@pytest.mark.parametrize(
    "domain, message",
    [
        ({**RECTANGLE, "x_range": [0, 1, 2]}, "x_range must be two numbers"),
        ({**RECTANGLE, "y_range": ["a", 1]}, "y_range must be a number"),
        ({**RECTANGLE, "x_range": [0, float("inf")]}, "x_range must be two finite numbers"),
        ({"kind": "disk", "radius": 1.0, "center": [0.0], "cell_size": 0.25},
         "center must be two numbers"),
    ],
)
def test_malformed_domain_pair_exits_2(tmp_path, capsys, domain, message):
    cfg = write_config(tmp_path, domain=domain)
    assert main(["r0", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


INF, NAN = float("inf"), float("nan")
FINITE_BLOCKS = {
    "params": {"d_S": 0.1, "d_I": 0.05, "p": 1, "q": 1},
    "stopping": {"steady_tol": 1e-9, "t_final": 400.0},
    "stepping": {},
    "outputs": {},
}


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("params", "d_I", INF),
        ("params", "q", INF),
        ("params", "d_S", NAN),
        ("stopping", "t_final", INF),
        ("stepping", "dt_max", NAN),
        ("outputs", "zero_infection_tol", INF),
        ("outputs", "mask_deltas", [1e-2, INF]),
        (None, "sigma", NAN),
    ],
)
def test_non_finite_number_exits_2(tmp_path, capsys, block, key, value):
    # json writes and reads these as Infinity / NaN
    tweak = {key: value} if block is None else {block: {**FINITE_BLOCKS[block], key: value}}
    cfg = write_config(tmp_path, **tweak)
    assert main(["r0", "--config", cfg]) == 2
    assert f"{key} must be a finite number" in capsys.readouterr().err


HUGE_INT = 10**400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "tweak, key",
    [
        ({"params": {**FINITE_BLOCKS["params"], "d_I": HUGE_INT}}, "d_I"),
        ({"stopping": {**FINITE_BLOCKS["stopping"], "t_final": -HUGE_INT}}, "t_final"),
        ({"coefficients": {"beta": HUGE_INT, "gamma": 0.5, "eta": 0.5, "lambda": 2}}, "beta"),
        ({"initial": {"S": 0.8, "I": HUGE_INT}}, "initial.I"),
        ({"domain": {**RECTANGLE, "x_range": [0, HUGE_INT]}}, "x_range"),
        ({"sigma": HUGE_INT}, "sigma"),
    ],
    ids=["d_I", "t_final", "beta", "initial", "x_range", "sigma"],
)
def test_integer_past_the_float_range_exits_2(tmp_path, capsys, tweak, key):
    cfg = write_config(tmp_path, **tweak)
    assert main(["r0", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be" in err and "finite number" in err
    assert err.count("\n") == 1


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["r0", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_equilibrium_honors_stepping(tmp_path, capsys):
    # equilibrium marches with the config's stepping block, as simulate does
    cfg = write_config(
        tmp_path,
        domain={"kind": "interval", "start": 0, "end": 1, "nodes": 41},
        stepping={"dt_max": 0.02},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    simulated = value_after(capsys.readouterr().out, "steps")
    assert main(["equilibrium", "--config", cfg]) == 0
    assert value_after(capsys.readouterr().out, "steps") == simulated


def test_equilibrium_not_steady_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, stopping={"steady_tol": 1e-14, "t_final": 0.3})
    assert main(["equilibrium", "--config", cfg]) == 1
    assert "no steady state" in capsys.readouterr().err


def test_mass_balance_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "MASS_BALANCE_RTOL", -1.0)
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mass-balance defect")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "tweak, code, message",
    [
        ({"domain": {"kind": "disk", "radius": 1.0, "cell_size": 1e-12}}, 2, "config error: "),
        (
            {"domain": {"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1],
                        "shape": [10_000_000, 10_000_000]}},
            2,
            "config error: ",
        ),
        (
            {"domain": {"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 10_000_000_000_000}},
            2,
            "config error: ",
        ),
        (
            {"coefficients": {"beta": "1e300", "gamma": "0.5", "eta": "0.5", "lambda": "2"}},
            1,
            "error: R0 eigen-solve failed",
        ),
    ],
    ids=["disk-cell-size", "rectangle-shape", "interval-nodes", "r0-overflow"],
)
def test_oversized_mesh_and_overflowing_r0_exit_cleanly(tmp_path, capsys, tweak, code, message):
    # the three meshes are refused from the config alone, before any array
    # exists; the overflowing eigen-solve ends in the typed error
    cfg = write_config(tmp_path, **tweak)
    assert main(["r0", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


# a 7-node interval on which one rate of 1e300, next to rates of order 1,
# rounds a pivot of the unpivoted sparse LU to exactly zero
ZERO_PIVOT_BASE = {
    "domain": {"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 7},
    "coefficients": {"beta": "3 + 2*sin(pi*x)", "gamma": "1", "eta": "1", "lambda": "1"},
    "params": {"d_S": 1.0, "d_I": 0.01, "p": 1, "q": 0.5},
}
ZERO_PIVOT_CASES = {
    "equilibrium-d_I": (
        ["equilibrium"], {"params": {**ZERO_PIVOT_BASE["params"], "d_I": 1e300}}
    ),
    "asymptotics-gamma": (
        ["asymptotics", "--regime", "d_S"],
        {"coefficients": {**ZERO_PIVOT_BASE["coefficients"], "gamma": "1e300"}},
    ),
    "lambda0-beta": (
        ["lambda0"],
        {
            "coefficients": {**ZERO_PIVOT_BASE["coefficients"], "beta": "1e300"},
            "domain": {"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1], "shape": [5, 4]},
        },
    ),
}


@pytest.mark.parametrize("case", list(ZERO_PIVOT_CASES))
def test_zero_pivot_exits_1_with_one_line(tmp_path, capsys, case):
    command, tweak = ZERO_PIVOT_CASES[case]
    cfg = write_config(tmp_path, **{**ZERO_PIVOT_BASE, **tweak})
    assert main([command[0], "--config", cfg, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sparse LU hit a zero pivot")
    assert err.count("\n") == 1


# the joint root I* = 1e-20 is far below its bracket's ulp resolution
TINY_JOINT_ROOT = {
    "domain": {"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 9},
    "coefficients": {"beta": "0.01", "gamma": "0.5", "eta": "0.5", "lambda": "1"},
    "params": {"d_S": 1.0, "d_I": 1.0, "p": 0.9, "q": 2},
}


def test_joint_limit_that_misses_its_mass_identity_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, **TINY_JOINT_ROOT)
    assert main(["asymptotics", "--config", cfg, "--regime", "joint", "--sigma", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: joint limit misses its mass identity")
    assert err.count("\n") == 1


# a bad geometry or resolution on the 7-node base config, with the message
# of grid.check_lattice_size
BAD_GEOMETRIES = {
    "interval-reversed": ({"kind": "interval", "start": 1.0, "end": 0.0, "nodes": 7},
                          "interval end must exceed start"),
    "interval-2-nodes": ({"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 2},
                         "an interval needs at least 3 nodes"),
    "rectangle-flat": ({"kind": "rectangle", "x_range": [0, 0], "y_range": [0, 1], "shape": [5, 5]},
                       "rectangle ranges must have positive extent"),
    "rectangle-2-nodes": ({"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1], "shape": [5, 2]},
                          "a rectangle needs at least 3 nodes per axis"),
    "disk-radius": ({"kind": "disk", "radius": -1.0, "cell_size": 0.1},
                    "disk radius must be positive"),
    "disk-cell-size": ({"kind": "disk", "radius": 1.0, "cell_size": 0},
                       "disk cell size must be positive"),
    "disk-2-cells": ({"kind": "disk", "radius": 1.0, "cell_size": 1.0},
                     "the disk needs at least 3 cells per axis"),
}


@pytest.mark.parametrize("case", list(BAD_GEOMETRIES))
def test_bad_geometry_is_a_config_error(tmp_path, capsys, case):
    # refused while the config loads (ConfigError, exit 2), before any mesh is built
    domain, message = BAD_GEOMETRIES[case]
    cfg = write_config(tmp_path, **{**ZERO_PIVOT_BASE, "domain": domain})
    with pytest.raises(ConfigError, match=message):
        load_scenario(cfg)
    assert main(["r0", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1


def test_literal_past_the_float_range_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, coefficients={"beta": "1e400", "gamma": "0.5", "eta": "0.5",
                                               "lambda": "2"})
    assert main(["r0", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "literal '1e400' is past the float range" in err
    assert err.count("\n") == 1


# q = 400 puts beta recruitment^q (lambda = 10) or beta S^q (S = 10) past the float range
OVERFLOW_BASE = {
    "domain": {"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 7},
    "coefficients": {"beta": "3", "gamma": "1", "eta": "1", "lambda": "10"},
    "params": {"d_S": 1.0, "d_I": 0.01, "p": 1, "q": 400},
}
OVERFLOW_S = {"coefficients": {**OVERFLOW_BASE["coefficients"], "lambda": "1"},
              "initial": {"S": "10", "I": "0.2"}}


def overflowing_formula(beta: str) -> dict:
    """A 9-node interval whose transmission rate is the given formula."""
    return {"domain": {**OVERFLOW_BASE["domain"], "nodes": 9},
            "coefficients": {**OVERFLOW_BASE["coefficients"], "beta": beta},
            "params": {**OVERFLOW_BASE["params"], "q": 1}}


OVERFLOW_CASES = {
    "r0": ("r0", {}, "error: R0 gain beta S~^q overflows"),
    "lambda0": (
        "lambda0", {}, "error: principal-eigenvalue potential beta recruitment^q - gamma - eta overflows"
    ),
    # a potential of about +1e308 at one node and -1e308 at another: the shift overflows
    "lambda0-span": (
        "lambda0",
        {"coefficients": {"beta": "piecewise(x; 0.5: 1; else: 1e308)",
                          "gamma": "piecewise(x; 0.5: 1e308; else: 1)", "eta": "1", "lambda": "1"},
         "params": {**OVERFLOW_BASE["params"], "q": 1}},
        "error: principal-eigenvalue shifted potential overflows",
    ),
    # the small-d_S limit refuses before its lambda0 bound could skip the eigen-solve
    "asymptotics-d_S": (
        "asymptotics --regime d_S", {},
        "error: principal-eigenvalue potential beta recruitment^q - gamma - eta overflows",
    ),
    "equilibrium": ("equilibrium", OVERFLOW_S, "error: field contains non-finite values"),
    # a formula whose value overflows is refused where it is evaluated, quoting the sub-expression
    "formula-exp": ("r0", overflowing_formula("exp(1000)"),
                    "error: 'exp(1000)' does not evaluate to a finite real number"),
    "formula-product": ("r0", overflowing_formula("3 + 0*cos(1e308*1e10)"),
                        "error: '1e308*1e10' does not evaluate to a finite real number"),
    "simulate": ("simulate", OVERFLOW_S, "error: field contains non-finite values"),
}


@pytest.mark.parametrize("case", list(OVERFLOW_CASES))
def test_overflow_exits_1_with_one_line(tmp_path, capfd, case):
    # a RuntimeWarning is an error under the suite's warning filter, and
    # capfd also sees what LAPACK prints at the file-descriptor level
    command, tweak, message = OVERFLOW_CASES[case]
    cfg = write_config(tmp_path, **{**OVERFLOW_BASE, **tweak})
    extra = ["--out", str(tmp_path / "run")] if command == "simulate" else []
    assert main([*command.split(), "--config", cfg, *extra]) == 1
    out, err = capfd.readouterr()
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert "DLASCL" not in out


@pytest.mark.parametrize("values", ["0.05", "0.05,0.02"])
def test_sweep_with_a_failed_row_exits_1(tmp_path, capsys, monkeypatch, values):
    # the last row's solve fails: alone it is reported as failed, after a
    # solved row its nan distances are also a trend violation
    last = float(values.split(",")[-1])
    real_find_ee = harness.find_ee

    def failing_find_ee(c, **kwargs):
        if c.d_I == last:
            raise NonConvergenceError("row solve failed")
        return real_find_ee(c, **kwargs)

    monkeypatch.setattr(harness, "find_ee", failing_find_ee)
    cfg = write_config(tmp_path)
    argv = ["sweep", "--config", cfg, "--regime", "d_I", "--values", values,
            "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert f"d_I={last!r} failed: row solve failed" in out
    assert ("trend violations" in out) == ("," in values)
