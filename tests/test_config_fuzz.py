"""Config fuzz: every subcommand ends in exit 0, 1 or 2 and raises nothing else.

Each example replaces or deletes one or two keys of a small valid config
(a 9x9 square, a 7-node interval or a disk of 48 cells) and runs one
subcommand in-process.  The values are wrong types, signs, non-finite
numbers and numbers near the float limit.  Meshes stay tiny: a drawn size
is either refused from the spec alone or a few dozen nodes.  The rates and
the run controls draw no tiny or huge positive numbers, because a tiny
``eta`` or a large recruitment gives a slow mode that takes minutes to
march out on any mesh.

The command line runs with Python's default warning filters, under which
a numpy ``RuntimeWarning`` (an overflow on the way to a typed error) is a
printed line, not an exception; the test runs ``main`` the same way.  The
property is the exit code; the examples are the configs of every
traceback this fuzz has found.
"""

import copy
import json
import math
import warnings
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from sisrd.cli import main

SQUARE = {
    "version": 1,
    "name": "fuzz-square",
    "domain": {"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1], "shape": [9, 9]},
    "coefficients": {"beta": "1", "gamma": "0.5", "eta": "0.5", "lambda": "2"},
    "params": {"d_S": 0.1, "d_I": 0.05, "p": 1, "q": 1},
    "initial": {"S": "0.8", "I": "0.2"},
    "stopping": {"steady_tol": 1e-9, "t_final": 400.0},
}
INTERVAL = {
    "version": 1,
    "name": "fuzz-interval",
    "domain": {"kind": "interval", "start": 0.0, "end": 1.0, "nodes": 7},
    "coefficients": {"beta": "3 + 2*sin(pi*x)", "gamma": "1", "eta": "1", "lambda": "1"},
    "params": {"d_S": 1.0, "d_I": 0.01, "p": 1, "q": 0.5},
    "initial": {"S": "0.8", "I": "0.2"},
    "stopping": {"steady_tol": 1e-9, "t_final": 400.0},
}
DISK = {
    "version": 1,
    "name": "fuzz-disk",
    "domain": {"kind": "disk", "radius": 1.0, "center": [0.0, 0.0], "cell_size": 0.25},
    "coefficients": {"beta": "3 + 2*sin(pi*x)*sin(pi*y)", "gamma": "1", "eta": "1", "lambda": "1"},
    "params": {"d_S": 1.0, "d_I": 0.001, "p": 0.5, "q": 0.5},
    "initial": {"S": "0.8", "I": "0.2"},
    "stopping": {"steady_tol": 1e-9, "t_final": 400.0},
    "sigma": 2.0,
}

DELETE = object()  # a drawn value that removes the key
WRONG = [DELETE, None, True, "", "x", "sin(", "-1", [], [1, 2], {}, -1, 0, math.inf, math.nan]
VALUES = WRONG + [0.5, 2, 1e-300, 1e300, "1e300", 10**400]
CHEAP = WRONG + [0.5, 2]
CHEAP_KEYS = {
    "coefficients.beta",
    "coefficients.gamma",
    "coefficients.eta",
    "coefficients.lambda",
    "stopping.steady_tol",
    "stopping.t_final",
    "stepping.dt_max",
    "stepping.dt_min",
    "outputs.snapshot_every",
}
KEYS = [
    "version", "name", "comment", "sigma", "unknown",
    "domain", "coefficients", "params", "initial", "stopping", "stepping", "outputs",
    "domain.kind", "domain.start", "domain.end", "domain.nodes",
    "domain.x_range", "domain.y_range", "domain.shape",
    "domain.radius", "domain.center", "domain.cell_size",
    "coefficients.beta", "coefficients.gamma", "coefficients.eta", "coefficients.lambda",
    "params.d_S", "params.d_I", "params.p", "params.q", "initial.S", "initial.I",
    "stopping.steady_tol", "stopping.t_final", "stepping.dt_max", "stepping.dt_min",
    "outputs.snapshot_every", "outputs.mask_deltas", "outputs.zero_infection_tol",
]
COMMANDS = [
    ["simulate"],
    ["equilibrium"],
    ["r0"],
    ["lambda0"],
    ["asymptotics", "--regime", "d_S"],
    ["asymptotics", "--regime", "d_I"],
    ["asymptotics", "--regime", "joint", "--sigma", "2"],
    ["sweep", "--regime", "d_I", "--values", "1e-1,1e-2"],
    ["audit"],
]

edit = st.sampled_from(KEYS).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(CHEAP if key in CHEAP_KEYS else VALUES))
)


def mutate(base: dict, edits) -> dict:
    """``base`` with each ``(dotted key, value)`` set, or deleted for ``DELETE``."""
    data = copy.deepcopy(base)
    for path, value in edits:
        *blocks, leaf = path.split(".")
        block = data
        for key in blocks:
            if not isinstance(block.get(key), dict):
                block[key] = {}
            block = block[key]
        if value is DELETE:
            block.pop(leaf, None)
        else:
            block[leaf] = copy.deepcopy(value)
    return data


def run_cli(config: dict, command: list) -> int:
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [command[0], "--config", str(path), *command[1:]]
        if command[0] == "simulate":
            argv += ["--out", str(Path(tmp) / "run")]
        elif command[0] == "sweep":
            argv += ["--out", str(Path(tmp) / "sweep.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("default", RuntimeWarning)
            return main(argv)


RECTANGLE_5X4 = {"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1], "shape": [5, 4]}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from([SQUARE, INTERVAL, DISK]),
    edits=st.lists(edit, min_size=1, max_size=2),
    command=st.sampled_from(COMMANDS),
)
# meshes refused from the spec alone, and R0 overflowing to a typed error
@example(base=SQUARE, edits=[("domain", {"kind": "disk", "radius": 1.0, "cell_size": 1e-12})],
         command=["r0"])
@example(base=SQUARE, edits=[("domain.shape", [10_000_000, 10_000_000])], command=["r0"])
@example(base=SQUARE, edits=[("domain", {"kind": "interval", "start": 0.0, "end": 1.0,
                                         "nodes": 10_000_000_000_000})], command=["r0"])
@example(base=SQUARE, edits=[("coefficients.beta", "1e300")], command=["r0"])
@example(base=DISK, edits=[("domain.cell_size", 1e-300)], command=["r0"])
# numbers past the float range: a JSON integer, and a squared spacing
@example(base=SQUARE, edits=[("params.d_I", 10**400)], command=["equilibrium"])
@example(base=INTERVAL, edits=[("domain.end", 1e300)], command=["audit"])
# an unhashable domain kind
@example(base=INTERVAL, edits=[("domain.kind", [1, 2])], command=["simulate"])
@example(base=INTERVAL, edits=[("domain.kind", {})], command=["lambda0"])
# zero pivots of the sparse LU
@example(base=INTERVAL, edits=[("params.d_I", 1e300)], command=["equilibrium"])
@example(base=INTERVAL, edits=[("coefficients.gamma", "1e300")],
         command=["asymptotics", "--regime", "d_S"])
@example(base=INTERVAL, edits=[("coefficients.beta", "1e300"), ("domain", RECTANGLE_5X4)],
         command=["lambda0"])
def test_every_config_ends_in_exit_0_1_or_2(base, edits, command):
    assert run_cli(mutate(base, edits), command) in (0, 1, 2)
