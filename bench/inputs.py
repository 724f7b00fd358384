"""Seeded scenario configs for the benchmark workloads.

Each workload draws its configs from ``--seed``.  The templates below are
the two shipped disk scenarios (``configs/scenario1.json`` and
``configs/scenario2.json``).  A seed multiplies every coefficient amplitude
by a factor in ``[1 - COEFF_SPREAD, 1 + COEFF_SPREAD]`` and the initial
data by a factor in ``[1 - INITIAL_SPREAD, 1 + INITIAL_SPREAD]``.

The coefficient spread is small on purpose.  On the joint sweep, the
step count of the ``d = 1e-5`` row moves by about 4% under a 0.1% change
of the coefficients (2415 to 3447 steps over five seeds at 0.5%), and on
scenario2 the step count moves by about 1.8% per 1% change of ``beta``.
Larger perturbations make the seed, not the code, the main source of
run-to-run spread.  Every perturbed problem stays endemic (``R0`` about
2.4 on scenario1, far from the threshold at 1).

Seed 0 draws no perturbation: it reproduces the shipped coefficients at
the benchmark's resolutions, and the stored reference scalars belong to it.
Configs are written with sorted keys and ``repr`` floats, so one seed
always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

COEFF_SPREAD = 0.001
INITIAL_SPREAD = 0.05
DEFAULT_SEED = 0

# disk cell sizes; node counts in the comments
H_EE_S1 = 1 / 32  # 3228 nodes, the shipped resolution
H_EE_S2 = 1 / 8  # 208 nodes
H_SWEEP = 1 / 32  # 3228 nodes
H_SPECTRAL = 1 / 64  # 12892 nodes
H_LIMITS = 1 / 32  # 3228 nodes

SWEEP_VALUES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
SIGMA = 2.0

_GAMMA_FACTOR = (
    "piecewise({v}; 0: 0.5+0.4*{v}^2; 0.25: 0.5; 0.5: 0.5+0.4*({v}-0.25)^2; "
    "else: 0.5+1.6*({v}-0.625)^2)"
)


def _factors(seed: int, stream: str, n: int, spread: float) -> list:
    if seed == DEFAULT_SEED:
        return [1.0] * n
    rng = random.Random(f"{stream}:{seed}")
    return [round(1.0 + spread * rng.uniform(-1.0, 1.0), 6) for _ in range(n)]


def _base(name: str, cell_size: float, p: float) -> dict:
    return {
        "version": 1,
        "name": name,
        "domain": {"kind": "disk", "radius": 1.0, "center": [0.0, 0.0], "cell_size": cell_size},
        "params": {"d_S": 1.0, "d_I": 0.001, "p": p, "q": 0.5},
        "stopping": {"steady_tol": 1e-9, "t_final": 4000.0},
        "outputs": {"mask_deltas": [0.01, 0.0001], "zero_infection_tol": 0.01},
    }


def scenario1(seed: int, cell_size: float, p: float = 1.0) -> dict:
    """Sinusoidal transmission peaking at (0.5, 0.5) and (-0.5, -0.5)."""
    b0, b1, g, e, lam = _factors(seed, "scenario1", 5, COEFF_SPREAD)
    s0, i0 = _factors(seed, "scenario1-initial", 2, INITIAL_SPREAD)
    cfg = _base("disk-sinusoidal-transmission", cell_size, p)
    cfg["coefficients"] = {
        "beta": f"{3.0 * b0!r} + {2.0 * b1!r}*sin(pi*x)*sin(pi*y)",
        "gamma": g,
        "eta": e,
        "lambda": lam,
    }
    cfg["initial"] = {"S": 0.8 * s0, "I": 0.2 * i0}
    cfg["sigma"] = SIGMA
    return cfg


def scenario2(seed: int, cell_size: float) -> dict:
    """Piecewise-quadratic recovery rate; ``eta = 0.1`` leaves a slow mode."""
    b, g, e, lam = _factors(seed, "scenario2", 4, COEFF_SPREAD)
    s0, i0 = _factors(seed, "scenario2-initial", 2, INITIAL_SPREAD)
    cfg = _base("disk-piecewise-recovery", cell_size, 1.0)
    cfg["coefficients"] = {
        "beta": 0.5 * b,
        "gamma": f"{g!r}*{_GAMMA_FACTOR.format(v='x')}*{_GAMMA_FACTOR.format(v='y')}",
        "eta": 0.1 * e,
        "lambda": lam,
    }
    cfg["initial"] = {"S": 0.8 * s0, "I": 0.2 * i0}
    return cfg


def generate(workload: str, seed: int) -> dict:
    """Config dicts of one workload, keyed by the role each plays."""
    if workload == "scenario_ee":
        return {"s1": scenario1(seed, H_EE_S1), "s2": scenario2(seed, H_EE_S2)}
    if workload == "joint_sweep":
        return {"sweep": scenario1(seed, H_SWEEP)}
    if workload == "thresholds_limits":
        return {
            "spectral": scenario1(seed, H_SPECTRAL),
            "limits": scenario1(seed, H_LIMITS),
            "limits_sublinear": scenario1(seed, H_LIMITS, p=0.5),
        }
    raise ValueError(f"unknown workload {workload!r}")


def write(configs: dict, directory: Path) -> dict:
    """Write each config as ``<role>.json``; returns role -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for role, cfg in configs.items():
        path = directory / f"{role}.json"
        path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
        paths[role] = path
    return paths
