"""Batch drivers: scenario runs with on-disk artifacts, and diffusion sweeps.

:func:`run_scenario` realizes a :class:`~sisrd.scenario.ScenarioConfig`,
takes it to an equilibrium on the same path as
:func:`~sisrd.equilibrium.find_ee` (the march stops at its stopping rule,
or earlier where Newton's polished answer is accepted), and writes a fixed
set of files into an output directory:

* ``S.csv`` / ``I.csv`` — final fields, one node per line in mesh order;
* ``coincidence_mask_<k>.csv`` — nodes where the susceptible field is
  within ``mask_deltas[k]`` below the ceiling ``h^(1/q)``;
* ``zero_infection_mask.csv`` — nodes with ``I < zero_infection_tol``;
* ``summary.json`` — scalars only, keys sorted.

Outputs are byte-reproducible: equal configs produce identical files on
every run (no timestamps, no wall-clock fields, platform-independent
``repr`` float formatting, ``\\n`` newlines).  On error, partial outputs
are removed.

:func:`sweep` shrinks one or both diffusion rates over a descending list
of values (the regimes and their one rule for ``sigma`` are those of
:func:`~sisrd.asymptotics.shrink_diffusion`), solves for the equilibrium at
each (rows after the first are warm-started from the previous
equilibrium), and measures the distance to the predicted small-diffusion
profile; where only envelopes of the profile are known
(the joint limit below its closed-form threshold), the distance is how far
the equilibrium lies outside them.  Rows go to a CSV with the fixed header
``d_S,d_I,sigma,dist_S_sup,dist_I_sup,dist_S_L1,dist_I_L1,R0,gap,seconds``;
``seconds`` (wall time per row) is the one column exempt from
byte-reproducibility, and ``R0`` is ``nan`` when the incidence is
sublinear.  A row whose march fails (:class:`~sisrd.solvers.NonConvergenceError`
or :class:`~sisrd.dynamics.MassBalanceError`) records ``nan`` distances and
its ``error``, and the sweep moves on.
"""

from __future__ import annotations

import json
import time
from contextlib import suppress
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from .asymptotics import LimitProfile, limit_profile, shrink_diffusion
from .coefficients import CoefficientSet
from .dynamics import MassBalanceError, SimState
from .equilibrium import EquilibriumResult, equilibrate, find_ee
from .grid import DiscreteDomain, erode_mask, integrate, write_field_csv
from .scenario import ScenarioConfig
from .solvers import NonConvergenceError
from .spectral import compute_r0

__all__ = [
    "ScenarioArtifacts",
    "SweepResult",
    "run_scenario",
    "sweep",
    "field_distances",
    "check_trend",
    "compare_fields",
]

SWEEP_HEADER = "d_S,d_I,sigma,dist_S_sup,dist_I_sup,dist_S_L1,dist_I_L1,R0,gap,seconds"
_DISTANCES = ("dist_S_sup", "dist_I_sup", "dist_S_L1", "dist_I_L1")  # of _row_distances
_TREND_FACTOR = 1.1  # check_trend's multiplicative slack
_TREND_FLOOR = 1e-9  # and its additive floor


@dataclass(frozen=True)
class ScenarioArtifacts:
    out_dir: Path
    paths: dict  # logical name -> Path
    summary: dict
    result: EquilibriumResult


@dataclass(frozen=True)
class SweepResult:
    regime: str  # one of asymptotics.REGIMES
    sigma: Optional[float]
    rows: list  # dicts with the CSV scalars plus "eq" and optional "error"
    oracle: Optional[LimitProfile]
    violations: dict = dc_field(default_factory=dict)
    csv_path: Optional[Path] = None


# ---------------------------------------------------------------------------
# Field comparison helpers
# ---------------------------------------------------------------------------


def field_distances(dom: DiscreteDomain, a, b) -> tuple[float, float]:
    """Sup-norm and measure-weighted L1 distance between two node arrays."""
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(diff.max()), integrate(dom, diff)


def check_trend(series) -> list:
    """Indices k where ``series[k+1] > 1.1 series[k] + 1e-9``.

    The multiplicative slack tolerates solver jitter; the additive floor
    keeps rounding noise from flagging distances that already sit at the
    numerical floor.  ``nan`` entries never pass silently: they flag the
    transition into and out of the failed row.
    """
    bad = []
    for k in range(len(series) - 1):
        a, b = float(series[k]), float(series[k + 1])
        if np.isnan(a) or np.isnan(b) or b > _TREND_FACTOR * a + _TREND_FLOOR:
            bad.append(k)
    return bad


def compare_fields(dom: DiscreteDomain, coords_a, values_a, coords_b, values_b) -> dict:
    """Distances between two saved fields after checking both lie on ``dom``'s mesh."""
    ca = np.asarray(coords_a, dtype=float)
    cb = np.asarray(coords_b, dtype=float)
    if ca.shape != cb.shape or not np.allclose(ca, cb, rtol=0.0, atol=1e-12):
        raise ValueError("fields were saved on different meshes")
    if ca.shape != dom.coords.shape or not np.allclose(ca, dom.coords, rtol=0.0, atol=1e-12):
        raise ValueError(f"fields of length {len(ca)} were not saved on the config's mesh")
    sup, l1 = field_distances(dom, values_a, values_b)
    return {"sup": sup, "l1": l1, "n_nodes": dom.n_nodes}


# ---------------------------------------------------------------------------
# Scenario driver
# ---------------------------------------------------------------------------


def run_scenario(config: ScenarioConfig, out_dir) -> ScenarioArtifacts:
    """Take a scenario to its equilibrium and write the artifact set.

    The march and the settle step are those of
    :func:`~sisrd.equilibrium.find_ee` with the config's controls, except
    that a march stopped by ``t_final`` is written out instead of raising.
    When Newton's answer at the loose steady test is accepted, the march
    ends there, and ``steps``, ``rejected`` and ``final_t`` in
    ``summary.json`` count the march up to that hand-off; when it is
    refused, the same march goes on, and they count all of it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _path(name: str) -> Path:
        p = out / name
        written.append(p)
        return p

    try:
        dom = config.build_domain()
        c = config.build_coefficients(dom)
        state0 = config.initial_state(dom)

        def snapshot(state: SimState, step: int) -> None:
            if step % config.snapshot_every == 0:
                write_field_csv(_path(f"S_{step:06d}.csv"), state.S)
                write_field_csv(_path(f"I_{step:06d}.csv"), state.I)

        # without snapshots the march makes no call per step
        on_step = snapshot if config.snapshot_every > 0 else None
        result = equilibrate(c, state0, on_step=on_step, **config.controls)
        reason = result.meta["march_reason"]
        S = result.S.values
        I = result.I.values

        write_field_csv(_path("S.csv"), result.S)
        write_field_csv(_path("I.csv"), result.I)

        ceiling = c.risk_ceiling()
        coincidence_counts = []
        for k, delta in enumerate(config.mask_deltas):
            mask = (ceiling - S) < delta
            coincidence_counts.append(int(mask.sum()))
            write_field_csv(_path(f"coincidence_mask_{k}.csv"), dom.field(mask))
        zero_mask = I < config.zero_infection_tol
        write_field_csv(_path("zero_infection_mask.csv"), dom.field(zero_mask))

        summary_obj = {
            "name": config.name,
            "domain": {"kind": dom.kind, "n_nodes": dom.n_nodes, "measure": dom.measure},
            "params": {
                "d_S": c.d_S,
                "d_I": c.d_I,
                "p": c.p,
                "q": c.q,
                "sigma": c.sigma(),
            },
            "final_t": result.t,
            "steps": result.steps,
            "rejected": result.rejected,
            "reason": reason,
            "converged_steady": reason == "steady",
            "endemic": result.endemic,
            "newton_applied": result.newton_iterations > 0,
            "newton_iterations": result.newton_iterations,
            "residual_S": result.residual_S,
            "residual_I": result.residual_I,
            "conservation_gap": result.conservation_gap,
            "min_S": float(S.min()),
            "max_S": float(S.max()),
            "min_I": float(I.min()),
            "max_I": float(I.max()),
            "mass_S": integrate(dom, S),
            "mass_I": integrate(dom, I),
            "mask_deltas": list(config.mask_deltas),
            "coincidence_counts": coincidence_counts,
            "zero_infection_tol": config.zero_infection_tol,
            "zero_infection_count": int(zero_mask.sum()),
        }
        with open(_path("summary.json"), "w", newline="\n") as fh:
            json.dump(summary_obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise

    paths = {p.name: p for p in written}
    return ScenarioArtifacts(out_dir=out, paths=paths, summary=summary_obj, result=result)


# ---------------------------------------------------------------------------
# Diffusion sweeps
# ---------------------------------------------------------------------------


def _row_distances(
    c: CoefficientSet, eq: EquilibriumResult, oracle: LimitProfile
) -> tuple[float, float, float, float]:
    dom = c.domain
    if oracle.S_limit is not None:
        s_sup, s_l1 = field_distances(dom, eq.S.values, oracle.S_limit.values)
        i_sup, i_l1 = field_distances(dom, eq.I.values, oracle.I_limit.values)
        return s_sup, i_sup, s_l1, i_l1
    if "high_risk" in oracle.masks:
        # classification oracle: S must not overshoot the ceiling, and
        # infection must die out in the interior of the low-risk region
        excess = np.maximum(eq.S.values - c.risk_ceiling(), 0.0)
        vanish = oracle.masks["vanishing"]
        inner = erode_mask(dom, vanish, 2)
        i_vals = np.where(inner, eq.I.values, 0.0)
        return (
            float(excess.max()),
            float(i_vals.max()),
            integrate(dom, excess),
            integrate(dom, i_vals),
        )
    # envelopes only (joint limit below the closed-form threshold): the
    # distance is how far the equilibrium lies outside them
    env = oracle.envelopes
    S, I = eq.S.values, eq.I.values
    s_excess = np.maximum(env["S_lower"].values - S, 0.0) + np.maximum(S - env["S_upper"].values, 0.0)
    i_excess = np.maximum(I - env["I_upper"].values, 0.0)
    return (
        float(s_excess.max()),
        float(i_excess.max()),
        integrate(dom, s_excess),
        integrate(dom, i_excess),
    )


def sweep(
    c_base: CoefficientSet,
    regime: str,
    values,
    sigma: Optional[float] = None,
    out_csv=None,
) -> SweepResult:
    """Equilibria along a descending diffusion schedule vs. the limit profile.

    Row ``v`` solves at ``shrink_diffusion(c_base, regime, v, sigma)``
    (see :func:`~sisrd.asymptotics.shrink_diffusion`: the joint regime
    needs ``sigma``, and the other rate keeps its base value).  Each row is
    a :func:`~sisrd.equilibrium.find_ee` call with its default
    controls.  Rows after the first are warm-started from the previous
    equilibrium.  The returned ``violations`` map flags rows where a
    distance column stopped shrinking (beyond slack; see
    :func:`check_trend`).
    """
    vals = [float(v) for v in values]
    if len(vals) == 0:
        raise ValueError("empty sweep schedule")
    if any(v <= 0.0 for v in vals):
        raise ValueError("sweep values must be positive")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValueError("sweep values must be strictly decreasing")

    oracle = limit_profile(c_base, regime, sigma)
    rows: list[dict] = []
    init = None
    for v in vals:
        c = shrink_diffusion(c_base, regime, v, sigma)
        row = {"d_S": c.d_S, "d_I": c.d_I, "sigma": c.sigma(), "R0": float("nan")}
        t0 = time.perf_counter()
        try:
            eq = find_ee(c, init=init)
            distances = zip(_DISTANCES, _row_distances(c, eq, oracle))
            row.update(distances, gap=eq.conservation_gap, eq=eq)
            init = SimState(eq.S, eq.I)
        except (NonConvergenceError, MassBalanceError) as exc:
            row.update(dict.fromkeys((*_DISTANCES, "gap"), float("nan")), eq=None, error=str(exc))
        if c.p == 1.0 and row["eq"] is not None:
            with suppress(NonConvergenceError):
                row["R0"] = compute_r0(c).value
        row["seconds"] = time.perf_counter() - t0
        rows.append(row)

    violations = {}
    for key in ("dist_S_sup", "dist_I_sup"):
        bad = check_trend([r[key] for r in rows])
        if bad:
            violations[key] = bad

    csv_path = None
    if out_csv is not None:
        csv_path = Path(out_csv)
        cols = SWEEP_HEADER.split(",")
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(SWEEP_HEADER + "\n")
            for row in rows:
                fh.write(",".join(repr(float(row[k])) for k in cols) + "\n")
    return SweepResult(
        regime=regime,
        sigma=sigma,
        rows=rows,
        oracle=oracle,
        violations=violations,
        csv_path=csv_path,
    )
