"""Batch drivers: scenario runs with on-disk artifacts, and diffusion sweeps.

:func:`run_scenario` realizes a :class:`~sisrd.scenario.ScenarioConfig`,
marches it to its stopping rule, and writes a fixed set of files into an
output directory:

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
of values, solves for the equilibrium at each, and measures the distance
to the predicted small-diffusion profile.  Rows go to a CSV with the fixed
header ``d_S,d_I,sigma,dist_S_sup,dist_I_sup,dist_S_L1,dist_I_L1,R0,gap,seconds``;
``seconds`` (wall time per row) is the one column exempt from
byte-reproducibility, and ``R0`` is ``nan`` when the incidence is
sublinear.  A failed row records ``nan`` distances and the sweep moves on.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from .asymptotics import LimitProfile, limit_profile
from .coefficients import CoefficientSet
from .dynamics import SimState, run
from .equilibrium import EquilibriumResult, find_ee, settle
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
    "interior_max",
    "check_trend",
    "compare_fields",
]

SWEEP_HEADER = "d_S,d_I,sigma,dist_S_sup,dist_I_sup,dist_S_L1,dist_I_L1,R0,gap,seconds"


@dataclass(frozen=True)
class ScenarioArtifacts:
    out_dir: Path
    paths: dict  # logical name -> Path
    summary: dict
    result: EquilibriumResult


@dataclass(frozen=True)
class SweepResult:
    regime: str  # "d_I" | "d_S" | "joint"
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


def interior_max(
    dom: DiscreteDomain, mask: np.ndarray, values, erode_cells: int = 2
) -> float:
    """Max of ``values`` over ``mask`` eroded by ``erode_cells`` grid layers.

    Returns 0.0 when the eroded region is empty — a collar of the given
    width around the region's edge is deliberately ignored.
    """
    inner = erode_mask(dom, mask, erode_cells)
    if not inner.any():
        return 0.0
    return float(np.asarray(values, dtype=float)[inner].max())


def check_trend(series, factor: float = 1.1, floor: float = 1e-9) -> list:
    """Indices k where ``series[k+1] > factor * series[k] + floor``.

    The multiplicative slack tolerates solver jitter; the additive floor
    keeps rounding noise from flagging distances that already sit at the
    numerical floor.  ``nan`` entries never pass silently: they flag the
    transition into and out of the failed row.
    """
    bad = []
    for k in range(len(series) - 1):
        a, b = float(series[k]), float(series[k + 1])
        if np.isnan(a) or np.isnan(b) or b > factor * a + floor:
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
    """March a scenario to its stopping rule and write the artifact set."""
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
            if config.snapshot_every and step % config.snapshot_every == 0:
                write_field_csv(_path(f"S_{step:06d}.csv"), state.S)
                write_field_csv(_path(f"I_{step:06d}.csv"), state.I)

        state, summary = run(state0, c, on_step=snapshot, **config.controls)
        result = settle(c, state, summary, config.newton_refine)
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
            "final_t": state.t,
            "steps": summary.steps,
            "rejected": summary.rejected,
            "reason": summary.reason,
            "converged_steady": summary.converged_steady,
            "endemic": result.endemic,
            "newton_applied": result.newton_applied,
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
    nan = float("nan")
    return nan, nan, nan, nan


def sweep(
    c_base: CoefficientSet,
    regime: str,
    values,
    sigma: Optional[float] = None,
    out_csv=None,
) -> SweepResult:
    """Equilibria along a descending diffusion schedule vs. the limit profile.

    ``regime`` picks what shrinks: ``"d_I"`` (d_S fixed at the base value),
    ``"d_S"`` (d_I fixed), or ``"joint"`` (``d_S = v`` and ``d_I = sigma v``).
    Each row is a :func:`~sisrd.equilibrium.find_ee` call with its default
    controls, warm-started from the previous equilibrium.  The returned
    ``violations`` map flags rows where a distance column stopped shrinking
    (beyond slack; see :func:`check_trend`).
    """
    vals = [float(v) for v in values]
    if len(vals) == 0:
        raise ValueError("empty sweep schedule")
    if any(v <= 0.0 for v in vals):
        raise ValueError("sweep values must be positive")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValueError("sweep values must be strictly decreasing")
    if regime == "joint" and sigma is None:
        sigma = c_base.sigma()

    oracle = limit_profile(c_base, regime, sigma)
    rows: list[dict] = []
    init = None
    for v in vals:
        if regime == "d_I":
            c = c_base.with_diffusion(d_I=v)
        elif regime == "d_S":
            c = c_base.with_diffusion(d_S=v)
        else:
            c = c_base.with_diffusion(d_S=v, d_I=sigma * v)
        row = {"d_S": c.d_S, "d_I": c.d_I, "sigma": c.sigma()}
        t0 = time.perf_counter()
        try:
            eq = find_ee(c, init=init)
            s_sup, i_sup, s_l1, i_l1 = _row_distances(c, eq, oracle)
            row.update(
                dist_S_sup=s_sup,
                dist_I_sup=i_sup,
                dist_S_L1=s_l1,
                dist_I_L1=i_l1,
                gap=eq.conservation_gap,
                eq=eq,
            )
            init = SimState(eq.S, eq.I)
        except NonConvergenceError as exc:
            nan = float("nan")
            row.update(
                dist_S_sup=nan,
                dist_I_sup=nan,
                dist_S_L1=nan,
                dist_I_L1=nan,
                gap=nan,
                eq=None,
                error=str(exc),
            )
        if c.p == 1.0 and row.get("eq") is not None:
            try:
                row["R0"] = compute_r0(c).value
            except NonConvergenceError:
                row["R0"] = float("nan")
        else:
            row["R0"] = float("nan")
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
