"""The three benchmark workloads: one closed-loop client each.

A workload is set up once from its generated config files and then runs
passes.  A pass is a fixed list of calls into the public ``sisrd`` API;
each call is one operation, timed on its own and tagged with the
end-to-end quantity it belongs to:

* ``ee``      -- reaching a certified endemic equilibrium;
* ``r0``      -- ``compute_r0``;
* ``lambda0`` -- top-level ``compute_lambda0``;
* ``limit``   -- limit profiles and bracketing sequences;
* ``dfe``, ``other`` -- the disease-free solve, and the part of a sweep
  outside its ``find_ee`` and ``compute_r0`` calls (in ``wall_s`` only).

``run_pass`` only calls the library.  Reading artifacts back and reducing
results to scalars happens in ``after_pass``, outside the timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

import inputs
import sisrd
from sisrd import cli

ARTIFACTS = (
    "S.csv",
    "I.csv",
    "coincidence_mask_0.csv",
    "coincidence_mask_1.csv",
    "zero_infection_mask.csv",
    "summary.json",
)


@dataclass
class Op:
    name: str
    parts: dict  # kind -> seconds spent in this operation
    result: Any = None
    error: Optional[str] = None
    scalars: dict = field(default_factory=dict)  # physics values, compared to the reference
    counts: dict = field(default_factory=dict)  # work counts, equal on every pass


def _timed(name: str, kind: str, fn, *args, **kwargs) -> Op:
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:  # an operation that raises is counted as failed
        return Op(name, {kind: time.perf_counter() - t0}, error=traceback.format_exc(limit=3))
    return Op(name, {kind: time.perf_counter() - t0}, result=result)


def _integral(dom, values) -> float:
    return float(sisrd.integrate(dom, np.asarray(values, dtype=float)))


class Workload:
    name = ""
    # top-level library calls timed inside a pass when tracing is off; the
    # joint sweep needs them to split a row into its find_ee and R0 parts
    op_targets: tuple = ()

    def __init__(self, paths: dict, workdir: Path):
        self.paths = paths
        self.workdir = workdir
        self.domains = {}
        self.coeffs = {}

    def prepare(self) -> None:
        """In-process set-up: the steps ``setup_s`` times in a fresh process."""
        for role, path in self.paths.items():
            config = sisrd.load_scenario(path)
            dom = config.build_domain()
            self.domains[role] = dom
            self.coeffs[role] = config.build_coefficients(dom)
            config.initial_state(dom)

    def run_pass(self, spans: list) -> list:
        """Call the library once per operation; ``spans`` is the list the
        active tracer records into (empty when nothing is traced)."""
        raise NotImplementedError

    def after_pass(self, ops: list) -> None:
        for op in ops:
            if op.error is None:
                self.reduce(op)

    def reduce(self, op: Op) -> None:
        raise NotImplementedError


class ScenarioEE(Workload):
    """``sisrd simulate`` on scenario1 and on scenario2, artifacts included."""

    name = "scenario_ee"

    def run_pass(self, spans: list) -> list:
        ops = []
        for role in ("s1", "s2"):
            argv = ["simulate", "--config", str(self.paths[role]), "--out", str(self.workdir / f"out_{role}")]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                op = _timed(f"simulate_{role}", "ee", cli.main, argv)
            if op.error is None and op.result != 0:
                op.error = f"sisrd simulate exited {op.result}: {sink.getvalue().strip()}"
            ops.append(op)
        return ops

    def reduce(self, op: Op) -> None:
        role = op.name.split("_", 1)[1]
        out = self.workdir / f"out_{role}"
        digest = hashlib.sha256()
        missing = []
        for name in ARTIFACTS:
            path = out / name
            if path.exists():
                digest.update(name.encode() + b"\0" + path.read_bytes())
            else:
                missing.append(name)
        summary = json.loads((out / "summary.json").read_text()) if not missing else {}
        S = np.loadtxt(out / "S.csv", delimiter=",", skiprows=1)[:, -1] if not missing else None
        I = np.loadtxt(out / "I.csv", delimiter=",", skiprows=1)[:, -1] if not missing else None
        op.result = {"missing": missing, "summary": summary, "S": S, "I": I, "role": role}
        op.scalars = {"mass_S": summary.get("mass_S"), "mass_I": summary.get("mass_I")}
        op.counts = {"steps": summary.get("steps"), "artifacts_sha256": digest.hexdigest()}


class JointSweep(Workload):
    """``harness.sweep`` in the joint regime, five warm-started rows."""

    name = "joint_sweep"
    op_targets = ("equilibrium.find_ee", "spectral.compute_r0")

    def run_pass(self, spans: list) -> list:
        first = len(spans)
        op = _timed("sweep", "other", sisrd.sweep, self.coeffs["sweep"], "joint", inputs.SWEEP_VALUES, sigma=inputs.SIGMA)
        # split the sweep into its find_ee and compute_r0 calls
        for s in spans[first:]:
            kind = {"equilibrium.find_ee": "ee", "spectral.compute_r0": "r0"}.get(s[0])
            if kind is not None:
                op.parts[kind] = op.parts.get(kind, 0.0) + s[2] - s[1]
                op.parts["other"] -= s[2] - s[1]
        return [op]

    def reduce(self, op: Op) -> None:
        dom = self.domains["sweep"]
        for k, row in enumerate(op.result.rows):
            eq = row.get("eq")
            if eq is None:
                continue
            op.scalars[f"row{k}.R0"] = float(row["R0"])
            op.scalars[f"row{k}.mass_S"] = _integral(dom, eq.S.values)
            op.scalars[f"row{k}.mass_I"] = _integral(dom, eq.I.values)
            op.counts[f"row{k}.steps"] = eq.steps


class ThresholdsLimits(Workload):
    """Thresholds on the fine mesh, limit profiles and sequences on the coarse one."""

    name = "thresholds_limits"

    def run_pass(self, spans: list) -> list:
        c = self.coeffs["spectral"]
        lim = self.coeffs["limits"]
        sub = self.coeffs["limits_sublinear"]
        sigma = inputs.SIGMA
        ops = [
            _timed("solve_dfe", "dfe", sisrd.solve_dfe, c),
            _timed("compute_r0", "r0", sisrd.compute_r0, c),
            _timed("compute_lambda0", "lambda0", sisrd.compute_lambda0, c),
            _timed("classify_small_di", "limit", sisrd.classify_small_di, lim),
            _timed("limit_small_ds", "limit", sisrd.limit_small_ds, lim),
            _timed("limit_small_di", "limit", sisrd.limit_small_di, sub),
            _timed("limit_joint_sublinear", "limit", sisrd.limit_joint_sublinear, sub, sigma),
        ]
        for direction in ("increasing", "decreasing"):
            ops.append(_timed(f"monotone_joint_p1.{direction}", "limit", sisrd.monotone_joint_p1, lim, sigma, direction))
            ops.append(
                _timed(f"monotone_joint_sublinear.{direction}", "limit", sisrd.monotone_joint_sublinear, sub, sigma, direction)
            )
        return ops

    def reduce(self, op: Op) -> None:
        r = op.result
        if op.name == "solve_dfe":
            op.scalars = {"mass": _integral(self.domains["spectral"], r.values)}
        elif op.name in ("compute_r0", "compute_lambda0"):
            op.scalars = {"value": float(r.value)}
            op.counts = {"iterations": r.iterations}
        elif op.name == "classify_small_di":
            op.counts = {"high_risk_nodes": int(np.sum(r.masks["high_risk"]))}
        elif op.name.startswith("limit_"):
            dom = self.domains["limits"]
            op.scalars = {"mass_S": _integral(dom, r.S_limit.values), "mass_I": _integral(dom, r.I_limit.values)}
            op.counts = {"steps": r.meta.get("steps", 0)}
        else:
            dom = self.domains["limits"]
            op.scalars = {"mass_u": _integral(dom, r.final_u), "mass_v": _integral(dom, r.final_v)}
            op.counts = {"iterations": r.n_iterations}


WORKLOADS = {w.name: w for w in (ScenarioEE, JointSweep, ThresholdsLimits)}
