"""Correctness gate: every operation's output is checked after the passes.

The checks are at least as strict as the acceptance suite:

* every equilibrium has conservation gap <= 1e-6 and sup residual <= 1e-8,
  recomputed from the written ``S.csv``/``I.csv`` for ``simulate``;
* ``simulate`` exits 0 and writes its full artifact set;
* ``R0`` and ``lambda0`` agree with an independent shift-invert Lanczos
  solve (scipy ``eigsh``), and ``R0 > 1`` exactly when ``lambda0 < 0``;
* ``R0`` is nonincreasing in ``d_I`` along the sweep, which has no failed
  rows and no trend ``violations``;
* limit profiles have ``residual_sup <= 1e-8``;
* bracketing sequences converge, and both directions agree with each
  other and with the independent limit to 1e-8;
* every pass gives the same scalars, work counts and artifact bytes;
* for the default seed, the scalars match ``reference.json`` to a relative
  ``REFERENCE_RTOL``.

Each function returns a list of failure messages for one operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, spsolve

import inputs
import sisrd
from sisrd.equilibrium import elliptic_residuals

GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-8
EIGEN_RTOL = 1e-7
SEQUENCE_TOL = 1e-8
REFERENCE_RTOL = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _equilibrium(c, S, I, label: str) -> list:
    fails = []
    res_S, res_I = elliptic_residuals(c, S, I)
    residual = max(float(np.max(np.abs(res_S))), float(np.max(np.abs(res_I))))
    if not residual <= RESIDUAL_TOL:
        fails.append(f"{label}: sup residual {residual:.3e} > {RESIDUAL_TOL:g}")
    gap = sisrd.conservation_gap(c, S, I)
    if not gap <= GAP_TOL:
        fails.append(f"{label}: conservation gap {gap:.3e} > {GAP_TOL:g}")
    if not (S.min() > 0.0 and I.min() >= 0.0):
        fails.append(f"{label}: lost positivity (min S {S.min():.3e}, min I {I.min():.3e})")
    if not sisrd.integrate(c.domain, I) > 1e-10 * c.domain.measure:
        fails.append(f"{label}: not endemic")
    return fails


def independent_r0(c) -> float:
    """Largest ``mu`` of ``W diag(beta S~^q) phi = mu (d_I K + W diag(gamma+eta)) phi``."""
    dom = c.domain
    w = dom.cell_measures
    S_dfe = spsolve(sisrd.shifted_operator(dom, 1.0, c.d_S).tocsc(), w * c.recruitment.values)
    A = sp.diags(w * c.beta.values * S_dfe**c.q).tocsc()
    B = (c.d_I * sisrd.stiffness_matrix(dom) + sp.diags(w * (c.gamma.values + c.eta.values))).tocsc()
    # A is diagonal and positive, so the largest mu is the smallest nu of
    # B phi = nu A phi, which shift-invert about 0 finds first
    vals = eigsh(B, k=1, M=A, sigma=0.0, which="LM", v0=np.ones(dom.n_nodes), return_eigenvectors=False)
    return 1.0 / float(vals[0])


def independent_lambda0(c) -> float:
    """Smallest eigenvalue of ``d_I K - W diag(beta Lambda^q - gamma - eta)`` against ``W``."""
    dom = c.domain
    w = dom.cell_measures
    potential = c.beta.values * c.recruitment.values**c.q - c.gamma.values - c.eta.values
    D = sp.diags(1.0 / np.sqrt(w))
    M = (D @ (c.d_I * sisrd.stiffness_matrix(dom) - sp.diags(w * potential)) @ D).tocsc()
    # every eigenvalue is >= -max(potential), so that shift sits below the bottom
    shift = -float(potential.max()) - 1.0
    vals = eigsh(M, k=1, sigma=shift, which="LM", v0=np.ones(dom.n_nodes), return_eigenvectors=False)
    return float(vals[0])


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_simulate(workload, op) -> list:
    res = op.result
    fails = [f"missing artifact {name}" for name in res["missing"]]
    if fails:
        return fails
    summary = res["summary"]
    c = workload.coeffs[res["role"]]
    if len(res["S"]) != c.domain.n_nodes:
        fails.append(f"S.csv has {len(res['S'])} rows, mesh has {c.domain.n_nodes} nodes")
        return fails
    if not (summary.get("converged_steady") and summary.get("endemic")):
        fails.append(f"summary: converged_steady={summary.get('converged_steady')} endemic={summary.get('endemic')}")
    for key in ("residual_S", "residual_I"):
        if not summary.get(key, math.inf) <= RESIDUAL_TOL:
            fails.append(f"summary {key} {summary.get(key)} > {RESIDUAL_TOL:g}")
    return fails + _equilibrium(c, res["S"], res["I"], op.name)


def check_sweep(workload, op) -> list:
    result = op.result
    c = workload.coeffs["sweep"]
    fails = []
    if len(result.rows) != len(inputs.SWEEP_VALUES):
        fails.append(f"sweep returned {len(result.rows)} rows")
    if result.violations:
        fails.append(f"sweep trend violations {result.violations}")
    r0 = []
    for k, row in enumerate(result.rows):
        if "error" in row or row.get("eq") is None:
            fails.append(f"row {k} failed: {row.get('error')}")
            continue
        eq = row["eq"]
        c_row = c.with_diffusion(d_S=row["d_S"], d_I=row["d_I"])
        fails += _equilibrium(c_row, eq.S.values, eq.I.values, f"row {k}")
        r0.append(float(row["R0"]))
        if not r0[-1] > 1.0:
            fails.append(f"row {k}: endemic but R0 = {r0[-1]!r}")
    # d_I shrinks along the rows, so R0 may only grow
    for k in range(len(r0) - 1):
        if not r0[k + 1] >= r0[k] * (1.0 - 1e-9):
            fails.append(f"R0 increases with d_I between rows {k} and {k + 1}: {r0[k]!r} -> {r0[k + 1]!r}")
    return fails


def check_thresholds(workload, ops: dict) -> dict:
    """Failures per operation name of one thresholds_limits pass."""
    out = {name: [] for name in ops}
    c = workload.coeffs["spectral"]

    dfe = ops["solve_dfe"].result
    if dfe is not None:
        L = sisrd.assemble_neumann_laplacian(c.domain)
        res = c.d_S * (L @ dfe.values) - dfe.values + c.recruitment.values
        if not float(np.max(np.abs(res))) <= RESIDUAL_TOL:
            out["solve_dfe"].append(f"disease-free residual {float(np.max(np.abs(res))):.3e}")

    r0 = ops["compute_r0"].result
    lam0 = ops["compute_lambda0"].result
    if r0 is not None:
        ref = independent_r0(c)
        if not (r0.converged and _close(r0.value, ref, EIGEN_RTOL)):
            out["compute_r0"].append(f"R0 {r0.value!r} vs eigsh {ref!r} (converged={r0.converged})")
        if not r0.value > 1.0:
            out["compute_r0"].append(f"R0 {r0.value!r} <= 1 on an endemic problem")
    if lam0 is not None:
        ref = independent_lambda0(c)
        if not (lam0.converged and abs(lam0.value - ref) <= EIGEN_RTOL * max(1.0, abs(ref))):
            out["compute_lambda0"].append(f"lambda0 {lam0.value!r} vs eigsh {ref!r} (converged={lam0.converged})")
    if r0 is not None and lam0 is not None and (r0.value > 1.0) != (lam0.value < 0.0):
        out["compute_lambda0"].append(f"threshold mismatch: R0 {r0.value!r}, lambda0 {lam0.value!r}")

    cls = ops["classify_small_di"].result
    if cls is not None:
        hi, lo = cls.masks["high_risk"], cls.masks["vanishing"]
        if not hi.any() or np.any(hi & lo):
            out["classify_small_di"].append("high-risk set empty or overlapping the vanishing set")

    for name in ("limit_small_ds", "limit_small_di"):
        prof = ops[name].result
        if prof is not None and not prof.meta.get("residual_sup", math.inf) <= RESIDUAL_TOL:
            out[name].append(f"residual_sup {prof.meta.get('residual_sup')} > {RESIDUAL_TOL:g}")
    joint = ops["limit_joint_sublinear"].result
    if joint is not None and not joint.meta.get("mass_identity_sup", math.inf) <= RESIDUAL_TOL:
        out["limit_joint_sublinear"].append(f"mass identity {joint.meta.get('mass_identity_sup')}")

    for family in ("monotone_joint_p1", "monotone_joint_sublinear"):
        seqs = {d: ops[f"{family}.{d}"].result for d in ("increasing", "decreasing")}
        for d, seq in seqs.items():
            if seq is None:
                continue
            gap = max(float(np.max(np.abs(seq.final_u - seq.u_limit))), float(np.max(np.abs(seq.final_v - seq.v_limit))))
            if not (seq.converged and gap <= SEQUENCE_TOL):
                out[f"{family}.{d}"].append(f"converged={seq.converged}, distance to limit {gap:.3e}")
        if all(s is not None for s in seqs.values()):
            inc, dec = seqs["increasing"], seqs["decreasing"]
            gap = max(float(np.max(np.abs(inc.final_u - dec.final_u))), float(np.max(np.abs(inc.final_v - dec.final_v))))
            if not gap <= SEQUENCE_TOL:
                out[f"{family}.decreasing"].append(f"directions disagree by {gap:.3e}")
    return out


def check_pass(workload, ops: list) -> dict:
    """Failures per operation name of one pass; operations that raised are skipped."""
    if workload.name == "scenario_ee":
        return {op.name: check_simulate(workload, op) for op in ops if op.error is None}
    if workload.name == "joint_sweep":
        return {op.name: check_sweep(workload, op) for op in ops if op.error is None}
    by_name = {op.name: op for op in ops}
    return check_thresholds(workload, by_name)


def load_reference(workload: str) -> dict:
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    return data.get(workload, {})


def check_reference(op, reference: dict) -> list:
    fails = []
    for key, expected in reference.get(op.name, {}).items():
        got = op.scalars.get(key)
        if got is None or not _close(float(got), float(expected), REFERENCE_RTOL):
            fails.append(f"{op.name}.{key} = {got!r}, reference {expected!r}")
    return fails
