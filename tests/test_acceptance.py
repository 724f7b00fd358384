"""Acceptance suite: one test per shipped guarantee, with a scoreboard.

Each test exercises a documented behavior end to end on the shipped
scenarios or on exactly solvable constant-coefficient problems, and
records its verdict; the session summary prints one PASS/FAIL line per
criterion (see ``conftest.py``).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import record_acceptance
from oracles import bisect_increasing, interior_max, nodes_near

from sisrd.asymptotics import (
    bounds_audit,
    monotone_joint_p1,
    monotone_joint_sublinear,
    susceptible_floor_constant,
)
from sisrd.coefficients import CoefficientSet
from sisrd.equilibrium import find_ee, grid_tolerance, solve_dfe
from sisrd.grid import DomainSpec, build_domain, dilate_mask
from sisrd.harness import run_scenario, sweep
from sisrd.scenario import ScenarioConfig, load_scenario
from sisrd.spectral import compute_lambda0, compute_r0

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN_S = 0.6180339887498949  # (sqrt(5) - 1)/2, root of S + S^2 = 1
GOLDEN_I = 0.3819660112501051  # S^2, root of I + sqrt(I) = 1
FLOOR_C0 = 0.20710678118654757  # (sqrt(2) - 1)/2


def check(number: int, passed, detail: str = "") -> None:
    record_acceptance(number, bool(passed), detail)
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Shared problems (module-scoped: each equilibrium is solved once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_ee():
    """17x17 unit square, mass action: Lambda=2, beta=1, gamma=eta=1/2."""
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (17, 17)))
    c = CoefficientSet(
        dom, beta=1.0, gamma=0.5, eta=0.5, recruitment=2.0,
        d_S=0.1, d_I=0.05, p=1.0, q=1.0,
    )
    return c, find_ee(c)


@pytest.fixture(scope="module")
def golden_ee():
    """65-node interval, sublinear: Lambda=1, beta=2, gamma=eta=1, p=1/2."""
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    c = CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=0.1, d_I=0.05, p=0.5, q=1.0,
    )
    return c, find_ee(c)


@pytest.fixture(scope="module")
def disk1():
    cfg = load_scenario(CONFIG_DIR / "scenario1.json")
    dom = cfg.build_domain()
    return cfg, dom, cfg.build_coefficients(dom)


@pytest.fixture(scope="module")
def disk1_ee(disk1):
    cfg, dom, c = disk1
    return find_ee(c, cfg.initial_state(dom))


@pytest.fixture(scope="module")
def disk2():
    cfg = load_scenario(CONFIG_DIR / "scenario2.json")
    dom = cfg.build_domain()
    c = cfg.build_coefficients(dom)
    return cfg, dom, c, find_ee(c, cfg.initial_state(dom))


@pytest.fixture(scope="module")
def battery(square_ee, golden_ee, disk1, disk1_ee, disk2):
    """label, coefficients, equilibrium, constant-coefficients flag."""
    return [
        ("square-mass-action", square_ee[0], square_ee[1], True),
        ("interval-sublinear", golden_ee[0], golden_ee[1], True),
        ("disk-sinusoidal", disk1[2], disk1_ee, False),
        ("disk-piecewise", disk2[2], disk2[3], False),
    ]


@pytest.fixture(scope="module")
def sweep_small_di():
    """Shrinking d_I, sublinear incidence, spatially varying recruitment."""
    dom = build_domain(DomainSpec.interval(0, 1, 257))
    lam = 1.0 + 0.5 * np.sin(np.pi * dom.coords)
    c = CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=lam,
        d_S=0.05, d_I=0.1, p=0.5, q=1.0,
    )
    return sweep(c, "d_I", [1e-1, 1e-2, 1e-3, 1e-4])


@pytest.fixture(scope="module")
def sweep_joint_const():
    """Joint shrink at sigma=2, constant mass action on a 33x33 square."""
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (33, 33)))
    c = CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=2.0,
        d_S=0.1, d_I=0.2, p=1.0, q=1.0,
    )
    return sweep(c, "joint", [1e-1, 1e-2, 1e-3, 1e-4], sigma=2.0)


@pytest.fixture(scope="module")
def sweep_joint_disk(disk1):
    _, _, c = disk1
    return sweep(c, "joint", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], sigma=2.0)


def _sweep_eqs(res, label):
    return [
        (f"{label}[d_S={row['d_S']:g},d_I={row['d_I']:g}]", row["eq"])
        for row in res.rows
        if row["eq"] is not None
    ]


# ---------------------------------------------------------------------------
# 1. Conservation identity
# ---------------------------------------------------------------------------


def test_criterion_01_conservation(
    battery, sweep_small_di, sweep_joint_const, sweep_joint_disk
):
    worst = 0.0
    worst_label = ""
    entries = [(label, eq, const) for label, _, eq, const in battery]
    for res, label in (
        (sweep_small_di, "small-dI"),
        (sweep_joint_const, "joint-const"),
        (sweep_joint_disk, "joint-disk"),
    ):
        entries += [(lbl, eq, False) for lbl, eq in _sweep_eqs(res, label)]
    assert len(entries) >= 13
    for label, eq, const in entries:
        gap = eq.conservation_gap
        if gap > worst:
            worst, worst_label = gap, label
        if const:
            check(1, gap <= 1e-12, f"{label}: constant-coefficient gap {gap:.3e}")
    check(1, worst <= 1e-6, f"worst relative gap {worst:.3e} ({worst_label})")


# ---------------------------------------------------------------------------
# 2. & 3. Constant-coefficient equilibria against algebraic oracles
# ---------------------------------------------------------------------------


def test_criterion_02_mass_action_point(square_ee):
    _, eq = square_ee
    dS = float(np.max(np.abs(eq.S.values - 1.0)))
    dI = float(np.max(np.abs(eq.I.values - 2.0)))
    check(2, eq.endemic and dS <= 1e-6 and dI <= 1e-6,
          f"sup distances to (1, 2): S {dS:.3e}, I {dI:.3e}")


def test_criterion_03_sublinear_golden_point(golden_ee):
    _, eq = golden_ee
    # independent oracle: bisection on I + sqrt(I) = 1
    root_I = float(bisect_increasing(lambda t: t + np.sqrt(t) - 1.0, 0.0, 1.0)[0])
    assert root_I == pytest.approx(GOLDEN_I, abs=1e-12)
    dS = float(np.max(np.abs(eq.S.values - GOLDEN_S)))
    dI = float(np.max(np.abs(eq.I.values - root_I)))
    check(3, eq.endemic and dS <= 1e-5 and dI <= 1e-5,
          f"sup distances to the golden pair: S {dS:.3e}, I {dI:.3e}")


# ---------------------------------------------------------------------------
# 4. Reproduction number
# ---------------------------------------------------------------------------


def test_criterion_04_r0(square_ee, sweep_joint_const, sweep_joint_disk):
    c_square, _ = square_ee
    r0 = compute_r0(c_square).value
    check(4, abs(r0 - 2.0) <= 1e-6, f"constant-coefficient R0 = {r0!r}, expected 2")

    # monotone in d_I with a spatially varying disease-free profile
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    x = dom.coords
    c_vary = CoefficientSet(
        dom, beta=2.0 + np.sin(2 * np.pi * x), gamma=0.6, eta=0.4,
        recruitment=1.0 + 0.5 * x, d_S=0.07, d_I=0.1, p=1.0, q=1.0,
    )
    scan = [compute_r0(c_vary.with_diffusion(d_I=v)).value
            for v in (1e-1, 1e-2, 1e-3, 1e-4)]
    mono = all(b >= a - 1e-9 for a, b in zip(scan, scan[1:]))
    check(4, mono, f"R0 not nonincreasing in d_I: {scan}")
    for res, label in ((sweep_joint_const, "joint-const"), (sweep_joint_disk, "joint-disk")):
        col = [row["R0"] for row in res.rows if not np.isnan(row["R0"])]
        ok = len(col) == len(res.rows) and all(
            b >= a - 1e-9 for a, b in zip(col, col[1:])
        )
        check(4, ok, f"{label} sweep R0 column not nonincreasing in d_I: {col}")

    # ten-problem threshold battery: endemic outcome must match R0 vs 1
    dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (9, 9)))
    for beta in (0.4, 0.6, 0.8, 0.9, 1.1, 1.3, 1.6, 2.0, 3.0, 4.0):
        c = CoefficientSet(
            dom, beta=beta, gamma=0.5, eta=0.5, recruitment=1.0,
            d_S=0.1, d_I=0.05, p=1.0, q=1.0,
        )
        r0 = compute_r0(c).value
        check(4, abs(r0 - beta) <= 1e-6, f"R0 = {r0!r} for beta = {beta}")
        eq = find_ee(c)
        check(4, eq.endemic == (r0 > 1.0),
              f"beta = {beta}: endemic={eq.endemic} but R0 = {r0!r}")


# ---------------------------------------------------------------------------
# 5. Principal eigenvalue
# ---------------------------------------------------------------------------


def test_criterion_05_lambda0(square_ee):
    c, _ = square_ee  # potential beta*Lambda^q - gamma - eta = 1
    res = compute_lambda0(c)
    check(5, abs(res.value - (-1.0)) <= 1e-8,
          f"constant-coefficient lambda0 = {res.value!r}, expected -1")


# ---------------------------------------------------------------------------
# 6. Small-d_I convergence, sublinear incidence
# ---------------------------------------------------------------------------


def test_criterion_06_small_di_convergence(sweep_small_di):
    res = sweep_small_di
    check(6, res.violations == {},
          f"sup distance grew along the schedule: {res.violations}")
    last = res.rows[-1]
    check(
        6,
        last["dist_S_sup"] < 5e-2 and last["dist_I_sup"] < 5e-2,
        f"final sup distances S {last['dist_S_sup']:.3e}, I {last['dist_I_sup']:.3e}",
    )


# ---------------------------------------------------------------------------
# 7. Joint limit at fixed ratio
# ---------------------------------------------------------------------------


def test_criterion_07_joint_convergence(sweep_joint_const, sweep_joint_disk, disk1):
    res = sweep_joint_const
    check(7, res.violations == {},
          f"constant-coefficient distances grew: {res.violations}")
    last = res.rows[-1]
    check(
        7,
        last["dist_S_sup"] < 5e-2 and last["dist_I_sup"] < 5e-2,
        f"final constant-coefficient sup distances S {last['dist_S_sup']:.3e}, "
        f"I {last['dist_I_sup']:.3e}",
    )

    resd = sweep_joint_disk
    check(7, resd.violations == {}, f"disk distances grew: {resd.violations}")
    _, dom, c = disk1
    eq = resd.rows[-1]["eq"]
    zero = eq.I.values < 1e-2
    vanishing = c.recruitment.values < c.risk_ceiling()
    collar = dilate_mask(dom, vanishing, 2) & dilate_mask(dom, ~vanishing, 2)
    stray = int(np.sum((zero != vanishing) & ~collar))
    check(
        7,
        stray == 0,
        f"{stray} nodes disagree with the predicted zero-infection set "
        "beyond a 2-cell collar",
    )


# ---------------------------------------------------------------------------
# 8. Small d_I at p = 1: vanishing infection and ceiling coincidence
# ---------------------------------------------------------------------------


def test_criterion_08_vanishing_and_coincidence(disk1, disk1_ee):
    _, dom, c = disk1
    eq = disk1_ee
    ceiling = c.risk_ceiling()
    vanishing = solve_dfe(c).values < ceiling
    peak_I = interior_max(dom, vanishing, eq.I.values, erode_cells=2)
    check(8, peak_I < 1e-2,
          f"interior max of I over the low-risk region is {peak_I:.3e}")

    coincide = np.abs(eq.S.values - ceiling) < 1e-2
    for point in ((0.5, 0.5), (-0.5, -0.5)):
        near = nodes_near(dom, point)
        ok = len(near) >= 4 and bool(coincide[near].all())
        check(8, ok,
              f"{int(coincide[near].sum())}/{len(near)} grid neighbors of "
              f"{point} coincide with the ceiling")


# ---------------------------------------------------------------------------
# 9. Monotone bracketing sequences
# ---------------------------------------------------------------------------


def _strictly_monotone_early(seq, active, n_check=8) -> bool:
    sign = 1.0 if seq.direction == "increasing" else -1.0
    for n in range(1, min(len(seq.v_iterates), n_check)):
        dv = sign * (seq.v_iterates[n] - seq.v_iterates[n - 1])
        du = sign * (seq.u_iterates[n] - seq.u_iterates[n - 1])
        if active.any() and not ((dv[active] > 0.0).all() and (du[active] > 0.0).all()):
            return False
        if (dv < 0.0).any() or (du < 0.0).any():
            return False
    return True


def test_criterion_09_monotone_sequences(disk1):
    _, disk_dom, disk_c = disk1
    dom = build_domain(DomainSpec.interval(0, 1, 65))
    const_p1 = CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=2.0,
        d_S=0.1, d_I=0.2, p=1.0, q=1.0,
    )
    const_sub = CoefficientSet(
        dom, beta=2.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=0.1, d_I=0.2, p=0.5, q=1.0,
    )
    disk_sub = CoefficientSet(
        disk_dom, beta=disk_c.beta.values, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=1.0, d_I=0.001, p=0.5, q=0.5,
    )
    sigma = 2.0
    cases = [
        ("constant-mass-action", const_p1, monotone_joint_p1),
        ("disk-mass-action", disk_c, monotone_joint_p1),
        ("constant-sublinear", const_sub, monotone_joint_sublinear),
        ("disk-sublinear", disk_sub, monotone_joint_sublinear),
    ]
    for label, c, make in cases:
        inc = make(c, sigma, "increasing")
        dec = make(c, sigma, "decreasing")
        active = inc.v_limit > 0.0
        check(9, _strictly_monotone_early(inc, active),
              f"{label}: increasing sequence not strictly monotone")
        check(9, _strictly_monotone_early(dec, active),
              f"{label}: decreasing sequence not strictly monotone")
        gap_v = float(np.max(np.abs(inc.final_v - dec.final_v)))
        gap_u = float(np.max(np.abs(inc.final_u - dec.final_u)))
        check(9, gap_v <= 1e-8 and gap_u <= 1e-8,
              f"{label}: increasing/decreasing limits differ by {max(gap_v, gap_u):.3e}")

        # independent oracle for the common limit
        lam = c.recruitment.values
        eta = c.eta.values
        ceiling = c.risk_ceiling()
        if c.p == 1.0:
            def fixed_point(v):
                return v - np.maximum(lam + (1.0 - eta / sigma) * v - ceiling, 0.0)
        else:
            expo = (1.0 - c.p) / c.q

            def fixed_point(v):
                return (eta / sigma) * v + ceiling * (v / sigma) ** expo - lam

        hi = np.full(c.domain.n_nodes, sigma * float((lam / eta).max()) + 1.0)
        oracle = bisect_increasing(fixed_point, np.zeros_like(hi), hi)
        dev = float(np.max(np.abs(inc.v_limit - oracle)))
        check(9, dev <= 1e-10, f"{label}: limit vs bisection oracle differs {dev:.3e}")


# ---------------------------------------------------------------------------
# 10. Bound audits
# ---------------------------------------------------------------------------


def test_criterion_10_bounds_audit(battery):
    for label, c, eq, _ in battery:
        report = bounds_audit(c, eq)
        tol = grid_tolerance(c.domain)
        check(10, report.tolerance == tol,
              f"{label}: audit tolerance {report.tolerance!r} != {tol!r}")
        names = ", ".join(ch["name"] for ch in report.checks if not ch["passed"])
        check(10, report.all_passed, f"{label}: failed bounds [{names}]")

    dom = build_domain(DomainSpec.interval(0, 1, 33))
    c0_case = CoefficientSet(
        dom, beta=1.0, gamma=1.0, eta=1.0, recruitment=1.0,
        d_S=0.1, d_I=0.1, p=0.5, q=1.0,
    )
    c0 = susceptible_floor_constant(c0_case)
    check(10, abs(c0 - FLOOR_C0) <= 1e-9,
          f"floor constant {c0!r}, expected {FLOOR_C0!r}")


# ---------------------------------------------------------------------------
# 11. Determinism
# ---------------------------------------------------------------------------


def test_criterion_11_byte_identical_runs(tmp_path):
    data = json.loads((CONFIG_DIR / "scenario1.json").read_text())
    data["domain"]["cell_size"] = 0.0625  # coarsened copy of the shipped scenario
    cfg = ScenarioConfig.from_dict(data)
    a = run_scenario(cfg, tmp_path / "a")
    b = run_scenario(cfg, tmp_path / "b")
    same_names = set(a.paths) == set(b.paths)
    check(11, same_names, "artifact sets differ between runs")
    diff = [name for name, pa in a.paths.items()
            if pa.read_bytes() != b.paths[name].read_bytes()]
    check(11, not diff, f"files differ between identical runs: {diff}")
