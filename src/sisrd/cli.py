"""Command-line front end.

Every subcommand takes a scenario JSON via ``--config`` (see
:mod:`sisrd.scenario` for the schema).  Exit status: 0 on success, 1 when
a computation fails or an audit finds a violated bound, 2 for bad usage, a
malformed config, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .asymptotics import REGIMES, bounds_audit, limit_profile
from .dynamics import MassBalanceError
from .equilibrium import find_ee
from .grid import load_field_csv, write_field_csv
from .harness import compare_fields, run_scenario, sweep
from .scenario import ConfigError, load_scenario
from .solvers import NonConvergenceError
from .spectral import compute_lambda0, compute_r0

__all__ = ["main"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _finite(text: str) -> float:
    """A finite number; an argparse ``type``, so anything else exits 2."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _number_list(text: str) -> list:
    """Comma-separated finite numbers; an argparse ``type``, so a bad entry exits 2."""
    return [_finite(v) for v in text.split(",") if v.strip()]


def _load(args) -> tuple:
    config = load_scenario(args.config)
    dom = config.build_domain()
    c = config.build_coefficients(dom)
    return config, dom, c


def _regime_inputs(args) -> tuple:
    """Domain, coefficients and sigma (``--sigma``, else the config's) of a ``--regime`` command."""
    config, dom, c = _load(args)
    sigma = args.sigma if args.sigma is not None else config.sigma
    if sigma is None and args.regime == REGIMES[-1]:  # the joint regime
        raise ConfigError("the joint regime needs --sigma (or 'sigma' in the config)")
    return dom, c, sigma


def _cmd_simulate(args) -> int:
    config, _, _ = _load(args)
    art = run_scenario(config, args.out)
    s = art.summary
    print(f"wrote {len(art.paths)} files to {art.out_dir}")
    print(
        f"reason={s['reason']} steps={s['steps']} endemic={s['endemic']} "
        f"gap={_fmt(s['conservation_gap'])}"
    )
    return 0


def _cmd_equilibrium(args) -> int:
    config, dom, c = _load(args)
    eq = find_ee(c, config.initial_state(dom), **config.controls)
    print(f"endemic={eq.endemic} steps={eq.steps} newton={eq.newton_iterations}")
    print(
        f"residual_S={_fmt(eq.residual_S)} residual_I={_fmt(eq.residual_I)} "
        f"gap={_fmt(eq.conservation_gap)}"
    )
    print(
        f"S in [{_fmt(eq.S.values.min())}, {_fmt(eq.S.values.max())}]  "
        f"I in [{_fmt(eq.I.values.min())}, {_fmt(eq.I.values.max())}]"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_field_csv(out / "S.csv", eq.S)
        write_field_csv(out / "I.csv", eq.I)
        print(f"wrote fields to {out}")
    return 0


def _cmd_r0(args) -> int:
    _, _, c = _load(args)
    res = compute_r0(c)
    print(f"R0={_fmt(res.value)} iterations={res.iterations} residual={_fmt(res.residual)}")
    return 0


def _cmd_lambda0(args) -> int:
    _, _, c = _load(args)
    res = compute_lambda0(c)
    print(
        f"lambda0={_fmt(res.value)} iterations={res.iterations} "
        f"residual={_fmt(res.residual)}"
    )
    return 0


def _cmd_asymptotics(args) -> int:
    dom, c, sigma = _regime_inputs(args)
    profile = limit_profile(c, args.regime, sigma)
    print(f"regime={profile.regime} sigma={profile.sigma}")
    for name, mask in profile.masks.items():
        print(f"mask {name}: {int(np.sum(mask))}/{dom.n_nodes} nodes")
    for key, val in sorted(profile.meta.items()):
        print(f"{key}={val!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if profile.S_limit is not None:
            write_field_csv(out / "S_limit.csv", profile.S_limit)
            write_field_csv(out / "I_limit.csv", profile.I_limit)
        for name, fld in profile.envelopes.items():
            write_field_csv(out / f"envelope_{name}.csv", fld)
        for name, mask in profile.masks.items():
            write_field_csv(out / f"mask_{name}.csv", dom.field(mask))
        print(f"wrote profile files to {out}")
    return 0


def _cmd_sweep(args) -> int:
    _, c, sigma = _regime_inputs(args)
    result = sweep(c, args.regime, args.values, sigma=sigma, out_csv=args.out)
    print(f"wrote {len(result.rows)} rows to {result.csv_path}")
    failed = [r for r in result.rows if "error" in r]
    for r in failed:
        print(f"row d_S={_fmt(r['d_S'])} d_I={_fmt(r['d_I'])} failed: {r['error']}")
    if result.violations:
        print(f"trend violations: {result.violations}")
        return 1
    return 0 if not failed else 1


def _cmd_audit(args) -> int:
    config, dom, c = _load(args)
    eq = find_ee(c, config.initial_state(dom), **config.controls)
    report = bounds_audit(c, eq)
    for ch in report.checks:
        status = "ok " if ch["passed"] else "FAIL"
        print(
            f"{status} {ch['name']}: {ch['kind']} bound {_fmt(ch['bound'])}, "
            f"observed {_fmt(ch['observed'])}, margin {_fmt(ch['margin'])}"
        )
    print(f"all_passed={report.all_passed} tolerance={_fmt(report.tolerance)}")
    return 0 if report.all_passed else 1


def _cmd_compare(args) -> int:
    config, dom, _ = _load(args)
    try:
        ca, va = load_field_csv(args.field_a)
        cb, vb = load_field_csv(args.field_b)
    except ValueError as exc:  # a file that is not a finite field is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = compare_fields(dom, ca, va, cb, vb)
    print(f"sup={_fmt(out['sup'])} l1={_fmt(out['l1'])} nodes={out['n_nodes']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sisrd",
        description="Reaction-diffusion SIS solver: equilibria, thresholds, "
        "and small-diffusion limit profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.set_defaults(func=func)
        return p

    p = add("simulate", _cmd_simulate, "march a scenario and write its artifacts")
    p.add_argument("--out", required=True, help="output directory")

    p = add("equilibrium", _cmd_equilibrium, "solve for the steady state")
    p.add_argument("--out", default=None, help="optional directory for S.csv/I.csv")

    add("r0", _cmd_r0, "basic reproduction number (p = 1 only)")
    add("lambda0", _cmd_lambda0, "principal eigenvalue of the linearization")

    p = add("asymptotics", _cmd_asymptotics, "small-diffusion limit profile")
    p.add_argument("--regime", required=True, choices=REGIMES)
    p.add_argument("--sigma", type=_finite, default=None, help="ratio d_I/d_S (joint)")
    p.add_argument("--out", default=None, help="optional directory for profile CSVs")

    p = add("sweep", _cmd_sweep, "equilibria along a shrinking-diffusion schedule")
    p.add_argument("--regime", required=True, choices=REGIMES)
    p.add_argument(
        "--values", required=True, type=_number_list, help="comma-separated descending values"
    )
    p.add_argument("--sigma", type=_finite, default=None)
    p.add_argument("--out", required=True, help="output CSV path")

    add("audit", _cmd_audit, "check an equilibrium against a-priori bounds")

    p = add("compare", _cmd_compare, "distances between two saved fields")
    p.add_argument("field_a", help="first field CSV")
    p.add_argument("field_b", help="second field CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every path a subcommand opens comes from the command line
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, MassBalanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
