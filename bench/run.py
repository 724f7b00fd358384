"""Benchmark of the ``sisrd`` package: seeded workloads, timed end to end.

Usage, from the root of a checkout::

    python3 bench/run.py --workload scenario_ee --seed 1 --seconds 30 --trace 0

One run generates the workload's configs from ``--seed``, times the
set-up in fresh processes, then runs passes of the workload for about
``--seconds`` seconds (at least one) and checks every output.  With
``--trace 0`` the passes run untraced and the run reports the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the
run reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 only when every check passed.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("scenario_ee", "joint_sweep", "thresholds_limits")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

# Times import, config validation and the realization of every config of
# the workload, inside a fresh interpreter (interpreter start-up excluded).
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sisrd
for path in sys.argv[2:]:
    config = sisrd.load_scenario(path)
    dom = config.build_domain()
    config.build_coefficients(dom)
    config.initial_state(dom)
print(repr(time.perf_counter() - t0))
"""

# printed per workload where they apply; see bench/README.md
BREAKDOWN = (("ee_s", "ee"), ("r0_s", "r0"), ("lambda0_s", "lambda0"), ("limit_s", "limit"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def tail(values: list) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has ten samples beyond it"
    q = int(100 * (n - 10) / n)
    ordered = sorted(values)
    return f"n={n}, p{q}={ordered[min(n - 1, int(q / 100 * n))]:.6g}"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure_setup(paths: list) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *map(str, paths)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed in a fresh process:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sisrd" / "__init__.py").is_file():
        print(f"error: no sisrd package under {SRC}; run from a checkout with src/", file=sys.stderr)
        return 2
    # one BLAS thread, fixed before numpy loads, for every process of the run
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import inputs

    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        paths = inputs.write(inputs.generate(args.workload, args.seed), work)
        return run(args, paths, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class Pass:
    traced: bool
    wall: float
    ops: list
    layers: dict | None  # per-layer metrics of a traced pass


def run_passes(args, wl, full, light) -> tuple:
    """Passes until the next one would end after ``args.seconds``.

    Returns the passes, the peak RSS after set-up plus the first pass (so
    it does not depend on how many passes fit), and the spans of the last
    traced pass.
    """
    import resource

    import tracing

    passes, last_wall, last_spans, peak_rss_mb = [], {}, [], 0.0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = full if traced else light
        tracer.install()
        try:
            t0 = time.perf_counter()
            ops = wl.run_pass(tracer.spans)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        spans = tracer.take()
        wl.after_pass(ops)
        if passes:
            # later passes are compared with the first by their scalars only
            for op in ops:
                op.result = None
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(Pass(traced, wall, ops, tracing.pass_metrics(spans, wall) if traced else None))
        last_wall[traced] = wall
        if traced:
            last_spans = spans
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + last_wall.get(next_traced, wall) > args.seconds:
            return passes, peak_rss_mb, last_spans


def check_outputs(args, wl, passes: list) -> list:
    """Failure messages, each prefixed by the pass and operation it concerns."""
    import checks
    import inputs
    import tracing

    first = passes[0].ops
    failures = {name: msgs for name, msgs in checks.check_pass(wl, first).items() if msgs}
    if args.seed == inputs.DEFAULT_SEED:
        reference = checks.load_reference(wl.name)
        if not reference:
            failures["reference"] = ["no stored reference scalars for the default seed"]
        for op in first:
            msgs = checks.check_reference(op, reference)
            if msgs:
                failures.setdefault(op.name, []).extend(msgs)
    out = []
    by_name = {op.name: op for op in first}
    for k, p in enumerate(passes):
        for op in p.ops:
            if op.error is not None:
                out.append((k, op.name, [f"raised:\n{op.error}"]))
            elif k > 0 and (op.scalars, op.counts) != (by_name[op.name].scalars, by_name[op.name].counts):
                out.append((k, op.name, ["differs from pass 0"]))
            elif op.name in failures:
                out.append((k, op.name, failures[op.name] if k == 0 else ["same output as pass 0"]))
    if "reference" in failures:
        out.append((0, "reference", failures["reference"]))
    layers = [p.layers for p in passes if p.traced]
    for name in tracing.EXACT_COUNTS:
        seen = {m[name] for m in layers}
        if len(seen) > 1:
            out.append((None, name, [f"differs between traced passes: {sorted(seen)}"]))
    return out


def run(args, paths: dict, work: Path) -> int:
    import tracing
    import workloads

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"]
    lines.append("environment " + json.dumps(environment(), sort_keys=True))
    lines.append(
        "configs "
        + " ".join(f"{role}={hashlib.sha256(p.read_bytes()).hexdigest()[:16]}" for role, p in paths.items())
    )

    setup_times = measure_setup(list(paths.values()))

    wl = workloads.WORKLOADS[args.workload](paths, work)
    full = tracing.Tracer()
    if args.trace:
        full.install()
    try:
        wl.prepare()
    finally:
        full.uninstall()
    setup_layers = tracing.setup_metrics(full.take())
    light = tracing.Tracer([t for t in tracing.TARGETS if t.span_name in wl.op_targets])

    passes, peak_rss_mb, last_spans = run_passes(args, wl, full, light)
    failures = check_outputs(args, wl, passes)
    attempted = sum(len(p.ops) for p in passes)
    failed = len(failures)

    untraced = [p for p in passes if not p.traced]
    walls = [p.wall for p in untraced]
    lines.append(f"passes untraced={len(untraced)} traced={len(passes) - len(untraced)}")
    lines.append(f"setup_s {statistics.median(setup_times):.6f} s  median of {len(setup_times)} fresh processes ({tail(setup_times)})")
    lines.append(f"wall_s {statistics.median(walls):.6f} s  median of {len(walls)} passes ({tail(walls)})")
    for name, kind in BREAKDOWN:
        sums = [sum(op.parts.get(kind, 0.0) for op in p.ops) for p in untraced]
        if any(sums):
            lines.append(f"{name} {statistics.median(sums):.6f} s  median of {len(sums)} passes ({tail(sums)})")
        else:
            lines.append(f"{name} n/a  (no such operation in this workload)")
    lines.append(f"peak_rss_mb {peak_rss_mb:.3f} MB  after set-up and the first pass")
    lines.append(f"ops_failed {failed} of ops_total {attempted}")
    lines.append("scalars " + json.dumps({op.name: op.scalars for op in passes[0].ops}, sort_keys=True))
    for k, name, msgs in failures:
        for msg in msgs:
            lines.append(f"FAIL {'' if k is None else f'pass {k} '}{name}: {msg}")

    if args.trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        traced = [p.layers for p in passes if p.traced]
        layer = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
        layer.update(setup_layers)
        layer["trace.untraced_wall_s"] = statistics.median(walls)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
        for name, value in sorted(layer.items()):
            lines.append(f"layer {name} {value:.6g} {units[name]}")
        spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
        tracing.write_spans(last_spans, spans_file)
        lines.append(f"spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for line in lines:
        print(line)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
