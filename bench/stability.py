"""Run-to-run spread of the benchmark, and repeatability of its counts.

Usage, from the root of a checkout::

    python3 bench/stability.py --workloads scenario_ee,joint_sweep,thresholds_limits \\
        --seeds 1-10 --seconds 34 --out bench/results/stability.json
    python3 bench/stability.py --workloads joint_sweep --seeds 1 --repeat 2 --trace 1 ...

For every workload it runs ``bench/run.py`` once per seed (``--repeat``
times each), one run at a time, and reports per metric the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--trace 1`` it also lists the per-layer counts that differ between runs
of the same seed; an empty list means they repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import EXACT_COUNTS  # noqa: E402

BREAKDOWN = ("ee_s", "r0_s", "lambda0_s", "limit_s")


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list):
    """Quartile distance over the median; None when the median is 0."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else None
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            for _ in range(args.repeat):
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                elapsed = time.perf_counter() - t0
                out = proc.stdout.strip().splitlines() or ["{}"]
                result = json.loads(out[-1]) if out[-1].startswith("{") else {}
                # the breakdown lines: "ee_s 10.47 s  median of 2 passes ..."
                printed = {}
                for line in out[:-1]:
                    name, _, rest = line.partition(" ")
                    if name in BREAKDOWN and rest.split()[1:2] == ["s"]:
                        printed[name] = float(rest.split()[0])
                if printed:
                    result["printed"] = printed
                runs.append({"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed, **result})
                print(f"{workload} seed {seed}: exit {proc.returncode}, {elapsed:.1f} s, "
                      f"correct={result.get('correct')}", flush=True)
        values, units = {}, {}
        for r in runs:
            units.update((name, m["unit"]) for name, m in r.get("metrics", {}).items())
            for name, m in r.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
            for name, v in r.get("printed", {}).items():
                values.setdefault(name, []).append(v)
        names = sorted(values)
        summary = {
            name: {"median": statistics.median(v), "spread": spread(v), "values": v}
            for name, v in values.items()
        }
        entry = {
            "runs": [{k: v for k, v in r.items() if k not in ("metrics", "printed")} for r in runs],
            "metrics": summary,
        }
        if args.trace:
            by_seed = {}
            for r in runs:
                by_seed.setdefault(r["seed"], []).append(r.get("metrics", {}))
            entry["counts_differing_within_seed"] = sorted(
                name
                for group in by_seed.values()
                for name in EXACT_COUNTS
                if len({json.dumps(m.get(name)) for m in group}) > 1
            )
        report["workloads"][workload] = entry
        for name in names:
            s = summary[name]
            shown = "n/a" if s["spread"] is None else f"{100 * s['spread']:.2f}%"
            print(f"  {name}: median {s['median']:.6g} {units.get(name, 's')}, spread {shown}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
