"""Spans around calls into the ``sisrd`` modules, installed from outside.

:class:`Tracer` replaces each traced function with a wrapper that records
one span per call: name, start, end and the index of the enclosing span.
The wrapper is bound under every name that refers to the function in any
loaded ``sisrd`` module, so ``spd_solve`` is traced whether it is called
from ``solvers`` itself or through the names bound by ``dynamics``,
``equilibrium``, ``spectral`` and ``asymptotics``.  A target that no
longer exists is skipped and reads as zero calls.

Spans stay in memory until :meth:`Tracer.take` hands them over.  Each span
may carry a small ``info`` dict taken from the call's return value (CG
iterations, accepted or rejected step, ...).  The hooks read only public
result fields and fall back to nothing when a field is missing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# span layout: [name, start, end, parent index, info]
NAME, START, END, PARENT, INFO = range(5)


def _solve_info(args, kwargs, result, exc):
    if exc is not None:
        return None
    report = result[1]
    A, b = args[0], args[1]
    return {
        "iters": getattr(report, "iterations", 0),
        "converged": getattr(report, "converged", True),
        "nnz": getattr(A, "nnz", 0),
        "n": len(b),
    }


def _eigen_info(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"iters": getattr(result[2], "iterations", 0)}


def _step_info(args, kwargs, result, exc):
    return {"accepted": exc is None}


def _equilibrium_info(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"newton": getattr(result, "newton_iterations", 0)}


def _scenario_info(args, kwargs, result, exc):
    if exc is not None:
        return None
    paths = getattr(result, "paths", {}) or {}
    eq = getattr(result, "result", None)
    return {
        "bytes": sum(p.stat().st_size for p in paths.values() if p.exists()),
        "newton": getattr(eq, "newton_iterations", 0),
    }


def _profile_info(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"steps": (getattr(result, "meta", None) or {}).get("steps", 0)}


def _sequence_info(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"iters": getattr(result, "n_iterations", 0)}


def _run_hook(hook, args, kwargs, result, exc):
    # a result whose shape changed reads as "no info", not as a crash
    try:
        return hook(args, kwargs, result, exc)
    except (AttributeError, IndexError, KeyError, TypeError, OSError):
        return None


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "sisrd.solvers"
    attr: str  # function name, or "Class.method"
    hook: Optional[Callable] = None

    @property
    def span_name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


TARGETS = (
    Target("sisrd.scenario", "load_scenario"),
    Target("sisrd.scenario", "ScenarioConfig.initial_state"),
    Target("sisrd.coefficients", "CoefficientSet.from_formulas"),
    Target("sisrd.grid", "build_domain"),
    Target("sisrd.grid", "shifted_operator"),
    Target("sisrd.grid", "write_field_csv"),
    Target("sisrd.solvers", "spd_solve", _solve_info),
    Target("sisrd.solvers", "generalized_principal_eigenpair", _eigen_info),
    Target("sisrd.dynamics", "step_imex", _step_info),
    Target("sisrd.dynamics", "run"),
    Target("sisrd.equilibrium", "solve_dfe"),
    Target("sisrd.equilibrium", "find_ee", _equilibrium_info),
    Target("sisrd.spectral", "compute_r0"),
    Target("sisrd.spectral", "compute_lambda0"),
    Target("sisrd.asymptotics", "bisect_increasing"),
    Target("sisrd.asymptotics", "eliminate_susceptible"),
    Target("sisrd.asymptotics", "classify_small_di"),
    Target("sisrd.asymptotics", "limit_small_di", _profile_info),
    Target("sisrd.asymptotics", "limit_small_ds", _profile_info),
    Target("sisrd.asymptotics", "limit_joint_p1"),
    Target("sisrd.asymptotics", "limit_joint_sublinear"),
    Target("sisrd.asymptotics", "monotone_joint_p1", _sequence_info),
    Target("sisrd.asymptotics", "monotone_joint_sublinear", _sequence_info),
    Target("sisrd.harness", "run_scenario", _scenario_info),
    Target("sisrd.harness", "sweep"),
    Target("sisrd.cli", "main"),
)


class Tracer:
    """Installs span-recording wrappers and collects the spans they record."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []  # (owner, attribute, original value)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "sisrd" or name.startswith("sisrd.")]
        for t in self.targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                continue
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(t, raw.__func__))
                else:
                    wrapped = self._wrap(t, raw)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(t, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, name, value))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, hook = target.span_name, target.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                if hook is not None:
                    span[INFO] = _run_hook(hook, args, kwargs, None, exc)
                raise
            span[END] = clock()
            stack.pop()
            if hook is not None:
                span[INFO] = _run_hook(hook, args, kwargs, result, None)
            return result

        return wrapper

    # -- collection ----------------------------------------------------------

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: list) -> list:
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def write_spans(spans: list, path) -> None:
    """One line per span: index, parent, name, start and end in seconds."""
    with open(path, "w", newline="\n") as fh:
        fh.write("index,parent,name,start_s,end_s\n")
        t0 = spans[0][START] if spans else 0.0
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[PARENT]},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

LAYERS = (
    "scenario",
    "coefficients",
    "grid",
    "solvers",
    "dynamics",
    "equilibrium",
    "spectral",
    "asymptotics",
    "harness",
    "cli",
)

# counts that must repeat exactly from pass to pass and run to run
EXACT_COUNTS = (
    "solvers.spd_solve_calls",
    "solvers.cg_iters",
    "solvers.unconverged_solves",
    "solvers.eigen_calls",
    "solvers.power_iters",
    "grid.shifted_operator_calls",
    "dynamics.step_attempts",
    "dynamics.steps_accepted",
    "dynamics.steps_rejected",
    "equilibrium.newton_iters",
    "equilibrium.solve_dfe_calls",
    "spectral.lambda0_polish_solves",
    "asymptotics.bisect_calls",
    "asymptotics.march_steps",
    "asymptotics.sequence_iters",
    "grid.write_field_csv_calls",
    "harness.bytes_written",
)


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
    return ordered[k]


def pass_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one pass, from the spans it recorded."""
    selfs = self_times(spans)
    idx: dict = {}
    for i, s in enumerate(spans):
        idx.setdefault(s[NAME], []).append(i)

    def calls(name):
        return len(idx.get(name, ()))

    def incl(name):
        return sum(spans[i][END] - spans[i][START] for i in idx.get(name, ()))

    def own(name):
        return sum(selfs[i] for i in idx.get(name, ()))

    def infos(name):
        return [spans[i][INFO] or {} for i in idx.get(name, ())]

    solves = infos("solvers.spd_solve")
    cg_iters = sum(x.get("iters", 0) for x in solves)
    # per CG iteration: one sparse product (2 nnz) and 13 n of dots,
    # updates and the diagonal preconditioner; plus one product to start
    flops = sum(
        (x.get("iters", 0) + 1) * 2 * x.get("nnz", 0) + x.get("iters", 0) * 13 * x.get("n", 0)
        for x in solves
    )
    steps = infos("dynamics.step_imex")
    accepted = sum(1 for x in steps if x.get("accepted"))
    step_ms = [1e3 * (spans[i][END] - spans[i][START]) for i in idx.get("dynamics.step_imex", ())]

    # Newton iterations: count find_ee results, and run_scenario results
    # only when they did not go through find_ee
    newton = sum(x.get("newton", 0) for x in infos("equilibrium.find_ee"))
    via_find_ee = set()
    for i in idx.get("equilibrium.find_ee", ()):
        p = spans[i][PARENT]
        while p >= 0:
            via_find_ee.add(p)
            p = spans[p][PARENT]
    newton += sum(
        (spans[i][INFO] or {}).get("newton", 0)
        for i in idx.get("harness.run_scenario", ())
        if i not in via_find_ee
    )
    lambda0 = set(idx.get("spectral.compute_lambda0", ()))
    polish = sum(1 for i in idx.get("solvers.spd_solve", ()) if spans[i][PARENT] in lambda0)

    root = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m = {
        "solvers.spd_solve_calls": calls("solvers.spd_solve"),
        "solvers.spd_solve_s": incl("solvers.spd_solve"),
        "solvers.cg_iters": cg_iters,
        "solvers.cg_iters_per_solve": cg_iters / len(solves) if solves else 0.0,
        "solvers.unconverged_solves": sum(1 for x in solves if not x.get("converged", True)),
        "solvers.cg_flops_computed": flops,
        "solvers.eigen_calls": calls("solvers.generalized_principal_eigenpair"),
        "solvers.eigen_s": own("solvers.generalized_principal_eigenpair"),
        "solvers.power_iters": sum(x.get("iters", 0) for x in infos("solvers.generalized_principal_eigenpair")),
        "grid.shifted_operator_calls": calls("grid.shifted_operator"),
        "grid.shifted_operator_s": incl("grid.shifted_operator"),
        "dynamics.step_attempts": len(steps),
        "dynamics.steps_accepted": accepted,
        "dynamics.steps_rejected": len(steps) - accepted,
        "dynamics.accept_ratio": accepted / len(steps) if steps else 0.0,
        "dynamics.step_self_s": own("dynamics.step_imex"),
        "dynamics.step_ms_p50": _percentile(step_ms, 50),
        "dynamics.step_ms_p99": _percentile(step_ms, 99),
        "dynamics.run_self_s": own("dynamics.run"),
        "equilibrium.find_ee_self_s": own("equilibrium.find_ee"),
        "equilibrium.newton_iters": newton,
        "equilibrium.solve_dfe_calls": calls("equilibrium.solve_dfe"),
        "equilibrium.solve_dfe_s": incl("equilibrium.solve_dfe"),
        "spectral.r0_self_s": own("spectral.compute_r0"),
        "spectral.lambda0_self_s": own("spectral.compute_lambda0"),
        "spectral.lambda0_polish_solves": polish,
        "asymptotics.bisect_calls": calls("asymptotics.bisect_increasing"),
        "asymptotics.bisect_s": incl("asymptotics.bisect_increasing"),
        "asymptotics.march_steps": sum(
            x.get("steps", 0)
            for name in ("asymptotics.limit_small_di", "asymptotics.limit_small_ds")
            for x in infos(name)
        ),
        "asymptotics.sequence_iters": sum(
            x.get("iters", 0)
            for name in ("asymptotics.monotone_joint_p1", "asymptotics.monotone_joint_sublinear")
            for x in infos(name)
        ),
        "grid.write_field_csv_calls": calls("grid.write_field_csv"),
        "grid.write_field_csv_s": incl("grid.write_field_csv"),
        "harness.bytes_written": sum(x.get("bytes", 0) for x in infos("harness.run_scenario")),
        "harness.run_scenario_self_s": own("harness.run_scenario"),
        "harness.sweep_self_s": own("harness.sweep"),
        "cli.main_self_s": own("cli.main"),
        "trace.spans": len(spans),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - root,
        "trace.attributed_share": root / wall_s if wall_s > 0 else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[i] for i, s in enumerate(spans) if s[NAME].split(".", 1)[0] == layer)
    return m


def setup_metrics(spans: list) -> dict:
    """Set-up layers, from the spans of one traced in-process set-up."""

    def total(name):
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)

    return {
        "scenario.load_s": total("scenario.load_scenario"),
        "grid.build_domain_s": total("grid.build_domain"),
        "coefficients.build_s": total("coefficients.CoefficientSet.from_formulas"),
        "scenario.initial_state_s": total("scenario.ScenarioConfig.initial_state"),
    }


# name, unit, better -- the per-layer metrics a traced run reports
PER_LAYER = (
    ("solvers.spd_solve_calls", "count", "lower"),
    ("solvers.spd_solve_s", "s", "lower"),
    ("solvers.cg_iters", "count", "lower"),
    ("solvers.cg_iters_per_solve", "count", "lower"),
    ("solvers.unconverged_solves", "count", "lower"),
    ("solvers.cg_flops_computed", "flop", "lower"),
    ("solvers.eigen_calls", "count", "lower"),
    ("solvers.eigen_s", "s", "lower"),
    ("solvers.power_iters", "count", "lower"),
    ("grid.shifted_operator_calls", "count", "lower"),
    ("grid.shifted_operator_s", "s", "lower"),
    ("dynamics.step_attempts", "count", "lower"),
    ("dynamics.steps_accepted", "count", "lower"),
    ("dynamics.steps_rejected", "count", "lower"),
    ("dynamics.accept_ratio", "ratio", "higher"),
    ("dynamics.step_self_s", "s", "lower"),
    ("dynamics.step_ms_p50", "ms", "lower"),
    ("dynamics.step_ms_p99", "ms", "lower"),
    ("dynamics.run_self_s", "s", "lower"),
    ("equilibrium.find_ee_self_s", "s", "lower"),
    ("equilibrium.newton_iters", "count", "lower"),
    ("equilibrium.solve_dfe_calls", "count", "lower"),
    ("equilibrium.solve_dfe_s", "s", "lower"),
    ("spectral.r0_self_s", "s", "lower"),
    ("spectral.lambda0_self_s", "s", "lower"),
    ("spectral.lambda0_polish_solves", "count", "lower"),
    ("asymptotics.bisect_calls", "count", "lower"),
    ("asymptotics.bisect_s", "s", "lower"),
    ("asymptotics.march_steps", "count", "lower"),
    ("asymptotics.sequence_iters", "count", "lower"),
    ("grid.write_field_csv_calls", "count", "lower"),
    ("grid.write_field_csv_s", "s", "lower"),
    ("harness.bytes_written", "B", "lower"),
    ("harness.run_scenario_self_s", "s", "lower"),
    ("harness.sweep_self_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("grid.build_domain_s", "s", "lower"),
    ("coefficients.build_s", "s", "lower"),
    ("scenario.initial_state_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
)
