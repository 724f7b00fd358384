"""JSON scenario configs: domain, coefficients, initial data, run controls.

A scenario file is a single JSON object.  Everything that can fail —
unknown keys, malformed formulas, missing fields, out-of-range exponents,
a domain of empty extent or fewer than 3 nodes per axis, a mesh past
:data:`sisrd.grid.MAX_LATTICE_NODES` — fails during
:func:`load_scenario` / :func:`ScenarioConfig.from_dict`, before any mesh
is built or any solve starts.  Formula strings use the
expression language of :mod:`sisrd.formula` in the spatial variables
``x`` (and ``y`` on two-dimensional domains).

Example::

    {
      "version": 1,
      "name": "uniform-square",
      "domain": {"kind": "rectangle", "x_range": [0, 1], "y_range": [0, 1],
                 "shape": [65, 65]},
      "coefficients": {"beta": "2", "gamma": "1", "eta": "1", "lambda": "1"},
      "params": {"d_S": 0.1, "d_I": 0.05, "p": 1, "q": 1},
      "initial": {"S": "0.8", "I": "0.2"},
      "stopping": {"steady_tol": 1e-9, "t_final": 4000.0}
    }

Optional blocks: ``"stepping"`` (``dt_max``, ``dt_min``),
``"outputs"`` (``snapshot_every``, ``mask_deltas``, ``zero_infection_tol``),
a free-text ``"comment"`` (accepted and ignored), and ``"sigma"`` (the
joint regime's diffusion ratio for ``sisrd sweep`` and ``sisrd
asymptotics``).  The ``stopping`` and ``stepping`` values must be positive;
those set (``null`` counts as unset) become
:attr:`ScenarioConfig.controls`, the keywords of
:func:`sisrd.dynamics.run`, which supplies the stepping defaults.  The
domain's ``nodes`` and ``shape`` entries must be JSON integers, and every
number in the file must be finite (``json`` reads ``Infinity``, ``NaN``
and integers past the float range, which are refused).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .coefficients import CoefficientSet, evaluate_formula_on
from .dynamics import SimState
from .formula import FormulaError, free_variables, parse
from .grid import DiscreteDomain, DomainError, DomainSpec, build_domain, check_lattice_size

__all__ = ["ConfigError", "ScenarioConfig", "load_scenario"]


class ConfigError(ValueError):
    """A scenario file is malformed; the message names the offending key."""


_DOMAIN_KEYS = {
    "interval": {"start", "end", "nodes"},
    "rectangle": {"x_range", "y_range", "shape"},
    "disk": {"radius", "center", "cell_size"},
}
_COEFF_KEYS = {"beta", "gamma", "eta", "lambda"}
_PARAM_KEYS = {"d_S", "d_I", "p", "q"}
_STOP_KEYS = {"t_final", "steady_tol"}
_STEP_KEYS = {"dt_max", "dt_min"}
_OUTPUT_KEYS = {"snapshot_every", "mask_deltas", "zero_infection_tol"}
_TOP_KEYS = {
    "version",
    "name",
    "comment",
    "domain",
    "coefficients",
    "params",
    "initial",
    "stopping",
    "stepping",
    "outputs",
    "sigma",
}


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _no_extras(d: dict, allowed: set, where: str) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise ConfigError(f"unknown key(s) {extra} in {where}; allowed: {sorted(allowed)}")


def _block(data: dict, key: str, origin: str, allowed: set, required: bool = True) -> dict:
    block = _require(data, key, origin) if required else data.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{origin}.{key} must be an object, got {block!r}")
    _no_extras(block, allowed, f"{origin}.{key}")
    return block


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer past the float range
        return False


def _number(value, where: str) -> float:
    """A finite JSON number (``json`` reads ``Infinity`` and ``NaN`` too)."""
    if not _is_number(value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not _is_finite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be two numbers, got {value!r}")
    if any(_is_number(v) and not _is_finite(v) for v in value):
        raise ConfigError(f"{where} must be two finite numbers, got {value!r}")
    return tuple(_number(v, where) for v in value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _formula_source(value, where: str, dim: int) -> str:
    """Accept a finite number or a formula string; parse-check strings eagerly."""
    if _is_number(value):
        return repr(_number(value, where))
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a number or a formula string")
    try:
        tree = parse(value)
    except FormulaError as exc:
        raise ConfigError(f"bad formula for {where}: {exc}") from exc
    if dim == 1 and "y" in free_variables(tree):
        raise ConfigError(f"{where} references y but the domain is one-dimensional")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario; building meshes and fields is deferred."""

    name: str
    domain_spec: DomainSpec
    beta: str
    gamma: str
    eta: str
    recruitment: str
    d_S: float
    d_I: float
    p: float
    q: float
    initial_S: str
    initial_I: str
    controls: dict  # the march's stopping/stepping keywords the file sets
    snapshot_every: int
    mask_deltas: tuple
    zero_infection_tol: float
    sigma: Optional[float]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, origin: str = "scenario") -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"{origin}: top level must be a JSON object")
        _no_extras(data, _TOP_KEYS, origin)
        version = _require(data, "version", origin)
        if version != 1:
            raise ConfigError(f"{origin}: unsupported version {version!r}")

        dom_block = _require(data, "domain", origin)
        spec = cls._domain_spec(dom_block, f"{origin}.domain")
        try:
            check_lattice_size(spec)
        except DomainError as exc:
            raise ConfigError(f"bad {origin}.domain: {exc}") from None
        dim = 1 if spec.kind == "interval" else 2

        coeff = _block(data, "coefficients", origin, _COEFF_KEYS)
        sources = {
            key: _formula_source(
                _require(coeff, key, f"{origin}.coefficients"),
                f"{origin}.coefficients.{key}",
                dim,
            )
            for key in ("beta", "gamma", "eta", "lambda")
        }

        params = _block(data, "params", origin, _PARAM_KEYS)
        d_S = _number(_require(params, "d_S", f"{origin}.params"), "params.d_S")
        d_I = _number(_require(params, "d_I", f"{origin}.params"), "params.d_I")
        p = _number(_require(params, "p", f"{origin}.params"), "params.p")
        q = _number(_require(params, "q", f"{origin}.params"), "params.q")
        if d_S <= 0.0 or d_I <= 0.0:
            raise ConfigError("params.d_S and params.d_I must be positive")
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"params.p must lie in (0, 1], got {p!r}")
        if q <= 0.0:
            raise ConfigError(f"params.q must be positive, got {q!r}")

        initial = _block(data, "initial", origin, {"S", "I"})
        init_S = _formula_source(
            _require(initial, "S", f"{origin}.initial"), f"{origin}.initial.S", dim
        )
        init_I = _formula_source(
            _require(initial, "I", f"{origin}.initial"), f"{origin}.initial.I", dim
        )

        controls = {}
        for key, allowed, required in (
            ("stopping", _STOP_KEYS, True),
            ("stepping", _STEP_KEYS, False),
        ):
            for name, value in _block(data, key, origin, allowed, required).items():
                if value is None:
                    continue
                if not _number(value, f"{key}.{name}") > 0.0:
                    raise ConfigError(f"{key}.{name} must be positive, got {value!r}")
                controls[name] = float(value)
        if "t_final" not in controls and "steady_tol" not in controls:
            raise ConfigError(f"{origin}.stopping needs t_final, steady_tol, or both")

        outputs = _block(data, "outputs", origin, _OUTPUT_KEYS, required=False)
        every = _integer(outputs.get("snapshot_every", 0), "outputs.snapshot_every")
        if every < 0:
            raise ConfigError(f"outputs.snapshot_every must be nonnegative, got {every!r}")
        deltas = outputs.get("mask_deltas", [1e-2, 1e-4])
        if not isinstance(deltas, list) or not all(
            _number(d, "outputs.mask_deltas") > 0.0 for d in deltas
        ):
            raise ConfigError("outputs.mask_deltas must be a list of positive numbers")

        zero_tol = _number(outputs.get("zero_infection_tol", 1e-2), "outputs.zero_infection_tol")
        if zero_tol <= 0.0:
            raise ConfigError(f"outputs.zero_infection_tol must be positive, got {zero_tol!r}")

        sigma = data.get("sigma")
        if sigma is not None:
            sigma = _number(sigma, "sigma")
            if sigma <= 0.0:
                raise ConfigError("sigma must be positive")

        return cls(
            name=str(data.get("name", "scenario")),
            domain_spec=spec,
            beta=sources["beta"],
            gamma=sources["gamma"],
            eta=sources["eta"],
            recruitment=sources["lambda"],
            d_S=d_S,
            d_I=d_I,
            p=p,
            q=q,
            initial_S=init_S,
            initial_I=init_I,
            controls=controls,
            snapshot_every=every,
            mask_deltas=tuple(float(d) for d in deltas),
            zero_infection_tol=zero_tol,
            sigma=sigma,
        )

    @staticmethod
    def _domain_spec(block, where: str) -> DomainSpec:
        if not isinstance(block, dict):
            raise ConfigError(f"{where} must be an object")
        kind = _require(block, "kind", where)
        if not isinstance(kind, str) or kind not in _DOMAIN_KEYS:
            raise ConfigError(
                f"{where}.kind must be one of {sorted(_DOMAIN_KEYS)}, got {kind!r}"
            )
        _no_extras(block, _DOMAIN_KEYS[kind] | {"kind"}, where)
        try:
            if kind == "interval":
                return DomainSpec.interval(
                    _number(_require(block, "start", where), f"{where}.start"),
                    _number(_require(block, "end", where), f"{where}.end"),
                    _integer(_require(block, "nodes", where), f"{where}.nodes"),
                )
            if kind == "rectangle":
                shape = _require(block, "shape", where)
                if not isinstance(shape, list) or len(shape) != 2:
                    raise ConfigError(f"{where}.shape must be two integers, got {shape!r}")
                return DomainSpec.rectangle(
                    _pair(_require(block, "x_range", where), f"{where}.x_range"),
                    _pair(_require(block, "y_range", where), f"{where}.y_range"),
                    tuple(_integer(n, f"{where}.shape") for n in shape),
                )
            return DomainSpec.disk(
                _number(_require(block, "radius", where), f"{where}.radius"),
                _pair(block["center"], f"{where}.center") if "center" in block else (0.0, 0.0),
                _number(_require(block, "cell_size", where), f"{where}.cell_size"),
            )
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {where}: {exc}") from exc

    # -- realization --------------------------------------------------------

    def build_domain(self) -> DiscreteDomain:
        return build_domain(self.domain_spec)

    def build_coefficients(self, dom: DiscreteDomain) -> CoefficientSet:
        return CoefficientSet.from_formulas(
            dom,
            beta=self.beta,
            gamma=self.gamma,
            eta=self.eta,
            recruitment=self.recruitment,
            d_S=self.d_S,
            d_I=self.d_I,
            p=self.p,
            q=self.q,
        )

    def initial_state(self, dom: DiscreteDomain) -> SimState:
        S0 = evaluate_formula_on(dom, self.initial_S)
        I0 = evaluate_formula_on(dom, self.initial_I)
        if S0.min() <= 0.0:
            raise ConfigError("initial.S must be strictly positive on the domain")
        if I0.min() < 0.0:
            raise ConfigError("initial.I must be nonnegative on the domain")
        if self.p < 1.0 and I0.min() <= 0.0:
            raise ConfigError(
                "initial.I must be strictly positive when p < 1 "
                "(the incidence is not Lipschitz at I = 0)"
            )
        return SimState(dom.field(S0), dom.field(I0))


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(data, origin=str(path))
