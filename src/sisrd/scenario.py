"""JSON scenario configs: domain, coefficients, initial data, run controls.

A scenario file is a single JSON object.  Everything that can fail —
unknown keys, malformed formulas, missing fields, out-of-range exponents,
a domain of empty extent or fewer than 3 nodes per axis, a mesh past
:data:`sisrd.grid.MAX_LATTICE_NODES` — fails during
:func:`load_scenario` / :func:`ScenarioConfig.from_dict`, before any mesh
is built or any solve starts, and the refusal names its key as
``<origin>.<block>.<key>`` (the origin is the file's path).  Formula
strings use the expression language of :mod:`sisrd.formula` in the
spatial variables ``x`` (and ``y`` on two-dimensional domains).

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

The key tables below (``_TOP``, one per domain kind in ``_DOMAINS``, and
the formula keys ``_RATES`` and ``_INITIAL``) are the one list of the keys
a file may hold, each with its reader and, if it may be left out, its
default.  ``version`` is the integer 1 (not ``true`` or ``1.0``), ``name``
a string; ``comment`` is free text, accepted and ignored; ``sigma`` is the
joint regime's diffusion ratio for ``sisrd sweep`` and ``sisrd
asymptotics``.  The ``stopping`` and ``stepping`` values set (``null``
counts as unset) become :attr:`ScenarioConfig.controls`, the keywords of
:func:`sisrd.dynamics.run`, which supplies the stepping defaults.  Every
number in the file must be finite (``json`` reads ``Infinity``, ``NaN``
and integers past the float range, which are refused).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .coefficients import CoefficientSet, evaluate_formula_on
from .dynamics import SimState
from .formula import FormulaDomainError, FormulaError, free_variables, parse
from .grid import DiscreteDomain, DomainError, DomainSpec, build_domain, check_lattice_size

__all__ = ["ConfigError", "ScenarioConfig", "load_scenario"]


class ConfigError(ValueError):
    """A scenario file is malformed; the message names the offending key."""


def _read(block, keys: dict, where: str) -> dict:
    """Read a config object by its key table.

    Each entry of ``keys`` is a reader, called as ``reader(value,
    "<where>.<key>")``, or the table of a nested object; either marks a
    required key.  A ``(reader, default)`` pair marks a key that may be
    left out, which then reads its default as if the file gave it.  Keys
    the table does not list are refused.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    extra = sorted(set(block) - set(keys))
    if extra:
        raise ConfigError(f"unknown key(s) {extra} in {where}; allowed: {sorted(keys)}")
    values = {}
    for key, entry in keys.items():
        optional = isinstance(entry, tuple)
        reader, default = entry if optional else (entry, None)
        if key not in block and not optional:
            raise ConfigError(f"missing key {key!r} in {where}")
        value, path = block.get(key, default), f"{where}.{key}"
        values[key] = _read(value, reader, path) if isinstance(reader, dict) else reader(value, path)
    return values


# -- readers: each takes a value and its key path, and returns what is kept


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


def _positive(value, where: str) -> float:
    number = _number(value, where)
    if not number > 0.0:
        raise ConfigError(f"{where} must be positive, got {number!r}")
    return number


def _positive_or_null(value, where: str) -> Optional[float]:
    """``null`` leaves a run control (or ``sigma``) unset."""
    return None if value is None else _positive(value, where)


def _exponent(value, where: str) -> float:
    number = _number(value, where)
    if not 0.0 < number <= 1.0:
        raise ConfigError(f"{where} must lie in (0, 1], got {number!r}")
    return number


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


def _count(value, where: str) -> int:
    if _integer(value, where) < 0:
        raise ConfigError(f"{where} must be nonnegative, got {value!r}")
    return value


def _shape(value, where: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be two integers, got {value!r}")
    return tuple(_integer(n, where) for n in value)


def _deltas(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(_number(d, where) > 0.0 for d in value):
        raise ConfigError(f"{where} must be a list of positive numbers")
    return tuple(float(d) for d in value)


def _version(value, where: str) -> int:
    if _integer(value, where) != 1:
        raise ConfigError(f"{where}: unsupported version {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _as_is(value, where: str):
    return value


def _formula(value, where: str, interval: bool = False) -> str:
    """A finite number or a formula string, parsed now; an interval's names no ``y``."""
    if _is_number(value):
        return repr(_number(value, where))
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a number or a formula string")
    try:
        tree = parse(value)
    except FormulaError as exc:
        raise ConfigError(f"bad formula for {where}: {exc}") from exc
    if interval and "y" in free_variables(tree):
        raise ConfigError(f"{where} references y but the domain is one-dimensional")
    return value


def _domain(block, where: str) -> DomainSpec:
    """The domain object, read by the key table of its ``kind`` and checked from the spec."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    if "kind" not in block:
        raise ConfigError(f"missing key 'kind' in {where}")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _DOMAINS:
        raise ConfigError(f"{where}.kind must be one of {sorted(_DOMAINS)}, got {kind!r}")
    spec = DomainSpec(**_read(block, {"kind": _as_is, **_DOMAINS[kind]}, where))
    try:
        check_lattice_size(spec)
    except DomainError as exc:
        raise ConfigError(f"bad {where}: {exc}") from None
    return spec


# -- key tables

_DOMAINS = {
    "interval": {"start": _number, "end": _number, "nodes": _integer},
    "rectangle": {"x_range": _pair, "y_range": _pair, "shape": _shape},
    "disk": {"radius": _number, "center": (_pair, [0.0, 0.0]), "cell_size": _number},
}
# the formula keys: key -> ScenarioConfig field
_RATES = {"beta": "beta", "gamma": "gamma", "eta": "eta", "lambda": "recruitment"}
_INITIAL = {"S": "initial_S", "I": "initial_I"}
_FORMULAS = {"coefficients": _RATES, "initial": _INITIAL}
_UNSET = (_positive_or_null, None)  # a positive number, or left unset
_TOP = {
    "version": _version,
    "name": (_string, "scenario"),
    "comment": (_as_is, None),
    "domain": _domain,
    "coefficients": dict.fromkeys(_RATES, _formula),
    "params": {"d_S": _positive, "d_I": _positive, "p": _exponent, "q": _positive},
    "initial": dict.fromkeys(_INITIAL, _formula),
    "stopping": {"t_final": _UNSET, "steady_tol": _UNSET},
    "stepping": ({"dt_max": _UNSET, "dt_min": _UNSET}, {}),
    "outputs": (
        {"snapshot_every": (_count, 0), "mask_deltas": (_deltas, [1e-2, 1e-4]),
         "zero_infection_tol": (_positive, 1e-2)},
        {},
    ),
    "sigma": _UNSET,
}


def _evaluate(dom: DiscreteDomain, src: str, where: str) -> np.ndarray:
    """:func:`evaluate_formula_on`, whose refusal names the formula's key."""
    try:
        return evaluate_formula_on(dom, src)
    except FormulaDomainError as exc:
        raise FormulaDomainError(f"{where}: {exc}") from None


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
        keys, domain = _TOP, data.get("domain")
        if isinstance(domain, dict) and domain.get("kind") == "interval":  # no y in its formulas
            formula = partial(_formula, interval=True)
            keys = {**_TOP, **{block: dict.fromkeys(keys[block], formula) for block in _FORMULAS}}
        top = _read(data, keys, origin)
        stopping = top["stopping"]
        if stopping["t_final"] is None and stopping["steady_tol"] is None:
            raise ConfigError(f"{origin}.stopping needs t_final, steady_tol, or both")
        controls = {k: v for k, v in (stopping | top["stepping"]).items() if v is not None}
        return cls(
            name=top["name"],
            domain_spec=top["domain"],
            **{field: top[block][key] for block, fields in _FORMULAS.items() for key, field in fields.items()},
            **top["params"],
            controls=controls,
            **top["outputs"],
            sigma=top["sigma"],
        )

    # -- realization --------------------------------------------------------

    def build_domain(self) -> DiscreteDomain:
        return build_domain(self.domain_spec)

    def build_coefficients(self, dom: DiscreteDomain) -> CoefficientSet:
        rates = {
            field: _evaluate(dom, getattr(self, field), f"coefficients.{key}")
            for key, field in _RATES.items()
        }
        return CoefficientSet(dom, **rates, d_S=self.d_S, d_I=self.d_I, p=self.p, q=self.q)

    def initial_state(self, dom: DiscreteDomain) -> SimState:
        S0 = _evaluate(dom, self.initial_S, "initial.S")
        I0 = _evaluate(dom, self.initial_I, "initial.I")
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
