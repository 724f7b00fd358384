"""Model coefficients for the two-species epidemic system.

The system couples a susceptible density S and an infected density I:

    dS/dt = d_S Lap(S) + recruitment - S - beta S^q I^p + gamma I
    dI/dt = d_I Lap(I) + beta S^q I^p - (gamma + eta) I

with zero-flux boundaries.  ``beta`` is the transmission rate, ``gamma``
the recovery rate, ``eta`` the disease-induced loss rate, and
``recruitment`` the local inflow of susceptibles; all four may vary in
space.  The incidence exponents satisfy ``0 < p <= 1`` and ``q > 0``.

Derived ratios -- the risk function ``h = (gamma + eta)/beta`` and the
recovery ratio ``r = gamma/beta`` -- are recomputed on access so they can
never go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .formula import evaluate, parse
from .grid import DiscreteDomain, ScalarField

__all__ = ["CoefficientSet", "evaluate_formula_on"]


def _as_field(dom: DiscreteDomain, value) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.domain is not dom:
            raise ValueError("coefficient field belongs to a different domain")
        return value
    return dom.field(value)


@dataclass(frozen=True)
class CoefficientSet:
    """Rates (constants, per-node arrays or fields) and the scalar parameters."""

    domain: DiscreteDomain
    beta: ScalarField
    gamma: ScalarField
    eta: ScalarField
    recruitment: ScalarField
    d_S: float
    d_I: float
    p: float
    q: float

    def __post_init__(self):
        for name in ("beta", "gamma", "eta", "recruitment"):
            f = _as_field(self.domain, getattr(self, name))
            object.__setattr__(self, name, f)
            if f.values.min() <= 0.0:
                raise ValueError(f"{name} must be strictly positive everywhere")
        for name in ("d_S", "d_I", "p", "q"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("d_S", "d_I", "q"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.d_S >= 0.0 and self.d_I >= 0.0):
            raise ValueError("diffusion rates d_S and d_I must be nonnegative")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("incidence exponent p must lie in (0, 1]")
        if not self.q > 0.0:
            raise ValueError("incidence exponent q must be positive")

    # -- derived quantities, recomputed each call -------------------------

    def risk(self) -> np.ndarray:
        """Risk function ``h = (gamma + eta)/beta``."""
        return (self.gamma.values + self.eta.values) / self.beta.values

    def recovery_ratio(self) -> np.ndarray:
        """``r = gamma/beta``."""
        return self.gamma.values / self.beta.values

    def risk_ceiling(self) -> np.ndarray:
        """``h^(1/q)``: the pointwise ceiling for susceptible limit profiles."""
        return self.risk() ** (1.0 / self.q)

    def sigma(self) -> float:
        """Diffusion ratio ``d_I/d_S``."""
        return self.d_I / self.d_S

    def with_diffusion(self, *, d_S: float | None = None, d_I: float | None = None) -> "CoefficientSet":
        """Copy with replaced diffusion rates (used by sweeps)."""
        return replace(
            self,
            d_S=self.d_S if d_S is None else d_S,
            d_I=self.d_I if d_I is None else d_I,
        )


def evaluate_formula_on(dom: DiscreteDomain, src: str) -> np.ndarray:
    """Parse a formula and evaluate it at the domain's nodes (an interval's have no ``y``)."""
    if dom.dim == 1:
        env = {"x": dom.coords}
    else:
        env = {"x": dom.coords[:, 0], "y": dom.coords[:, 1]}
    return np.asarray(evaluate(parse(src), env), dtype=float)
