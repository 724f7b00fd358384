"""Reference implementations the tests compare the package against.

They are deliberately plain: a fixed-count bisection for monotone per-node
equations, a collar-eroded maximum for "infection vanishes in the interior
of a region" checks, nearest-node lookups by brute-force distance, and
formula text evaluated by Python's own parser.
"""

import re
from typing import Callable, Iterable

import numpy as np

from sisrd.grid import DiscreteDomain, erode_mask


def bisect_increasing(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    iterations: int = 100,
) -> np.ndarray:
    """Vectorized bisection for a nondecreasing map with a sign change.

    ``f(lo) <= 0 <= f(hi)`` is verified up front; 100 halvings put the
    bracket width at the rounding floor for every practical scale.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    f_lo = f(lo)
    f_hi = f(hi)
    if np.any(f_lo > 0.0) or np.any(f_hi < 0.0):
        raise ValueError("bisection bracket does not straddle a sign change")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = f(mid) <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def interior_max(
    dom: DiscreteDomain, mask: np.ndarray, values, erode_cells: int = 2
) -> float:
    """Max of ``values`` over ``mask`` eroded by ``erode_cells`` grid layers.

    Returns 0.0 when the eroded region is empty — a collar of the given
    width around the region's edge is deliberately ignored.
    """
    inner = erode_mask(dom, mask, erode_cells)
    if not inner.any():
        return 0.0
    return float(np.asarray(values, dtype=float)[inner].max())


def _squared_distances(dom: DiscreteDomain, point: Iterable[float]) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    if dom.dim == 1:
        return (dom.coords - p[0]) ** 2
    return ((dom.coords - p[None, :]) ** 2).sum(axis=1)


def nearest_node(dom: DiscreteDomain, point: Iterable[float]) -> int:
    """Index of the node closest to a point."""
    return int(np.argmin(_squared_distances(dom, point)))


def nodes_near(dom: DiscreteDomain, point: Iterable[float], radius_cells: float = 1.5) -> np.ndarray:
    """Indices of nodes within ``radius_cells`` grid spacings of a point."""
    r = radius_cells * dom.max_spacing
    return np.nonzero(_squared_distances(dom, point) <= r * r)[0]


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def numpy_formula(src: str, env: dict) -> np.ndarray:
    """A formula without ``piecewise``, evaluated as a Python expression over numpy.

    Python's grammar has the formula language's precedence: ``**`` is
    right-associative and binds tighter than unary minus, ``* /`` bind
    tighter than ``+ -``, and all four are left-associative.  So the text
    only needs ``^`` spelled ``**``.  Each literal and ``pi`` becomes a
    float64 array of the environment's length, as the evaluator broadcasts
    them: numpy's ``array ** scalar`` may square instead of calling
    ``power``, and its vectorized ``power`` can differ from the scalar one
    by an ulp, so scalar operands would not compare bitwise.
    """
    n = len(next(iter(env.values())))
    namespace = {
        "L": lambda value: np.full(n, value), "PI": np.full(n, np.pi),
        "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs,
        "pos": lambda u: np.maximum(u, 0.0), "min": np.minimum, "max": np.maximum,
        **env,
    }
    code = _NUMBER.sub(lambda m: f"L({float(m.group())!r})", src)
    code = re.sub(r"\bpi\b", "PI", code).replace("^", "**")
    with np.errstate(all="ignore"):
        return eval(code, {"__builtins__": {}}, namespace)


def assert_bitwise_equal(actual, expected) -> None:
    """Equal float64 bit patterns, so -0.0 differs from 0.0."""
    np.testing.assert_array_equal(
        np.asarray(actual, dtype=np.float64).view(np.int64),
        np.asarray(expected, dtype=np.float64).view(np.int64),
    )
