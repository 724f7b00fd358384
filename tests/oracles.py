"""Reference implementations the tests compare the package against.

They are deliberately plain: a fixed-count bisection for monotone per-node
equations, a collar-eroded maximum for "infection vanishes in the interior
of a region" checks, and nearest-node lookups by brute-force distance.
"""

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
