"""Spatial discretization: domains, scalar fields, quadrature, Laplacian.

Three domain shapes are supported, all meshed with uniform Cartesian
nodes:

* ``interval``  -- 1D segment, trapezoid cell measures (half cells at the
  two ends);
* ``rectangle`` -- tensor-product grid, cell measure is the product of
  the per-axis trapezoid weights;
* ``disk``      -- cells of a square lattice whose centers fall inside the
  circle (a staircase approximation; the boundary is not fitted), every
  node carrying the full cell area.

The zero-flux Laplacian uses 3-point (1D) / 5-point (2D) stencils with
ghost-point reflection: a missing neighbor mirrors the center value, so a
boundary row in 1D reads ``(-2, 2, 0)/h^2``.  The mesh edges assemble
the symmetric positive-semidefinite stiffness form ``K`` (``W`` the
diagonal of cell measures), which is what the implicit solvers consume;
the Laplacian is its row scaling ``L = -W^{-1} K``, so row sums vanish
and ``L`` is symmetric with respect to the cell-measure inner product.

Every linear solve outside Newton factors a :func:`shifted_operator`
``W diag(reaction) + d K`` with the package's one sparse LU
(:func:`sisrd.solvers.sparse_lu`, through :func:`shifted_factor` unless
the caller also keeps the operator), owned by its caller, never by the
domain.  With ``reaction > 0`` the operator is a symmetric, diagonally
dominant M-matrix, which is what lets that LU skip pivoting.  A time march
holds the factor of its time-step form ``W diag(1/dt + rate) + d K`` in a
:func:`shifted_solver`, rebuilt only when dt changes and freed when the
march returns or hands its state to Newton.  The disease-free solve and
the two eigenproblems keep theirs for one call.

A domain caches what depends only on its mesh, each built on first use:
the stiffness form ``K``, the Laplacian ``L``, the node adjacency, the
positions of ``K``'s diagonal in ``K.data`` (so :func:`shifted_operator`
fills ``d K.data`` in place of a sparse sum), and the ``x[,y],`` text of
every CSV row (so :func:`write_field_csv` formats only the values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .solvers import sparse_lu

__all__ = [
    "DomainError",
    "DomainMismatchError",
    "DomainSpec",
    "DiscreteDomain",
    "ScalarField",
    "build_domain",
    "assemble_neumann_laplacian",
    "stiffness_matrix",
    "shifted_operator",
    "shifted_factor",
    "shifted_solver",
    "integrate",
    "dilate_mask",
    "erode_mask",
    "write_field_csv",
    "load_field_csv",
]


class DomainError(ValueError):
    """Invalid domain geometry or resolution."""


class DomainMismatchError(ValueError):
    """A field was used with a domain it does not belong to."""


@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of a domain; validated by :func:`build_domain`."""

    kind: str  # "interval" | "rectangle" | "disk"
    start: float = 0.0
    end: float = 1.0
    nodes: int = 0
    x_range: tuple[float, float] = (0.0, 1.0)
    y_range: tuple[float, float] = (0.0, 1.0)
    shape: tuple[int, int] = (0, 0)
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    cell_size: float = 0.1

    @staticmethod
    def interval(start: float, end: float, nodes: int) -> "DomainSpec":
        return DomainSpec(kind="interval", start=start, end=end, nodes=nodes)

    @staticmethod
    def rectangle(
        x_range: tuple[float, float], y_range: tuple[float, float], shape: tuple[int, int]
    ) -> "DomainSpec":
        return DomainSpec(kind="rectangle", x_range=tuple(x_range), y_range=tuple(y_range), shape=tuple(shape))

    @staticmethod
    def disk(radius: float, center: tuple[float, float] = (0.0, 0.0), cell_size: float = 0.1) -> "DomainSpec":
        return DomainSpec(kind="disk", radius=radius, center=tuple(center), cell_size=cell_size)


class DiscreteDomain:
    """A meshed domain: node coordinates, cell measures, and adjacency.

    Instances are immutable by convention; what depends only on the mesh
    is cached on first use (the stiffness form, the Laplacian, the
    adjacency, the diagonal slots of the stiffness data and the
    coordinate text of each CSV row), and no solver state is kept.  Node
    order is lexicographic in the grid index, which fixes the order of
    every serialized field.
    """

    def __init__(
        self,
        kind: str,
        coords: np.ndarray,
        cell_measures: np.ndarray,
        edges: tuple[np.ndarray, np.ndarray, np.ndarray],
        spacing: tuple[float, ...],
    ):
        self.kind = kind
        self.coords = coords
        self.cell_measures = cell_measures
        self.edges_i, self.edges_j, self.edge_weights = edges
        self.spacing = spacing
        self.n_nodes = len(cell_measures)
        self.dim = 1 if coords.ndim == 1 else coords.shape[1]
        self._laplacian: Optional[sp.csr_matrix] = None
        self._stiffness: Optional[sp.csr_matrix] = None
        self._adjacency: Optional[sp.csr_matrix] = None
        self._diagonal_slots: Optional[np.ndarray] = None
        self._csv_rows: Optional[list[str]] = None

        degree = np.zeros(self.n_nodes, dtype=int)
        np.add.at(degree, self.edges_i, 1)
        np.add.at(degree, self.edges_j, 1)
        if self.n_nodes and degree.min() < 1:
            raise DomainError("domain has an isolated node; refine the resolution")

    @property
    def measure(self) -> float:
        """Total measure (length or area) of the discretized domain."""
        return float(self.cell_measures.sum())

    @property
    def max_spacing(self) -> float:
        return max(self.spacing)

    def field(self, values) -> "ScalarField":
        """Wrap per-node values (or a constant) as a field on this domain."""
        arr = np.asarray(values, dtype=float)
        if arr.shape == ():
            arr = np.full(self.n_nodes, float(arr))
        return ScalarField(self, arr)

    def adjacency(self) -> sp.csr_matrix:
        """Boolean symmetric node adjacency (shared-face neighbors)."""
        if self._adjacency is None:
            i = np.concatenate([self.edges_i, self.edges_j])
            j = np.concatenate([self.edges_j, self.edges_i])
            data = np.ones(len(i), dtype=bool)
            self._adjacency = sp.csr_matrix((data, (i, j)), shape=(self.n_nodes, self.n_nodes))
        return self._adjacency


@dataclass(frozen=True)
class ScalarField:
    """One real value per node of a specific domain."""

    domain: DiscreteDomain
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (self.domain.n_nodes,):
            raise DomainMismatchError(
                f"field has {arr.shape} values for a domain of {self.domain.n_nodes} nodes"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", arr)

    @classmethod
    def adopt(cls, domain: DiscreteDomain, values: np.ndarray) -> "ScalarField":
        """Wrap ``values`` as they are: no copy, no shape or finiteness check.

        For a float array of ``domain.n_nodes`` entries that the caller has
        just produced, owns from now on, and checks for finiteness itself.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "domain", domain)
        object.__setattr__(f, "values", values)
        return f

    def __len__(self) -> int:
        return len(self.values)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def build_domain(spec: DomainSpec) -> DiscreteDomain:
    """Mesh a :class:`DomainSpec`, validating geometry and resolution."""
    if spec.kind == "interval":
        return _build_interval(spec)
    if spec.kind == "rectangle":
        return _build_rectangle(spec)
    if spec.kind == "disk":
        return _build_disk(spec)
    raise DomainError(f"unknown domain kind {spec.kind!r}")


def _build_interval(spec: DomainSpec) -> DiscreteDomain:
    if not spec.end > spec.start:
        raise DomainError("interval end must exceed start")
    if spec.nodes < 3:
        raise DomainError("resolution too small: an interval needs at least 3 nodes")
    n = spec.nodes
    h = (spec.end - spec.start) / (n - 1)
    coords = spec.start + h * np.arange(n)
    w = _trapezoid_weights(n, h)
    i = np.arange(n - 1)
    edges = (i, i + 1, np.full(n - 1, 1.0 / h))
    return DiscreteDomain("interval", coords, w, edges, (h,))


def _build_rectangle(spec: DomainSpec) -> DiscreteDomain:
    (ax, bx), (ay, by) = spec.x_range, spec.y_range
    if not (bx > ax and by > ay):
        raise DomainError("rectangle ranges must have positive extent")
    nx, ny = spec.shape
    if nx < 3 or ny < 3:
        raise DomainError("resolution too small: a rectangle needs at least 3 nodes per axis")
    hx = (bx - ax) / (nx - 1)
    hy = (by - ay) / (ny - 1)
    xs = ax + hx * np.arange(nx)
    ys = ay + hy * np.arange(ny)
    wx = _trapezoid_weights(nx, hx)
    wy = _trapezoid_weights(ny, hy)

    # node order: lexicographic in (ix, iy)
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ix, iy = ix.ravel(), iy.ravel()
    coords = np.column_stack([xs[ix], ys[iy]])
    w = wx[ix] * wy[iy]

    def node(i, j):
        return i * ny + j

    # x-direction edges carry the transverse trapezoid weight wy, and vice versa
    exi, exj = np.meshgrid(np.arange(nx - 1), np.arange(ny), indexing="ij")
    e1 = (node(exi.ravel(), exj.ravel()), node(exi.ravel() + 1, exj.ravel()),
          wy[exj.ravel()] / hx)
    eyi, eyj = np.meshgrid(np.arange(nx), np.arange(ny - 1), indexing="ij")
    e2 = (node(eyi.ravel(), eyj.ravel()), node(eyi.ravel(), eyj.ravel() + 1),
          wx[eyi.ravel()] / hy)
    edges = (
        np.concatenate([e1[0], e2[0]]),
        np.concatenate([e1[1], e2[1]]),
        np.concatenate([e1[2], e2[2]]),
    )
    return DiscreteDomain("rectangle", coords, w, edges, (hx, hy))


def _build_disk(spec: DomainSpec) -> DiscreteDomain:
    if spec.radius <= 0:
        raise DomainError("disk radius must be positive")
    s = spec.cell_size
    if s <= 0:
        raise DomainError("disk cell size must be positive")
    n_axis = int(np.ceil(2 * spec.radius / s))
    if n_axis < 3:
        raise DomainError("resolution too small: the disk needs at least 3 cells per axis")
    cx, cy = spec.center
    xs = cx - spec.radius + (np.arange(n_axis) + 0.5) * s
    ys = cy - spec.radius + (np.arange(n_axis) + 0.5) * s
    ix, iy = np.meshgrid(np.arange(n_axis), np.arange(n_axis), indexing="ij")
    inside = (xs[ix] - cx) ** 2 + (ys[iy] - cy) ** 2 < spec.radius**2
    ix, iy = ix[inside], iy[inside]  # lexicographic in (ix, iy) by construction
    if len(ix) == 0:
        raise DomainError("resolution too small: no cell centers fall inside the disk")
    coords = np.column_stack([xs[ix], ys[iy]])
    w = np.full(len(ix), s * s)

    index = -np.ones((n_axis, n_axis), dtype=int)
    index[ix, iy] = np.arange(len(ix))
    ei, ej = [], []
    # x-neighbors
    has_right = (ix + 1 < n_axis)
    right = index[np.minimum(ix + 1, n_axis - 1), iy]
    ok = has_right & (right >= 0)
    ei.append(index[ix, iy][ok])
    ej.append(right[ok])
    # y-neighbors
    has_up = (iy + 1 < n_axis)
    up = index[ix, np.minimum(iy + 1, n_axis - 1)]
    ok = has_up & (up >= 0)
    ei.append(index[ix, iy][ok])
    ej.append(up[ok])
    ei = np.concatenate(ei)
    ej = np.concatenate(ej)
    edges = (ei, ej, np.full(len(ei), 1.0))  # face s over distance s
    return DiscreteDomain("disk", coords, w, edges, (s, s))


# ---------------------------------------------------------------------------
# Operators and quadrature
# ---------------------------------------------------------------------------


def stiffness_matrix(dom: DiscreteDomain) -> sp.csr_matrix:
    """Symmetric positive-semidefinite form ``K = -(W L)``; ``K 1 = 0``."""
    if dom._stiffness is None:
        i, j, c = dom.edges_i, dom.edges_j, dom.edge_weights
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([j, i, i, j])
        data = np.concatenate([-c, -c, c, c])
        K = sp.coo_matrix((data, (rows, cols)), shape=(dom.n_nodes, dom.n_nodes)).tocsr()
        K.sum_duplicates()
        dom._stiffness = K
    return dom._stiffness


def assemble_neumann_laplacian(dom: DiscreteDomain) -> sp.csr_matrix:
    """Zero-flux Laplacian in operator form: ``(L u)_i ~ (Delta u)(x_i)``.

    The row scaling ``-W^{-1} K`` of :func:`stiffness_matrix`, so
    ``L 1 = 0`` to rounding and symmetry holds in the cell-measure inner
    product.  Dividing the rows of ``K`` in place keeps its sorted column
    indices, which fix the summation order of ``L @ x``.
    """
    if dom._laplacian is None:
        K = stiffness_matrix(dom)
        L = K.copy()
        L.data /= -np.repeat(dom.cell_measures, np.diff(K.indptr))
        dom._laplacian = L
    return dom._laplacian


def _diagonal_slots(dom: DiscreteDomain) -> np.ndarray:
    """Position of each ``K[i, i]`` in ``K.data``; every node has one (no isolated node)."""
    if dom._diagonal_slots is None:
        K = stiffness_matrix(dom)
        rows = np.repeat(np.arange(dom.n_nodes), np.diff(K.indptr))
        dom._diagonal_slots = np.flatnonzero(K.indices == rows)
    return dom._diagonal_slots


def shifted_operator(dom: DiscreteDomain, reaction, diffusion: float) -> sp.csr_matrix:
    """Weighted elliptic operator ``W diag(reaction) + diffusion * K``.

    Solving ``A u = W b`` with this matrix realizes
    ``reaction * u - diffusion * Lap(u) = b`` under zero-flux conditions;
    the result is symmetric, and positive definite when ``reaction > 0``.
    With ``diffusion != 0`` it is ``diffusion * K.data`` on ``K``'s
    pattern, with ``W reaction`` added in the diagonal slots and exact
    zeros dropped: bit for bit the sparse sum ``sp.diags(W reaction) +
    diffusion * K``, without its merge.
    """
    w = dom.cell_measures
    react = np.asarray(reaction, dtype=float)
    if react.shape == ():
        react = np.full(dom.n_nodes, float(react))
    if diffusion == 0.0:
        return sp.diags(w * react).tocsr()
    K = stiffness_matrix(dom)
    data = diffusion * K.data
    data[_diagonal_slots(dom)] += w * react
    A = sp.csr_matrix((data, K.indices.copy(), K.indptr.copy()), shape=K.shape)
    if not data.all():
        A.eliminate_zeros()  # as the sparse sum drops them
    return A


def shifted_factor(dom: DiscreteDomain, reaction, diffusion: float):
    """:func:`~sisrd.solvers.sparse_lu` of ``shifted_operator(dom, reaction, diffusion)``.

    The operator is symmetric, so its CSR arrays are also those of its CSC
    form, which is what is factored.  The returned ``SuperLU`` object
    solves with ``.solve(b)``.
    """
    A = shifted_operator(dom, reaction, diffusion)
    return sparse_lu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape))


def shifted_solver(dom: DiscreteDomain, rate, diffusion: float) -> Callable[[float, np.ndarray], np.ndarray]:
    """One-slot LU holder for the time-step operator of a march.

    Returns ``solve(dt, b)``, which solves
    ``shifted_operator(dom, 1/dt + rate, diffusion) x = b``.  The holder
    keeps the factor of the last dt: a repeated dt reuses it, and a new dt
    frees it before its successor is built by :func:`shifted_factor`.  The
    factor lives as long as ``solve`` does.
    """
    held_dt, lu = None, None

    def solve(dt: float, b: np.ndarray) -> np.ndarray:
        nonlocal held_dt, lu
        if dt != held_dt:
            lu = None  # free the old factor before its successor is built
            lu, held_dt = shifted_factor(dom, 1.0 / dt + rate, diffusion), dt
        return lu.solve(b)

    return solve


def integrate(dom: DiscreteDomain, f) -> float:
    """Quadrature ``sum_i w_i f_i`` over the domain's cell measures."""
    if isinstance(f, ScalarField):
        if f.domain is not dom:
            raise DomainMismatchError("field belongs to a different domain")
        v = f.values
    else:
        v = np.asarray(f, dtype=float)
        if v.shape != (dom.n_nodes,):
            raise DomainMismatchError(
                f"expected {dom.n_nodes} values, got array of shape {v.shape}"
            )
    return float(np.dot(dom.cell_measures, v))


# ---------------------------------------------------------------------------
# Mask morphology (used for collar and interior-set checks)
# ---------------------------------------------------------------------------


def dilate_mask(dom: DiscreteDomain, mask: np.ndarray, steps: int) -> np.ndarray:
    """Grow a boolean node mask by ``steps`` layers of grid neighbors."""
    out = np.asarray(mask, dtype=bool).copy()
    adj = dom.adjacency()
    for _ in range(steps):
        out = out | (adj @ out)
    return out


def erode_mask(dom: DiscreteDomain, mask: np.ndarray, steps: int) -> np.ndarray:
    """Shrink a mask to nodes at graph distance > ``steps`` from its complement."""
    return ~dilate_mask(dom, ~np.asarray(mask, dtype=bool), steps)


# ---------------------------------------------------------------------------
# CSV serialization: columns x[,y],value in node order
# ---------------------------------------------------------------------------


def _csv_rows(dom: DiscreteDomain) -> list[str]:
    """The ``x,`` or ``x,y,`` text that starts each node's CSV row."""
    if dom._csv_rows is None:
        if dom.dim == 1:
            dom._csv_rows = [f"{x!r}," for x in dom.coords.tolist()]
        else:
            dom._csv_rows = [f"{x!r},{y!r}," for x, y in dom.coords.tolist()]
    return dom._csv_rows


def write_field_csv(path, f: ScalarField) -> None:
    """Write ``f`` as ``x[,y],value`` rows in node order, floats by ``repr``."""
    dom = f.domain
    header = "x,value\n" if dom.dim == 1 else "x,y,value\n"
    rows = [p + repr(v) + "\n" for p, v in zip(_csv_rows(dom), f.values.tolist())]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "".join(rows))


def load_field_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a field CSV back as ``(coords, values)`` arrays."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] == 2:
        return data[:, 0], data[:, 1]
    return data[:, :2], data[:, 2]
