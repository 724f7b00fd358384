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

:func:`build_domain` first checks the spec's geometry and resolution and
bounds the size of the lattice it would lay out (:func:`check_lattice_size`,
at most ``MAX_LATTICE_NODES`` points), so a bad or oversized spec fails
with :class:`DomainError` before any array exists.

All three are laid out by one lattice builder: the nodes are the points
of a Cartesian lattice that carry a positive cell measure, numbered
lexicographically, and two nodes next to each other along an axis share
an edge whose weight is the measure of their common face over their
distance.  A shape differs from another only in its cell-measure and
face-measure arrays.

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
dominant M-matrix, which is what lets that LU skip pivoting; at ``d = 0``
(the one-field limits of :mod:`sisrd.asymptotics`) the same assembly
leaves only its diagonal.  The time march (:func:`sisrd.dynamics.run`)
holds the factors of its two time-step forms ``W diag(1/dt + rate) +
d K``, rebuilt only when dt changes and freed when the march returns or
hands its state to Newton.  The disease-free solve and the two
eigenproblems keep theirs for one call.

Every operator on ``K``'s full pattern, and every coupled Newton matrix
(:func:`coupled_operator`), has one of two patterns per mesh, so the
fill-reducing order is worked out once per domain (George & Liu, *SIAM
Review* 31, 1989; Davis, *Direct Methods for Sparse Linear Systems*,
SIAM 2006, ch. 7): on the first factor, the domain computes the minimum
degree order of ``K``'s pattern and lays that pattern out permuted, and
every later factor gathers its entries onto that layout and factors it in
the stored order (:func:`ordered_form`).  The coupled pattern uses the
same node order with each node's two unknowns side by side.  Every factor
on a pattern is built the same way, so its bits do not depend on whether
the order already existed.  An operator off ``K``'s pattern (the diagonal
of zero diffusion, or a diagonal cancelled exactly) is ordered by its own
factor, as any sparse matrix.

A domain holds what depends only on its mesh: from construction ``K``,
``L`` and the positions of ``K``'s diagonal in ``K.data`` (so
:func:`shifted_operator` fills ``d K.data`` in place of a sparse sum),
with :func:`stiffness_matrix` and :func:`assemble_neumann_laplacian` as
the accessors; from first use the two elimination orders with their
permuted patterns (``int32`` maps of the nonzeros), and the ``x[,y],``
text of every CSV row (so :func:`write_field_csv` formats only the
values, each distinct one once).  It holds no factor.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .solvers import OrderedMatrix, minimum_degree_order, sparse_lu

__all__ = [
    "DomainError",
    "DomainMismatchError",
    "DomainSpec",
    "DiscreteDomain",
    "ScalarField",
    "MAX_LATTICE_NODES",
    "check_lattice_size",
    "build_domain",
    "assemble_neumann_laplacian",
    "stiffness_matrix",
    "shifted_operator",
    "ordered_form",
    "coupled_operator",
    "shifted_factor",
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
    """A meshed domain: node coordinates, cell measures and the mesh operators.

    Instances are immutable by convention.  The stiffness form ``K``, the
    Laplacian ``L = -W^{-1} K`` and the slots of ``K``'s diagonal are
    worked out here, and a ``K`` row without a diagonal entry (an isolated
    node) is refused.  The elimination orders of ``K``'s pattern and of
    the coupled Newton pattern, with those patterns laid out permuted, and
    the coordinate text of each CSV row are built on first use; no factor
    is kept.  Node order is lexicographic in the grid index, which fixes
    the order of every serialized field.
    """

    def __init__(
        self,
        kind: str,
        coords: np.ndarray,
        cell_measures: np.ndarray,
        stiffness: sp.csr_matrix,
        spacing: tuple[float, ...],
    ):
        self.kind = kind
        self.coords = coords
        self.cell_measures = cell_measures
        self.spacing = spacing
        self.n_nodes = len(cell_measures)
        self.dim = 1 if coords.ndim == 1 else coords.shape[1]
        self._csv_rows: Optional[list[str]] = None
        self._ordering: Optional[_Layout] = None  # of K, built by the first factor
        self._coupled_ordering: Optional[_Layout] = None  # of the two-field operators

        counts = np.diff(stiffness.indptr)
        rows = np.repeat(np.arange(self.n_nodes), counts)
        self._diagonal = np.flatnonzero(stiffness.indices == rows)
        if len(self._diagonal) < self.n_nodes:
            raise DomainError("domain has an isolated node; refine the resolution")
        self._stiffness = stiffness
        # dividing K's rows in place keeps its sorted column indices, which
        # fix the summation order of L @ x
        self._laplacian = stiffness.copy()
        self._laplacian.data /= -np.repeat(cell_measures, counts)

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


def _trapezoid_axis(a: float, b: float, n: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Nodes, spacing and trapezoid weights of ``n`` equispaced points on ``[a, b]``."""
    h = (b - a) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return a + h * np.arange(n), h, w


# 64 times the lattice of the finest ladder rung, a unit disk at cell 1/128
# (256^2 points, 51,468 of them inside)
MAX_LATTICE_NODES = 2**22


def check_lattice_size(spec: DomainSpec) -> None:
    """Refuse a spec whose geometry or resolution is invalid or whose lattice is too large.

    Checked from the spec alone: an interval needs ``end > start`` and at
    least 3 nodes, a rectangle ranges of positive extent and at least 3
    nodes per axis, and a disk a positive radius and cell size and at least
    3 cells per axis.  The lattice may hold at most ``MAX_LATTICE_NODES``
    points: ``nodes``, ``nx * ny``, or for a disk
    ``ceil(2 radius / cell_size)^2``, since its builder lays out the whole
    square lattice.  An unknown kind is left to :func:`build_domain`.
    """
    if spec.kind == "interval":
        if not spec.end > spec.start:
            raise DomainError("interval end must exceed start")
        if spec.nodes < 3:
            raise DomainError("resolution too small: an interval needs at least 3 nodes")
        size = spec.nodes
    elif spec.kind == "rectangle":
        (ax, bx), (ay, by) = spec.x_range, spec.y_range
        if not (bx > ax and by > ay):
            raise DomainError("rectangle ranges must have positive extent")
        nx, ny = spec.shape
        if nx < 3 or ny < 3:
            raise DomainError("resolution too small: a rectangle needs at least 3 nodes per axis")
        size = nx * ny
    elif spec.kind == "disk":
        if not spec.radius > 0:
            raise DomainError("disk radius must be positive")
        if not spec.cell_size > 0:
            raise DomainError("disk cell size must be positive")
        per_axis = 2 * spec.radius / spec.cell_size
        if per_axis <= 2:  # ceil(per_axis) < 3
            raise DomainError("resolution too small: the disk needs at least 3 cells per axis")
        size = math.ceil(per_axis) ** 2 if math.isfinite(per_axis) else math.inf
    else:
        return
    if size > MAX_LATTICE_NODES:
        shown = f"{size:.3g}" if size < 1e300 else "over 1e300"  # an int past the float range
        raise DomainError(
            f"mesh too large: {shown} lattice points, the limit is {MAX_LATTICE_NODES}"
        )


def build_domain(spec: DomainSpec) -> DiscreteDomain:
    """Mesh a :class:`DomainSpec` once :func:`check_lattice_size` accepts it."""
    check_lattice_size(spec)
    if spec.kind == "interval":
        return _build_interval(spec)
    if spec.kind == "rectangle":
        return _build_rectangle(spec)
    if spec.kind == "disk":
        return _build_disk(spec)
    raise DomainError(f"unknown domain kind {spec.kind!r}")


def _build_interval(spec: DomainSpec) -> DiscreteDomain:
    xs, h, w = _trapezoid_axis(spec.start, spec.end, spec.nodes)
    return _lattice("interval", (xs,), (h,), w, (1.0,))


def _build_rectangle(spec: DomainSpec) -> DiscreteDomain:
    xs, hx, wx = _trapezoid_axis(*spec.x_range, spec.shape[0])
    ys, hy, wy = _trapezoid_axis(*spec.y_range, spec.shape[1])
    # an x-face carries the transverse trapezoid weight wy, and vice versa
    return _lattice("rectangle", (xs, ys), (hx, hy), np.multiply.outer(wx, wy), (wy, wx[:, None]))


def _build_disk(spec: DomainSpec) -> DiscreteDomain:
    s = spec.cell_size
    n_axis = int(np.ceil(2 * spec.radius / s))
    cx, cy = spec.center
    xs = cx - spec.radius + (np.arange(n_axis) + 0.5) * s
    ys = cy - spec.radius + (np.arange(n_axis) + 0.5) * s
    inside = (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 < spec.radius**2
    # a cell is whole or absent, so every face is a full side s
    return _lattice("disk", (xs, ys), (s, s), np.where(inside, s * s, 0.0), (s, s))


def _lattice(kind, axes, spacing, measure, faces) -> DiscreteDomain:
    """Mesh the points of positive cell ``measure`` of the lattice ``axes[0] x axes[1] ...``.

    ``measure`` has the lattice's shape, and ``faces[k]`` broadcasts
    against it: the measure of the face between a point and its successor
    along axis ``k``.  The nodes are numbered lexicographically in the
    lattice index; two nodes next to each other along axis ``k`` share an
    edge of weight ``faces[k] / spacing[k]``, listed axis by axis in the
    order of the lower node (an order that fixes the summation order of
    ``K``'s diagonal).  The edges assemble ``K``: ``K[i, j]`` is minus the
    weight of the edge ``ij`` and ``K[i, i]`` the sum of node ``i``'s edge
    weights.
    """
    inside = measure > 0
    if not inside.any():  # a rectangle's cell measures can underflow
        raise DomainError("resolution too small: no lattice point has a positive cell measure")
    index = np.full(measure.shape, -1)
    index[inside] = np.arange(np.count_nonzero(inside))
    points = np.nonzero(inside)
    if len(axes) == 1:
        coords = axes[0][points[0]]
    else:
        coords = np.column_stack([x[i] for x, i in zip(axes, points)])

    ei, ej, weights = [], [], []
    for k, (face, h) in enumerate(zip(faces, spacing)):
        lower = tuple(slice(None, -1) if a == k else slice(None) for a in range(len(axes)))
        upper = tuple(slice(1, None) if a == k else slice(None) for a in range(len(axes)))
        pair = (index[lower] >= 0) & (index[upper] >= 0)
        ei.append(index[lower][pair])
        ej.append(index[upper][pair])
        weights.append(np.broadcast_to(face / h, measure.shape)[lower][pair])
    i, j, c = np.concatenate(ei), np.concatenate(ej), np.concatenate(weights)
    n = len(points[0])
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    K = sp.coo_matrix((np.concatenate([-c, -c, c, c]), (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    return DiscreteDomain(kind, coords, measure[inside], K, tuple(spacing))


# ---------------------------------------------------------------------------
# Operators and quadrature
# ---------------------------------------------------------------------------


def stiffness_matrix(dom: DiscreteDomain) -> sp.csr_matrix:
    """Symmetric positive-semidefinite form ``K = -(W L)``; ``K 1 = 0``."""
    return dom._stiffness


def assemble_neumann_laplacian(dom: DiscreteDomain) -> sp.csr_matrix:
    """Zero-flux Laplacian in operator form: ``(L u)_i ~ (Delta u)(x_i)``.

    The row scaling ``-W^{-1} K`` of :func:`stiffness_matrix`, so
    ``L 1 = 0`` to rounding and symmetry holds in the cell-measure inner
    product.
    """
    return dom._laplacian


def shifted_operator(dom: DiscreteDomain, reaction, diffusion: float) -> sp.csr_matrix:
    """Weighted elliptic operator ``W diag(reaction) + diffusion * K``.

    Solving ``A u = W b`` with this matrix realizes
    ``reaction * u - diffusion * Lap(u) = b`` under zero-flux conditions;
    the result is symmetric, and positive definite when ``reaction > 0``.
    It is ``diffusion * K.data`` on ``K``'s pattern, with ``W reaction``
    added in the diagonal slots and exact zeros dropped: bit for bit the
    sparse sum ``sp.diags(W reaction) + diffusion * K``, without its
    merge.  At zero diffusion every off-diagonal entry is such a zero, so
    the same path gives the diagonal ``W diag(reaction)``.
    """
    w = dom.cell_measures
    react = np.asarray(reaction, dtype=float)
    if react.shape == ():
        react = np.full(dom.n_nodes, float(react))
    K = dom._stiffness
    data = diffusion * K.data
    data[dom._diagonal] += w * react
    A = sp.csr_matrix((data, K.indices.copy(), K.indptr.copy()), shape=K.shape)
    if not data.all():
        A.eliminate_zeros()  # as the sparse sum drops them
    return A


class _Layout(NamedTuple):
    """A square sparse pattern in a fixed elimination order.

    ``order[k]`` is the row and column eliminated ``k``-th, and
    ``position`` its inverse; the permuted matrix is the CSC matrix
    ``(values[gather], indices, indptr)``, where ``values`` lists the
    entries in the pattern's own source order.  The two permutations,
    which index every solve, are ``intp`` (numpy indexes with them
    without a cast); the pattern maps, which hold an entry per nonzero, are
    ``int32``.
    """

    order: np.ndarray
    position: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray


def _layout(rows: np.ndarray, cols: np.ndarray, order: np.ndarray) -> _Layout:
    """Lay the entries ``(rows[k], cols[k])`` out in the CSC pattern of ``P A P^T``."""
    n = len(order)
    position = np.empty_like(order)
    position[order] = np.arange(n)
    new = position.astype(np.int32)
    r, c = new[rows], new[cols]
    key = c.astype(np.int64)
    key *= n
    key += r
    gather = np.argsort(key).astype(np.int32)  # by column, then row
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(c, minlength=n), out=indptr[1:])
    return _Layout(order, position, indptr, r[gather], gather)


def _stiffness_entries(dom: DiscreteDomain) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry of ``K.data`` (and of ``L.data``, the same pattern)."""
    K = dom._stiffness
    return np.repeat(np.arange(dom.n_nodes, dtype=np.int32), np.diff(K.indptr)), K.indices


def _ordering(dom: DiscreteDomain) -> _Layout:
    """``K``'s pattern in its minimum-degree order, computed on the first call.

    The order comes from :func:`~sisrd.solvers.minimum_degree_order` of
    ``W + K``, whose diagonal is positive.
    """
    if dom._ordering is None:
        K = dom._stiffness
        data = K.data.copy()
        data[dom._diagonal] += dom.cell_measures
        order = minimum_degree_order(sp.csc_matrix((data, K.indices, K.indptr), shape=K.shape))
        dom._ordering = _layout(*_stiffness_entries(dom), order)
    return dom._ordering


def _coupled_ordering(dom: DiscreteDomain) -> _Layout:
    """The pattern of :func:`coupled_operator`, with the two fields of each node side by side.

    Node ``order[k]``'s two unknowns are eliminated ``2k``-th and
    ``2k+1``-th, so the order is ``K``'s, interleaved.  The source order of
    the entries is the top-left block's (``K.data``'s), the bottom-right
    block's, then the two diagonal couplings.
    """
    if dom._coupled_ordering is None:
        n = dom.n_nodes
        order = _ordering(dom).order
        rows, cols = _stiffness_entries(dom)
        nodes = np.arange(n, dtype=np.int32)
        dom._coupled_ordering = _layout(
            np.concatenate([rows, rows + n, nodes, nodes + n]),
            np.concatenate([cols, cols + n, nodes + n, nodes]),
            np.column_stack([order, order + n]).ravel(),
        )
    return dom._coupled_ordering


def _ordered_matrix(layout: _Layout, values: np.ndarray) -> OrderedMatrix:
    n = len(layout.order)
    permuted = sp.csc_matrix((values[layout.gather], layout.indices, layout.indptr), shape=(n, n))
    return OrderedMatrix(permuted, layout.order, layout.position)


def ordered_form(dom: DiscreteDomain, A: sp.csr_matrix):
    """``A``, an operator of :func:`shifted_operator` on ``dom``, in the form to factor.

    The result is what :func:`~sisrd.solvers.sparse_lu` factors.  On
    ``K``'s full pattern (the operator dropped no zero) it is an
    :class:`~sisrd.solvers.OrderedMatrix` in the domain's minimum-degree
    order, which the domain computes once, on the first call; a factor of
    it does not depend on whether that order already existed.  Off that
    pattern (the diagonal of zero diffusion, or a diagonal cancelled
    exactly) it is the CSC form, which the LU orders for itself.
    """
    if A.nnz != dom._stiffness.nnz:
        return sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)  # A is symmetric
    return _ordered_matrix(_ordering(dom), A.data)


def coupled_operator(
    dom: DiscreteDomain, d_S: float, d_I: float, a, g, e, b
) -> OrderedMatrix:
    """The two-field operator ``[[d_S L + diag(a), diag(g)], [diag(e), d_I L + diag(b)]]``.

    ``L`` is :func:`assemble_neumann_laplacian`; the unknowns are the
    ``n`` values of the first field, then the ``n`` of the second.  The
    matrix is laid out in the domain's interleaved order (see
    :func:`ordered_form`), every entry of the pattern kept, zeros included,
    and filled by one gather of its entries: no sparse arithmetic.
    """
    L = dom._laplacian
    top_left = d_S * L.data
    top_left[dom._diagonal] += a
    bottom_right = d_I * L.data
    bottom_right[dom._diagonal] += b
    values = np.concatenate([top_left, bottom_right, g, e])
    return _ordered_matrix(_coupled_ordering(dom), values)


def shifted_factor(dom: DiscreteDomain, reaction, diffusion: float):
    """:func:`~sisrd.solvers.sparse_lu` of ``shifted_operator(dom, reaction, diffusion)``.

    The operator is factored in its :func:`ordered_form`.  The returned
    object solves with ``.solve(b)``.
    """
    return sparse_lu(ordered_form(dom, shifted_operator(dom, reaction, diffusion)))


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
    K = dom._stiffness  # its pattern is the adjacency, each node included
    adj = sp.csr_matrix((np.ones(K.nnz, dtype=bool), K.indices, K.indptr), shape=K.shape)
    for _ in range(steps):
        out = out | (adj @ out)
    return out


def erode_mask(dom: DiscreteDomain, mask: np.ndarray, steps: int) -> np.ndarray:
    """Shrink a mask to nodes at graph distance > ``steps`` from its complement."""
    return ~dilate_mask(dom, ~np.asarray(mask, dtype=bool), steps)


# ---------------------------------------------------------------------------
# CSV serialization: columns x[,y],value in node order
# ---------------------------------------------------------------------------


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each entry of ``values``, each distinct float formatted once.

    Entries are told apart by their bits, so ``-0.0`` keeps its own text.
    """
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return text[inverse].tolist()


def _csv_rows(dom: DiscreteDomain) -> list[str]:
    """The ``x,`` or ``x,y,`` text that starts each node's CSV row.

    A lattice repeats each coordinate along its axis, so every distinct
    coordinate of an axis is formatted once.
    """
    if dom._csv_rows is None:
        axes = [dom.coords] if dom.dim == 1 else dom.coords.T
        dom._csv_rows = [",".join(row) + "," for row in zip(*map(_reprs, axes))]
    return dom._csv_rows


def write_field_csv(path, f: ScalarField) -> None:
    """Write ``f`` as ``x[,y],value`` rows in node order, floats by ``repr``.

    Each distinct value is formatted once (a mask holds only ``0.0`` and
    ``1.0``).
    """
    dom = f.domain
    header = "x,value\n" if dom.dim == 1 else "x,y,value\n"
    rows = "\n".join(map(operator.add, _csv_rows(dom), _reprs(f.values)))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + rows + "\n")


def load_field_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a field CSV back as ``(coords, values)`` arrays.

    After its header line the file must hold at least one row, every row
    of 2 (``x,value``) or of 3 (``x,y,value``) finite numbers; anything
    else raises ``ValueError`` naming the file.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file of no rows is refused below
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # also a ragged row or a decoding error
            raise ValueError(f"{path}: not a field CSV: {exc}") from None
    if len(data) == 0:
        raise ValueError(f"{path}: not a field CSV: no rows after the header")
    if data.shape[1] not in (2, 3):
        raise ValueError(f"{path}: not a field CSV: {data.shape[1]} columns, not x,value or x,y,value")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: not a field CSV: a non-finite entry")
    if data.shape[1] == 2:
        return data[:, 0], data[:, 1]
    return data[:, :2], data[:, 2]
