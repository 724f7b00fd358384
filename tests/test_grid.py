"""Meshes, quadrature, and the no-flux Laplacian on all three domain kinds."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import nearest_node, nodes_near
from scipy.sparse.linalg import splu

from sisrd import grid, solvers
from sisrd.asymptotics import limit_small_ds
from sisrd.coefficients import CoefficientSet
from sisrd.equilibrium import find_ee, solve_dfe
from sisrd.grid import (
    DomainError,
    DomainMismatchError,
    DomainSpec,
    ScalarField,
    assemble_neumann_laplacian,
    build_domain,
    coupled_operator,
    dilate_mask,
    erode_mask,
    integrate,
    load_field_csv,
    shifted_factor,
    shifted_operator,
    stiffness_matrix,
    write_field_csv,
)
from sisrd.solvers import OrderedMatrix, sparse_lu
from sisrd.spectral import compute_lambda0, compute_r0


def interval(n=9, a=0.0, b=1.0):
    return build_domain(DomainSpec.interval(a, b, n))


def rectangle(nx=9, ny=7):
    return build_domain(DomainSpec.rectangle((0.0, 1.0), (0.0, 1.0), (nx, ny)))


def disk(cell=0.25):
    return build_domain(DomainSpec.disk(1.0, (0.0, 0.0), cell))


# ---------------------------------------------------------------------------
# Interval meshes
# ---------------------------------------------------------------------------


def test_interval_nodes_and_weights():
    dom = interval(5, 0.0, 1.0)
    np.testing.assert_allclose(dom.coords, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(dom.cell_measures, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert dom.measure == pytest.approx(1.0, abs=1e-15)
    assert dom.dim == 1


def test_interval_laplacian_matches_reflection_stencil():
    # Ghost-node reflection at a no-flux end gives the row (-2, 2)/h^2;
    # interior rows are the standard (1, -2, 1)/h^2.
    dom = interval(5)
    h = 0.25
    L = assemble_neumann_laplacian(dom).toarray() * h**2
    expected = np.array(
        [
            [-2.0, 2.0, 0.0, 0.0, 0.0],
            [1.0, -2.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, -2.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, -2.0, 1.0],
            [0.0, 0.0, 0.0, 2.0, -2.0],
        ]
    )
    np.testing.assert_allclose(L, expected, atol=1e-12)


def test_laplacian_annihilates_constants():
    for dom in (interval(11), rectangle(6, 5), disk(0.3)):
        L = assemble_neumann_laplacian(dom)
        assert np.abs(L @ np.ones(dom.n_nodes)).max() <= 1e-13


def test_weighted_laplacian_is_symmetric():
    for dom in (interval(7), rectangle(5, 6), disk(0.3)):
        WL = (assemble_neumann_laplacian(dom).T.multiply(dom.cell_measures)).T.tocsr()
        asym = (WL - WL.T)
        assert np.abs(asym.toarray()).max() <= 1e-13


def test_stiffness_symmetric_positive_semidefinite():
    for dom in (interval(7), rectangle(5, 4), disk(0.4)):
        K = stiffness_matrix(dom)
        Kd = K.toarray()
        np.testing.assert_allclose(Kd, Kd.T, atol=1e-14)
        eigs = np.linalg.eigvalsh(Kd)
        assert eigs.min() >= -1e-11
        # constants span the kernel
        assert np.abs(Kd @ np.ones(dom.n_nodes)).max() <= 1e-12


def test_stiffness_is_minus_weighted_laplacian():
    for dom in (interval(7), rectangle(4, 5), disk(0.4)):
        K = stiffness_matrix(dom).toarray()
        WL = np.diag(dom.cell_measures) @ assemble_neumann_laplacian(dom).toarray()
        np.testing.assert_allclose(K, -WL, atol=1e-13)


def test_laplacian_consistency_second_order():
    # L applied to cos(pi x) should converge to -pi^2 cos(pi x) at O(h^2)
    errs = []
    for n in (17, 33):
        dom = interval(n)
        u = np.cos(np.pi * dom.coords)
        L = assemble_neumann_laplacian(dom)
        errs.append(np.abs(L @ u + np.pi**2 * u).max())
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


# ---------------------------------------------------------------------------
# Rectangle meshes
# ---------------------------------------------------------------------------


def test_rectangle_node_order_is_lexicographic():
    dom = rectangle(3, 4)  # 3 x-columns, 4 y-rows; node(i,j) = i*ny + j
    assert dom.n_nodes == 12
    np.testing.assert_allclose(dom.coords[0], [0.0, 0.0])
    np.testing.assert_allclose(dom.coords[1], [0.0, 1.0 / 3.0])
    np.testing.assert_allclose(dom.coords[4], [0.5, 0.0])
    np.testing.assert_allclose(dom.coords[5], [0.5, 1.0 / 3.0])


def test_rectangle_measure_and_quadrature():
    dom = rectangle(9, 9)
    assert dom.measure == pytest.approx(1.0, abs=1e-14)
    # trapezoid quadrature of a bilinear function is exact
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    assert integrate(dom, (1 + x) * (2 + y)) == pytest.approx(3.75, abs=1e-13)


def test_rectangle_2d_laplacian_consistency():
    errs = []
    for n in (17, 33):
        dom = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (n, n)))
        x, y = dom.coords[:, 0], dom.coords[:, 1]
        u = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        L = assemble_neumann_laplacian(dom)
        errs.append(np.abs(L @ u + 5 * np.pi**2 * u).max())
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_anisotropic_spacing_weights():
    dom = build_domain(DomainSpec.rectangle((0, 2), (0, 1), (5, 3)))
    hx, hy = dom.spacing
    assert hx == pytest.approx(0.5)
    assert hy == pytest.approx(0.5)
    dom2 = build_domain(DomainSpec.rectangle((0, 1), (0, 1), (5, 3)))
    assert dom2.spacing[0] == pytest.approx(0.25)
    assert dom2.spacing[1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Disk meshes
# ---------------------------------------------------------------------------


def test_disk_cell_census():
    # cell centers at +-0.25 and +-0.75 in each axis; the four corner cells
    # (norm ~1.06) fall outside the unit circle, leaving 12 of 16
    dom = disk(0.5)
    assert dom.n_nodes == 12
    assert dom.measure == pytest.approx(12 * 0.25, abs=1e-14)
    radii = np.linalg.norm(dom.coords, axis=1)
    assert radii.max() < 1.0


def test_disk_refinement_approaches_circle_area():
    areas = [build_domain(DomainSpec.disk(1.0, (0, 0), s)).measure for s in (0.2, 0.05)]
    assert abs(areas[1] - np.pi) < abs(areas[0] - np.pi)
    assert abs(areas[1] - np.pi) < 0.05


def test_disk_adjacency_is_symmetric_and_connected():
    # the adjacency is the sparsity pattern of the stiffness form
    dom = disk(0.25)
    K = stiffness_matrix(dom)
    adj = sp.csr_matrix((np.ones(K.nnz, dtype=bool), K.indices, K.indptr), shape=K.shape)
    assert (adj != adj.T).nnz == 0
    # breadth-first reachability from node 0 covers the whole mesh
    reached = np.zeros(dom.n_nodes, dtype=bool)
    reached[0] = True
    for _ in range(dom.n_nodes):
        new = adj @ reached
        if (new | reached).sum() == reached.sum():
            break
        reached |= new
    assert reached.all()


def test_too_coarse_domains_rejected():
    with pytest.raises(DomainError):
        build_domain(DomainSpec.interval(0, 1, 2))
    with pytest.raises(DomainError):
        build_domain(DomainSpec.rectangle((0, 1), (0, 1), (2, 5)))
    with pytest.raises(DomainError):
        build_domain(DomainSpec.disk(1.0, (0, 0), 1.1))
    with pytest.raises(DomainError):
        build_domain(DomainSpec(kind="hexagon"))
    with pytest.raises(DomainError):  # every cell measure underflows to zero
        build_domain(DomainSpec.rectangle((0, 1e-200), (0, 1e-200), (9, 9)))


def test_domain_refuses_an_isolated_node():
    # node 2 of this 3-node stiffness form has no edge, so its row is empty
    K = sp.csr_matrix(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.diff(K.indptr).tolist() == [2, 2, 0]
    with pytest.raises(DomainError, match="isolated node"):
        grid.DiscreteDomain("interval", np.arange(3.0), np.ones(3), K, (1.0,))


def test_lattice_size_is_bounded_from_the_spec_alone(monkeypatch):
    # no builder is reached (a broken bound fails on calling None rather
    # than allocating): the check runs on the spec before any array exists
    for builder in ("_build_interval", "_build_rectangle", "_build_disk"):
        monkeypatch.setattr(grid, builder, None)
    limit = grid.MAX_LATTICE_NODES
    assert limit == 2**22
    grid.check_lattice_size(DomainSpec.disk(1.0, cell_size=1 / 1024))  # 2048^2 points, at the limit
    grid.check_lattice_size(DomainSpec.interval(0, 1, limit))
    grid.check_lattice_size(DomainSpec.rectangle((0, 1), (0, 1), (2048, 2048)))
    for spec in (
        DomainSpec.disk(1.0, cell_size=1 / 1025),
        DomainSpec.disk(1.0, cell_size=5e-324),  # 2 r / s overflows to inf
        DomainSpec.disk(1.0, cell_size=1e-300),  # the count, 4e600, is an int past the float range
        DomainSpec.interval(0, 1, 10**400),
        DomainSpec.interval(0, 1, limit + 1),
        DomainSpec.rectangle((0, 1), (0, 1), (2048, 2049)),
    ):
        with pytest.raises(DomainError, match="mesh too large"):
            build_domain(spec)


# ---------------------------------------------------------------------------
# Fields, operators, quadrature
# ---------------------------------------------------------------------------


def test_field_constructor_copies_and_adopt_does_not():
    dom = interval(5)
    arr = np.arange(5.0)
    f = ScalarField(dom, arr)
    assert f.values is not arr
    arr[0] = 99.0
    assert f.values[0] == 0.0
    g = ScalarField.adopt(dom, arr)
    assert g.values is arr and g.domain is dom


def test_field_validation():
    dom = interval(5)
    with pytest.raises(DomainMismatchError):
        ScalarField(dom, np.ones(4))
    with pytest.raises(ValueError):
        ScalarField(dom, np.array([1.0, 2.0, np.nan, 4.0, 5.0]))
    f = dom.field(2.5)
    np.testing.assert_allclose(f.values, 2.5)
    # stored values are decoupled from the caller's buffer
    src = np.ones(5)
    g = dom.field(src)
    src[0] = 99.0
    assert g.values[0] == 1.0


def test_integrate_checks_length_and_domain():
    dom = interval(5)
    other = interval(7)
    with pytest.raises(DomainMismatchError):
        integrate(dom, np.ones(7))
    with pytest.raises(DomainMismatchError):
        integrate(dom, other.field(1.0))
    assert integrate(dom, dom.field(3.0)) == pytest.approx(3.0, abs=1e-14)


def test_trapezoid_quadrature_second_order():
    errs = []
    for n in (17, 33):
        dom = interval(n)
        errs.append(abs(integrate(dom, np.sin(np.pi * dom.coords)) - 2 / np.pi))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_shifted_operator_solves_reaction_diffusion_identity():
    # (W diag(c) + d K) u = W b  discretizes  c u - d lap(u) = b
    dom = interval(33)
    A = shifted_operator(dom, 2.0, 0.3).toarray()
    u = np.cos(np.pi * dom.coords)
    b = A @ u / dom.cell_measures
    expected = 2.0 * u + 0.3 * np.pi**2 * u
    assert np.abs(b - expected).max() < 0.3 * np.pi**2 * np.abs(u).max() * 0.01


def test_shifted_solve_matches_dense_solve():
    dom = disk(0.125)
    rate = 1.0 + dom.coords[:, 0] ** 2
    b = np.sin(3 * dom.coords[:, 0]) + dom.coords[:, 1]
    x = shifted_factor(dom, 10.0 + rate, 0.3).solve(b)
    expected = np.linalg.solve(shifted_operator(dom, 10.0 + rate, 0.3).toarray(), b)
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()


def _generic_operator(dom, reaction, diffusion):
    """``W diag(reaction) + diffusion * K`` as a plain sparse sum."""
    w = dom.cell_measures
    react = np.broadcast_to(np.asarray(reaction, dtype=float), (dom.n_nodes,))
    A = sp.diags(w * react).tocsr()
    if diffusion != 0.0:
        A = (A + diffusion * stiffness_matrix(dom)).tocsr()
    return A


def _assert_bitwise_equal(A, B):
    assert A.format == B.format and A.shape == B.shape
    for name in ("indptr", "indices"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert A.data.dtype == B.data.dtype == np.float64
    np.testing.assert_array_equal(A.data.view(np.uint64), B.data.view(np.uint64))


def _in_own_order(A):
    """The matrix an :class:`OrderedMatrix` stores, back in its own order; any other as it is."""
    if not isinstance(A, OrderedMatrix):
        return A
    M = A.permuted[A.position][:, A.position].tocsc()
    M.sort_indices()
    return M


def _reactions(dom):
    x = dom.coords if dom.dim == 1 else dom.coords[:, 0]
    # a field with a zero, a negative and a tiny entry, as the eigenproblems pass
    field = 1.0 + x**2 / 3.0
    field[0], field[-1], field[len(field) // 2] = 0.0, -0.7, 1e-300
    return {"scalar": 2.5, "field": field}


@pytest.mark.parametrize("kind", ["interval", "rectangle", "disk"])
@pytest.mark.parametrize("reaction", ["scalar", "field"])
@pytest.mark.parametrize("diffusion", [0.3, 0.0, 1e-12])
def test_shifted_operator_and_factor_are_bitwise_the_sparse_sum(kind, reaction, diffusion, monkeypatch):
    dom = {"interval": interval(9), "rectangle": rectangle(9, 7), "disk": disk(0.25)}[kind]
    r = _reactions(dom)[reaction]
    expected = _generic_operator(dom, r, diffusion)
    _assert_bitwise_equal(shifted_operator(dom, r, diffusion), expected)
    factored = []
    monkeypatch.setattr(grid, "sparse_lu", lambda A: factored.append(A))
    shifted_factor(dom, r, diffusion)
    # on K's full pattern the factor reuses the domain's order; the zero
    # diffusion diagonal is factored in its own CSC form, as it comes
    assert isinstance(factored[0], OrderedMatrix) == (diffusion != 0.0)
    _assert_bitwise_equal(_in_own_order(factored[0]), expected.tocsc())
    # the stiffness form the operator was built on is untouched
    _assert_bitwise_equal(stiffness_matrix(dom), _generic_operator(dom, 0.0, 1.0))


def test_shifted_operator_drops_an_exactly_cancelled_diagonal():
    # disk cells of 1/4 have measure 1/16 and unit edge weights, so this
    # reaction cancels K[i, i] exactly at node 0, which the sparse sum drops
    dom = disk(0.25)
    K = stiffness_matrix(dom)
    reaction = np.ones(dom.n_nodes)
    reaction[0] = -K[0, 0] / dom.cell_measures[0]
    A = shifted_operator(dom, reaction, 1.0)
    assert A.nnz == K.nnz - 1
    _assert_bitwise_equal(A, _generic_operator(dom, reaction, 1.0))


# ---------------------------------------------------------------------------
# One elimination order per mesh
# ---------------------------------------------------------------------------


def _varying(dom):
    x = dom.coords if dom.dim == 1 else dom.coords[:, 0]
    return 1.0 + x**2 / 3.0


def test_one_minimum_degree_order_serves_every_factor_on_a_mesh(superlu_calls):
    dom = disk(1 / 16)
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    c = CoefficientSet(
        dom, beta=3.0 + 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y), gamma=1.0, eta=1.0,
        recruitment=1.0, d_S=1.0, d_I=0.001, p=1.0, q=0.5,
    )
    find_ee(c)
    solve_dfe(replace(c, recruitment=dom.field(_varying(dom))))  # a constant factors nothing
    compute_r0(c)
    compute_lambda0(c)
    limit_small_ds(c)
    n, nnz = dom.n_nodes, stiffness_matrix(dom).nnz
    ordering = [call for call in superlu_calls if call[0] != "NATURAL"]
    # the mesh's one order; every other operator that orders itself is the
    # diagonal of the zero-diffusion march
    assert ordering.count(("MMD_AT_PLUS_A", n, nnz)) == 1
    assert {call for call in ordering if call[2] != nnz} == {("MMD_AT_PLUS_A", n, n)}
    # the coupled Jacobians, the zero-rate Schur complements, the march,
    # disease-free and eigen operators all factor in the mesh's order
    assert {(size, count == nnz) for spec, size, count in superlu_calls if spec == "NATURAL"} == {
        (n, True), (2 * n, False)
    }


@pytest.mark.parametrize("kind", ["interval", "rectangle", "disk"])
def test_factor_bits_do_not_depend_on_when_the_order_was_built(kind):
    build = {"interval": lambda: interval(33), "rectangle": rectangle, "disk": disk}[kind]
    fresh, primed = build(), build()
    # primed's orders are built by other operators first
    shifted_factor(primed, 3.0, 1e-3)
    sparse_lu(coupled_operator(primed, 0.5, 0.1, *[np.ones(primed.n_nodes)] * 4))
    assert fresh._ordering is None and primed._coupled_ordering is not None
    n = fresh.n_nodes
    r = _varying(fresh)
    b = np.sin(np.arange(2 * n))
    x_fresh = shifted_factor(fresh, 10.0 + r, 0.3).solve(b[:n])
    x_primed = shifted_factor(primed, 10.0 + r, 0.3).solve(b[:n])
    np.testing.assert_array_equal(x_fresh.view(np.uint64), x_primed.view(np.uint64))
    blocks = (-1.0 - r, 0.5 * r, 0.3 * r, -2.0 + 0.1 * r)
    y_fresh = sparse_lu(coupled_operator(build(), 0.2, 0.05, *blocks)).solve(b)
    y_primed = sparse_lu(coupled_operator(primed, 0.2, 0.05, *blocks)).solve(b)
    np.testing.assert_array_equal(y_fresh.view(np.uint64), y_primed.view(np.uint64))


@pytest.mark.parametrize("kind", ["interval", "rectangle", "disk"])
def test_mesh_order_is_the_minimum_degree_order_of_a_complete_factor(kind):
    dom = {"interval": interval(33), "rectangle": rectangle(17, 13), "disk": disk(1 / 16)}[kind]
    A = shifted_operator(dom, 1.0, 1.0).tocsc()
    complete = splu(
        A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    np.testing.assert_array_equal(solvers.minimum_degree_order(A), np.argsort(complete.perm_c))


def _backward_error(A, x, b):
    """``|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf)`` with ``A`` given as its product and norm."""
    product, norm = A
    return np.abs(b - product(x)).max() / (norm * np.abs(x).max() + np.abs(b).max())


@pytest.mark.parametrize("kind", ["interval", "rectangle", "disk"])
def test_ordered_factors_solve_to_a_small_backward_error(kind):
    dom = {"interval": interval(65), "rectangle": rectangle(17, 13), "disk": disk(1 / 16)}[kind]
    n = dom.n_nodes
    r = _varying(dom)
    b = np.cos(np.arange(2 * n))
    A = shifted_operator(dom, 2.5 + r, 0.3)
    x = shifted_factor(dom, 2.5 + r, 0.3).solve(b[:n])
    assert _backward_error((A.__matmul__, abs(A).sum(axis=1).max()), x, b[:n]) <= 1e-13
    J = coupled_operator(dom, 0.2, 0.05, -1.0 - r, 0.5 * r, 0.3 * r, -2.0 + 0.1 * r)
    y = sparse_lu(J).solve(b)
    assert _backward_error((J.__matmul__, abs(J.permuted).sum(axis=1).max()), y, b) <= 1e-13


def test_mask_morphology():
    dom = rectangle(7, 7)
    mask = np.zeros(dom.n_nodes, dtype=bool)
    center = nearest_node(dom, (0.5, 0.5))
    mask[center] = True
    grown = dilate_mask(dom, mask, 1)
    assert grown.sum() == 5  # von Neumann neighborhood
    assert erode_mask(dom, grown, 1).sum() == 1
    assert not erode_mask(dom, grown, 2).any()
    full = np.ones(dom.n_nodes, dtype=bool)
    assert erode_mask(dom, full, 3).all()


def test_nodes_near_catches_cell_corners():
    dom = rectangle(9, 9)
    # a point in the middle of a cell has exactly the 4 cell corners
    # within 1.5 spacings (the next ring sits at ~1.58 spacings)
    near = nodes_near(dom, (0.5625, 0.5625))
    assert len(near) == 4
    # a point sitting on a node additionally catches the axis neighbors
    # and diagonals
    assert len(nodes_near(dom, (0.5, 0.5))) == 9


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_field_csv_round_trip_1d(tmp_path):
    dom = interval(9)
    f = dom.field(np.sin(dom.coords) + 1 / 3)
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    coords, values = load_field_csv(path)
    np.testing.assert_array_equal(coords, dom.coords)
    np.testing.assert_array_equal(values, f.values)  # repr round-trips exactly


def test_field_csv_round_trip_2d(tmp_path):
    dom = disk(0.4)
    f = dom.field(np.arange(dom.n_nodes, dtype=float) / 7)
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    coords, values = load_field_csv(path)
    np.testing.assert_array_equal(coords, dom.coords)
    np.testing.assert_array_equal(values, f.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,value"


def _write_field_csv_per_row(path, f):
    """The row-at-a-time formatter the cached coordinate text replaced."""
    dom = f.domain
    with open(path, "w", newline="\n") as fh:
        if dom.dim == 1:
            fh.write("x,value\n")
            for x, v in zip(dom.coords, f.values):
                fh.write(f"{float(x)!r},{float(v)!r}\n")
        else:
            fh.write("x,y,value\n")
            for (x, y), v in zip(dom.coords, f.values):
                fh.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")


@pytest.mark.parametrize("dom", [interval(9, -1.0, 2.0), rectangle(9, 7), disk(0.3)], ids=["interval", "rectangle", "disk"])
def test_field_csv_bytes_match_the_per_row_formatter(dom, tmp_path):
    n = dom.n_nodes
    values = np.linspace(-1.0, 1.0, n) / 3.0
    values[:4] = [-0.0, 1e-300, 1e16, 0.0]
    fields = {
        "values": dom.field(values),
        "mask": dom.field(values > 0.1),
        "constant": dom.field(1.0),
    }
    for name, f in fields.items():
        for attempt in range(2):  # the second write reads the cached coordinate text
            new, old = tmp_path / f"{name}{attempt}.csv", tmp_path / f"{name}{attempt}-old.csv"
            write_field_csv(new, f)
            _write_field_csv_per_row(old, f)
            assert new.read_bytes() == old.read_bytes(), name
