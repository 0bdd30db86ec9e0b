from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from fvvem import mesh as fm
from fvvem import vem
from fvvem.linalg import DirichletSet, apply_dirichlet, pcg
from fvvem.models import Discretization, DryStateError


def single_cell_mesh(pts):
    n = len(pts)
    m = fm.PolyMesh.from_loops(np.asarray(pts, float), [np.arange(n)])
    m.boundary_tags = {"outer": np.arange(n)}
    return m


def unit_square_mesh():
    return single_cell_mesh([[0, 0], [1, 0], [1, 1], [0, 1]])


def cell_element(m, g, ci, k):
    """The element of cell ci alone: the arrays of a group of one, unstacked."""
    elem = vem.build_element(m, g, np.array([ci]), k)
    arrays = {f.name: getattr(elem, f.name)[0] for f in fields(elem)
              if isinstance(getattr(elem, f.name), np.ndarray)}
    basis = vem.MonomialBasis(k, elem.basis.center[0], elem.basis.h[0])
    return SimpleNamespace(**arrays, basis=basis)


def build_one(pts, k):
    m = single_cell_mesh(pts)
    g = fm.build_geometry(m)
    return cell_element(m, g, 0, k), m, g


def random_star_polygon(rng):
    while True:
        n = rng.integers(4, 9)
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        gaps = np.diff(np.append(ang, ang[0] + 2 * np.pi))
        if gaps.min() < 0.15 or gaps.max() > 0.9 * np.pi:
            continue
        r = rng.uniform(0.7, 1.3, n)
        scale = rng.uniform(0.5, 2.0)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)]) * scale
        pts += rng.uniform(-5, 5, 2)
        # star-shaped with respect to its barycenter: left of every side
        d = np.roll(pts, -1, axis=0) - pts
        rel = fm.build_geometry(single_cell_mesh(pts)).barycenter[0] - pts
        if np.all(d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0] > 0.0):
            return pts


def oracle_cell_dofs(m, layout) -> list:
    """Per-cell loop reference of each cell's dofs: vertex dofs in loop
    order, each side's interior edge dofs (reversed where the cell is the
    edge's right cell), then the cell's moments."""
    k, nkm2 = layout.k, vem.n_poly(layout.k - 2)
    out = []
    for ci in range(m.n_cells):
        loop = fm.ragged_rows(m.cell_ptr, m.loop_vertices, ci)
        ids = list(loop)
        for e, s in zip(fm.ragged_rows(m.cell_ptr, m.loop_edges, ci),
                        fm.ragged_rows(m.cell_ptr, m.loop_signs, ci)):
            inner = layout.edge_trace_dofs[e, 1:-1]
            ids += list(inner if s > 0 else inner[::-1])
        ids += list(layout.moment_base + ci * nkm2 + np.arange(nkm2))
        out.append(np.array(ids, dtype=np.int64))
    return out


class TestDofLayout:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("periodic", [(False, False), (True, True), (False, True)])
    def test_flat_dofs_equal_the_per_cell_loop(self, k, periodic):
        m = fm.generate_voronoi((0, 1, 0, 1), 30, lloyd_iters=3, seed=5, periodic=periodic)
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, k)
        oracle = oracle_cell_dofs(m, layout)
        assert np.array_equal(layout.dof_ptr, np.cumsum([0] + [len(d) for d in oracle]))
        assert layout.dof_ids.dtype == np.int64
        assert np.array_equal(layout.dof_ids, np.concatenate(oracle))
        for ci in range(m.n_cells):
            assert np.array_equal(layout.cell_dofs(ci), oracle[ci])
        moments = layout.dof_coords[layout.moment_base:]
        assert np.array_equal(moments, np.repeat(g.barycenter, vem.n_poly(k - 2), axis=0))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("periodic", [(False, False), (True, True)])
    def test_edge_trace_dofs_equal_the_per_edge_oracle(self, k, periodic):
        # edge e: its first vertex, its k - 1 interior dofs in order, its
        # second vertex; each cell side reads them in its loop direction
        m = fm.generate_voronoi((0, 1, 0, 1), 30, lloyd_iters=3, seed=5, periodic=periodic)
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, k)
        nv = m.n_vertices
        oracle = [[a, *(nv + e * (k - 1) + np.arange(k - 1)), b]
                  for e, (a, b) in enumerate(m.edges)]
        assert layout.edge_trace_dofs.dtype == np.int64
        assert np.array_equal(layout.edge_trace_dofs, np.array(oracle).reshape(-1, k + 1))
        for ci in range(m.n_cells):
            dofs = layout.cell_dofs(ci)
            n = m.cell_sizes[ci]
            sides = zip(fm.ragged_rows(m.cell_ptr, m.loop_edges, ci),
                        fm.ragged_rows(m.cell_ptr, m.loop_signs, ci))
            for a, (e, s) in enumerate(sides):
                side = [dofs[a], *dofs[n + a * (k - 1):n + (a + 1) * (k - 1)],
                        dofs[(a + 1) % n]]
                row = layout.edge_trace_dofs[e]
                assert np.array_equal(side, row if s > 0 else row[::-1])

    def test_square_k1(self):
        m = unit_square_mesh()
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 1)
        assert layout.n_dofs == 4

    def test_square_k2(self):
        m = unit_square_mesh()
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 2)
        assert layout.n_dofs == 9
        assert len(layout.cell_dofs(0)) == 9

    def test_two_squares_shared_edge_k2(self):
        verts = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], float)
        cells = [np.array([0, 1, 4, 5]), np.array([1, 2, 3, 4])]
        m = fm.PolyMesh.from_loops(verts, cells)
        m.boundary_tags = {"outer": np.flatnonzero(m.edge_cells[:, 1] < 0)}
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 2)
        assert layout.n_dofs == 15
        shared = np.intersect1d(layout.cell_dofs(0), layout.cell_dofs(1))
        assert len(shared) == 3   # two vertices + one edge dof

    def test_k_out_of_range(self):
        m = unit_square_mesh()
        g = fm.build_geometry(m)
        with pytest.raises(vem.VemError):
            vem.build_dof_layout(m, g, 5)

    @pytest.mark.parametrize("k", [0, 5])
    def test_discretization_rejects_k_before_the_fv_setup(self, k):
        m = fm.generate_voronoi((0, 1, 0, 1), 12, lloyd_iters=2, seed=1)
        with pytest.raises(vem.VemError, match="outside the supported range"):
            Discretization(m, fm.build_geometry(m), k)

    def test_shared_edge_dof_orientation(self):
        # global edge dofs must refer to the same physical points from both sides
        verts = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], float)
        cells = [np.array([0, 1, 4, 5]), np.array([1, 2, 3, 4])]
        m = fm.PolyMesh.from_loops(verts, cells)
        m.boundary_tags = {"outer": np.flatnonzero(m.edge_cells[:, 1] < 0)}
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 3)
        e0, e1 = cell_element(m, g, 0, 3), cell_element(m, g, 1, 3)
        # dofs of the global function x interpolate position: check consistency
        for elem, ci in ((e0, 0), (e1, 1)):
            dofs = layout.cell_dofs(ci)
            coords = layout.dof_coords[dofs]
            interior = dofs < layout.moment_base
            xvals = coords[interior, 0]
            dof_x = (elem.D @ np.array(
                [0, elem.basis.h, 0, 0, 0, 0, 0, 0, 0, 0]))[interior] \
                + elem.basis.center[0]
            assert np.allclose(dof_x, xvals, atol=1e-13)


class TestDerivativeTable:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_maps_equal_the_per_monomial_formulas(self, k):
        # d/dx ((x - xc)/h)^a ((y - yc)/h)^b = a/h ((x - xc)/h)^(a-1) ((y - yc)/h)^b
        rng = np.random.default_rng(k)
        center, h = rng.uniform(-2, 2, (3, 2)), rng.uniform(0.1, 2.0, 3)
        pts = center[:, None] + rng.uniform(-1, 1, (3, 7, 2)) * h[:, None, None]
        basis = vem.MonomialBasis(k, center, h)
        xi, et = ((pts[..., i] - center[:, None, i]) / h[:, None] for i in (0, 1))

        def mono(a, b):
            return xi ** a * et ** b if a >= 0 and b >= 0 else np.zeros_like(xi)

        idx = vem.multi_indices(k)
        hh = h[:, None]
        want_x = np.stack([a * mono(a - 1, b) / hh for a, b in idx], axis=-1)
        want_y = np.stack([b * mono(a, b - 1) / hh for a, b in idx], axis=-1)
        want_lap = np.stack([(a * (a - 1) * mono(a - 2, b) + b * (b - 1) * mono(a, b - 2))
                             / hh ** 2 for a, b in idx], axis=-1)
        vals = basis.values(pts)
        for got, want in ((vals @ basis.derivative_coeffs(0).transpose(0, 2, 1), want_x),
                          (vals @ basis.derivative_coeffs(1).transpose(0, 2, 1), want_y),
                          (vals @ basis.laplacian_coeffs().transpose(0, 2, 1), want_lap)):
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_read_only_table_per_order(self, k):
        table = vem.derivative_table(k)
        assert table is vem.derivative_table(k) and not table.flags.writeable
        assert table.shape == (2, vem.n_poly(k), vem.n_poly(k))
        assert small_disc(k).derivative_maps is table


class TestProjectors:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_identities_on_square(self, k):
        elem, _, _ = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], k)
        nk = elem.basis.n
        assert np.abs(elem.B @ elem.D - elem.G).max() < 1e-12
        assert np.abs(elem.pis_nabla @ elem.D - np.eye(nk)).max() < 1e-11
        assert np.abs(elem.H @ elem.pis_0 - elem.C).max() < 1e-12
        assert np.abs(elem.pis_0 @ elem.D - np.eye(nk)).max() < 1e-11

    def test_g_entry_p0_of_constant(self):
        elem, _, _ = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 1)
        assert elem.G[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_g_vs_gradient_quadrature_oracle(self):
        elem, m, g = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 2)
        rule = fm.polygon_quadrature(m.cell_coords(0), g.barycenter[0], 6)
        vals = elem.basis.values(rule.nodes)
        gx, gy = (vals @ elem.basis.derivative_coeffs(axis).T for axis in (0, 1))
        Goracle = gx.T @ (gx * rule.weights[:, None]) + gy.T @ (gy * rule.weights[:, None])
        assert np.abs(elem.G[1:] - Goracle[1:]).max() < 1e-13

    def test_h_entry_area(self):
        pts = [[0, 0], [2, 0], [2, 1], [1, 2], [0, 1]]
        elem, _, g = build_one(pts, 2)
        assert elem.H[0, 0] == pytest.approx(g.area[0], rel=1e-14)

    def test_reduced_projector_symbolic(self):
        # k=2: dofs of m2 = x-monomial; the L2 projector onto P_{k-1},
        # H_{k-1}^-1 C_{k-1}, returns its coefficients
        elem, _, _ = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 2)
        d_m2 = elem.D[:, 1]
        coeffs = np.linalg.solve(elem.H[:3, :3], elem.C[:3]) @ d_m2
        expect = np.zeros(3)
        expect[1] = 1.0
        assert np.allclose(coeffs, expect, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_polygons_random_polynomials(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(40):
            pts = random_star_polygon(rng)
            elem, _, _ = build_one(pts, k)
            c = rng.standard_normal(elem.basis.n)
            d = elem.D @ c
            assert np.abs(elem.pis_nabla @ d - c).max() < 1e-10 * max(1, np.abs(c).max())
            assert np.abs(elem.pis_0 @ d - c).max() < 1e-10 * max(1, np.abs(c).max())


class TestMassStiffness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constant_vector_identities(self, k):
        rng = np.random.default_rng(7 + k)
        pts = random_star_polygon(rng)
        elem, _, g = build_one(pts, k)
        ones = elem.D[:, 0]
        assert np.abs(elem.stiffness @ ones).max() < 1e-12 * max(1.0, np.abs(elem.stiffness).max())
        assert ones @ elem.mass @ ones == pytest.approx(elem.area, rel=1e-12)

    def test_mass_symmetric(self):
        elem, _, _ = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 3)
        assert np.abs(elem.mass - elem.mass.T).max() < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mass_positive_definite_random(self, k):
        rng = np.random.default_rng(50 + k)
        for _ in range(100):
            pts = random_star_polygon(rng)
            elem, _, _ = build_one(pts, k)
            ev = np.linalg.eigvalsh(elem.mass)
            assert ev.min() > 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stiffness_psd_kernel_constants(self, k):
        rng = np.random.default_rng(90 + k)
        pts = random_star_polygon(rng)
        elem, _, _ = build_one(pts, k)
        ev = np.linalg.eigvalsh(elem.stiffness)
        assert ev[0] > -1e-12 * max(1.0, ev[-1])
        assert ev[0] < 1e-10 * ev[-1]          # one zero eigenvalue (constants)
        assert ev[1] > 1e-8 * ev[-1]           # and only one


def small_disc(k, n=30, seed=4):
    m = fm.generate_voronoi((0, 2, 0, 1), n, lloyd_iters=5, seed=seed)
    return Discretization(m, fm.build_geometry(m), k)


def scatter_loads(m, g, k, layout, f):
    """Per-cell oracle of the global load (f, Pi0 phi_i), each cell's by a
    rule of degree 2k."""
    out = np.zeros(layout.n_dofs)
    for ci in range(m.n_cells):
        elem = cell_element(m, g, ci, k)
        rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci],
                                     max(2 * k, 2))
        moments = elem.basis.values(rule.nodes).T @ (rule.weights * f(rule.nodes))
        np.add.at(out, layout.cell_dofs(ci), elem.pis_0.T @ moments)
    return out


def discretization_load(disc, f):
    """(f, Pi0 phi_i) through the Discretization: L2 projection onto the
    cells' polynomials, then their load."""
    return disc.load_from_taylor(disc.project_field(f, degree=2 * disc.k + 2))


def pi0_of(disc, dofs):
    """Monomial coefficients (ncell, nk) of the Pi0 polynomial of a VEM field."""
    return disc.to_monomial(disc.vem_to_fv(dofs))


class TestVariableStiffness:
    def test_unit_coeff_k1_matches_constant(self):
        disc = small_disc(1)
        K = disc.variable_stiffness_global(pi0_of(disc, np.ones(disc.layout.n_dofs)))
        K = K.to_scipy().toarray()
        K0 = disc.K.to_scipy().toarray()
        assert np.abs(K - K0).max() < 1e-12 * max(1.0, np.abs(K0).max())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constants_in_kernel_any_coeff(self, k):
        disc = small_disc(k, seed=3 + k)
        coeff = disc.interpolate_dofs(lambda p: 2.0 + np.sin(p[:, 0]) * np.cos(p[:, 1]))
        K = disc.variable_stiffness_global(pi0_of(disc, coeff))
        assert np.abs(K.to_scipy() @ disc.ones).max() < 1e-11 * max(1.0, np.abs(K.data).max())

    def test_linearity_in_coefficient(self):
        disc = small_disc(1)
        ones = np.ones(disc.layout.n_dofs)
        K1 = disc.variable_stiffness_global(pi0_of(disc, ones)).to_scipy().toarray()
        K3 = disc.variable_stiffness_global(pi0_of(disc, 3.0 * ones)).to_scipy().toarray()
        assert np.abs(K3 - 3.0 * K1).max() < 1e-12 * max(1.0, np.abs(K1).max())

    def test_dry_cell_error(self):
        disc = small_disc(1)
        coeff = np.ones(disc.layout.n_dofs)
        coeff[disc.layout.cell_dofs(0)] = -0.1
        with pytest.raises(DryStateError, match="dry"):
            disc.variable_stiffness_global(pi0_of(disc, coeff))


class TestProjectLoad:
    def test_zero(self):
        disc = small_disc(2)
        F = discretization_load(disc, lambda p: np.zeros(len(p)))
        assert np.array_equal(F, np.zeros(disc.layout.n_dofs))

    def test_constant_partition(self):
        disc = small_disc(3, seed=31)
        F = discretization_load(disc, lambda p: np.ones(len(p)))
        # integral of Pi0(1) * 1 = |Omega| via constant reproduction
        assert disc.ones @ F == pytest.approx(disc.area_total, rel=1e-12)
        oracle = scatter_loads(disc.mesh, disc.geom, 3, disc.layout, lambda p: np.ones(len(p)))
        assert F.sum() == pytest.approx(oracle.sum(), rel=1e-12)

    def test_monomial_vs_quadrature_oracle(self):
        disc = small_disc(2)
        # a quadratic: its projection onto each cell's polynomials is exact,
        # and the oracle's degree-4 rule integrates it times Pi0 phi_i exactly
        f = lambda p: 1.0 + p[:, 0] - 2.0 * p[:, 1] + 0.5 * p[:, 0] ** 2 + p[:, 0] * p[:, 1]
        F = discretization_load(disc, f)
        oracle = scatter_loads(disc.mesh, disc.geom, 2, disc.layout, f)
        assert np.abs(F - oracle).max() < 1e-13 * np.abs(oracle).max()


def dof_pattern(layout, groups):
    """The dof pattern of groups of cell ids (an int is a group of one)."""
    dofs = [layout.cell_dofs(np.atleast_1d(ids)) for ids in groups]
    return vem.AssemblyPattern(dofs, dofs, (layout.n_dofs, layout.n_dofs))


class TestGlobalAssembly:
    def poisson_system(self, m, g, k, exact, rhs_f):
        layout = vem.build_dof_layout(m, g, k)
        groups = m.vertex_count_groups
        mats = [vem.build_element(m, g, idx, k).stiffness for idx in groups]
        pattern = dof_pattern(layout, groups)
        A = vem.scatter_matrix(pattern, mats)
        b = scatter_loads(m, g, k, layout, rhs_f)
        fixed = DirichletSet(pattern, vem.dirichlet_dofs(m, layout, set(m.boundary_tags)))
        b = fixed.rhs(A, b, exact(layout.dof_coords[fixed.dofs]))
        x, rep = pcg(apply_dirichlet(A, fixed), b, tol=1e-15, maxiter=8000)
        return x, layout

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rectangular_pattern_sums_repeated_pairs(self, seed):
        # few distinct (row, col) pairs for many block entries: every pair repeats
        rng = np.random.default_rng(seed)
        shape = (7, 5)
        rows = [rng.integers(0, 7, (4, 3)), rng.integers(0, 7, (2, 6))]
        cols = [rng.integers(0, 5, (4, 2)), rng.integers(0, 5, (2, 4))]
        blocks = [rng.standard_normal((len(r), r.shape[1], c.shape[1]))
                  for r, c in zip(rows, cols)]
        dense = np.zeros(shape)
        for r, c, b in zip(rows, cols, blocks):
            np.add.at(dense, (r[:, :, None], c[:, None, :]), b)
        pattern = vem.AssemblyPattern(rows, cols, shape)
        pairs = {(i, j) for r, c in zip(rows, cols)
                 for rr, cc in zip(r, c) for i in rr for j in cc}
        assert pattern.nnz == len(pairs) < pattern.positions.size
        A = vem.scatter_matrix(pattern, blocks)
        assert A.shape == shape
        assert all(np.all(np.diff(A.indices[A.indptr[i]:A.indptr[i + 1]]) > 0)
                   for i in range(shape[0]))
        assert np.abs(A.to_scipy().toarray() - dense).max() <= 1e-15 * np.abs(dense).max()

    def test_one_cell_equals_element(self):
        m = unit_square_mesh()
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 2)
        elem = cell_element(m, g, 0, 2)
        A = vem.scatter_matrix(dof_pattern(layout, [0]), [elem.stiffness])
        assert np.abs(A.to_scipy().toarray() - elem.stiffness).max() < 1e-15

    def test_two_cell_additivity(self):
        verts = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], float)
        cells = [np.array([0, 1, 4, 5]), np.array([1, 2, 3, 4])]
        m = fm.PolyMesh.from_loops(verts, cells)
        m.boundary_tags = {"outer": np.flatnonzero(m.edge_cells[:, 1] < 0)}
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 1)
        e0 = cell_element(m, g, 0, 1)
        e1 = cell_element(m, g, 1, 1)
        A = vem.scatter_matrix(dof_pattern(layout, [0, 1]),
                               [e0.stiffness, e1.stiffness]).to_scipy().toarray()
        d0, d1 = layout.cell_dofs(0), layout.cell_dofs(1)
        expect = np.zeros_like(A)
        expect[np.ix_(d0, d0)] += e0.stiffness
        expect[np.ix_(d1, d1)] += e1.stiffness
        assert np.abs(A - expect).max() < 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_laplace_patch_polynomial(self, k):
        # exact solution in P_k reproduced through the assembled system
        m = fm.generate_voronoi((0, 1, 0, 1), 24, lloyd_iters=6, seed=5)
        g = fm.build_geometry(m)
        idx = vem.multi_indices(k)

        def exact(p):
            p = np.atleast_2d(p)
            out = np.zeros(len(p))
            for a, b in idx:
                out += p[:, 0] ** a * p[:, 1] ** b
            return out

        def minus_lap(p):
            p = np.atleast_2d(p)
            out = np.zeros(len(p))
            for a, b in idx:
                if a >= 2:
                    out -= a * (a - 1) * p[:, 0] ** (a - 2) * p[:, 1] ** b
                if b >= 2:
                    out -= b * (b - 1) * p[:, 0] ** a * p[:, 1] ** (b - 2)
            return out

        x, layout = self.poisson_system(m, g, k, exact, minus_lap)
        free = np.arange(layout.n_dofs) < layout.moment_base
        err = np.abs(x[free] - exact(layout.dof_coords[free])).max()
        assert err < 1e-10

    def test_poisson_convergence_order(self):
        # manufactured sin(pi x) sin(pi y); L2 error decays at order k+1
        k = 2
        exact = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        rhs = lambda p: 2 * np.pi ** 2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        errs, hs = [], []
        for n in (60, 240):
            m = fm.generate_voronoi((0, 1, 0, 1), n, lloyd_iters=8, seed=2)
            g = fm.build_geometry(m)
            x, layout = self.poisson_system(m, g, k, exact, rhs)
            # L2 error via Pi0 of the solution against dense quadrature
            total = 0.0
            for ci in range(m.n_cells):
                elem = cell_element(m, g, ci, k)
                rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci],
                                             2 * k + 2)
                coeff = elem.pis_0 @ x[layout.cell_dofs(ci)]
                uh = elem.basis.values(rule.nodes) @ coeff
                total += np.sum(rule.weights * (uh - exact(rule.nodes)) ** 2)
            errs.append(np.sqrt(total))
            hs.append(g.h.max())
        order = np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1])
        assert order > k + 0.5
