import numpy as np
import pytest

from fvvem import mesh as fm
from fvvem import vem
from fvvem.linalg import jacobi, pcg


def single_cell_mesh(pts):
    n = len(pts)
    return fm.PolyMesh(np.asarray(pts, float), [np.arange(n)],
                       boundary_tags={e: "outer" for e in range(n)})


def unit_square_mesh():
    return single_cell_mesh([[0, 0], [1, 0], [1, 1], [0, 1]])


def build_one(pts, k):
    m = single_cell_mesh(pts)
    g = fm.build_geometry(m)
    return vem.build_element(m, g, 0, k), m, g


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
        m = single_cell_mesh(pts)
        g = fm.build_geometry(m)
        if fm.validate_regularity(m, g, 0.0).all_passed:
            return pts


class TestDofLayout:
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
        assert len(layout.cell_dofs[0]) == 9

    def test_two_squares_shared_edge_k2(self):
        verts = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], float)
        cells = [np.array([0, 1, 4, 5]), np.array([1, 2, 3, 4])]
        m = fm.PolyMesh(verts, cells,
                        boundary_tags={e: "outer" for e in range(7)})
        m.boundary_tags = {e: "outer" for e in range(m.n_edges)
                           if m.edge_cells[e, 1] < 0}
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 2)
        assert layout.n_dofs == 15
        shared = np.intersect1d(layout.cell_dofs[0], layout.cell_dofs[1])
        assert len(shared) == 3   # two vertices + one edge dof

    def test_k_out_of_range(self):
        m = unit_square_mesh()
        g = fm.build_geometry(m)
        with pytest.raises(vem.VemError):
            vem.build_dof_layout(m, g, 5)

    def test_shared_edge_dof_orientation(self):
        # global edge dofs must refer to the same physical points from both sides
        verts = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], float)
        cells = [np.array([0, 1, 4, 5]), np.array([1, 2, 3, 4])]
        m = fm.PolyMesh(verts, cells)
        m.boundary_tags = {e: "outer" for e in range(m.n_edges)
                           if m.edge_cells[e, 1] < 0}
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 3)
        e0, e1 = vem.build_element(m, g, 0, 3), vem.build_element(m, g, 1, 3)
        # dofs of the global function x interpolate position: check consistency
        for elem, ci in ((e0, 0), (e1, 1)):
            dofs = layout.cell_dofs[ci]
            coords = layout.dof_coords[dofs]
            interior = ~layout.is_moment[dofs]
            xvals = coords[interior, 0]
            dof_x = (elem.D @ np.array(
                [0, elem.basis.h, 0, 0, 0, 0, 0, 0, 0, 0]))[interior] \
                + elem.basis.center[0]
            assert np.allclose(dof_x, xvals, atol=1e-13)


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
        rule = fm.interior_quadrature(m, g, 0, 6)
        gx, gy = elem.basis.gradients(rule.nodes)
        Goracle = gx.T @ (gx * rule.weights[:, None]) + gy.T @ (gy * rule.weights[:, None])
        assert np.abs(elem.G[1:] - Goracle[1:]).max() < 1e-13

    def test_h_entry_area(self):
        pts = [[0, 0], [2, 0], [2, 1], [1, 2], [0, 1]]
        elem, _, g = build_one(pts, 2)
        assert elem.H[0, 0] == pytest.approx(g.area[0], rel=1e-14)

    def test_reduced_projector_symbolic(self):
        # k=2: dofs of m2 = x-monomial; reduced projector returns its coefficients
        elem, _, _ = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 2)
        d_m2 = elem.D[:, 1]
        coeffs = elem.pis_0_km1 @ d_m2
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


class TestVariableStiffness:
    def rule_pack(self, m, g, elem, k):
        rule = fm.interior_quadrature(m, g, 0, 2 * k + 2)
        mono = elem.basis.values(rule.nodes)
        return rule, mono

    def test_unit_coeff_k1_matches_constant(self):
        elem, m, g = build_one([[0, 0], [2, 0], [2, 1], [0, 1]], 1)
        rule, mono = self.rule_pack(m, g, elem, 1)
        K = vem.build_variable_stiffness(elem, np.ones(len(rule.weights)),
                                         rule.weights, mono[:, :1])
        assert np.abs(K - elem.stiffness).max() < 1e-12 * max(1.0, np.abs(elem.stiffness).max())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constants_in_kernel_any_coeff(self, k):
        rng = np.random.default_rng(3 + k)
        pts = random_star_polygon(rng)
        elem, m, g = build_one(pts, k)
        rule = fm.interior_quadrature(m, g, 0, 2 * k + 2)
        mono = elem.basis.values(rule.nodes)
        coeff = 2.0 + np.sin(rule.nodes[:, 0]) * np.cos(rule.nodes[:, 1])
        K = vem.build_variable_stiffness(elem, coeff, rule.weights,
                                         mono[:, :vem.n_poly(k - 1)])
        ones = elem.D[:, 0]
        assert np.abs(K @ ones).max() < 1e-11 * max(1.0, np.abs(K).max())

    def test_linearity_in_coefficient(self):
        elem, m, g = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 1)
        rule, mono = self.rule_pack(m, g, elem, 1)
        ones = np.ones(len(rule.weights))
        K1 = vem.build_variable_stiffness(elem, ones, rule.weights, mono[:, :1])
        K3 = vem.build_variable_stiffness(elem, 3.0 * ones, rule.weights, mono[:, :1])
        assert np.abs(K3 - 3.0 * K1).max() < 1e-12

    def test_dry_cell_error(self):
        elem, m, g = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 1)
        rule, mono = self.rule_pack(m, g, elem, 1)
        coeff = np.ones(len(rule.weights))
        coeff[0] = -0.1
        with pytest.raises(vem.VemError, match="dry"):
            vem.build_variable_stiffness(elem, coeff, rule.weights, mono[:, :1])


class TestProjectLoad:
    def test_zero(self):
        elem, _, _ = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 2)
        F = vem.project_load(elem, lambda p: np.zeros(len(p)))
        assert np.array_equal(F, np.zeros(elem.n_dof))

    def test_constant_partition(self):
        rng = np.random.default_rng(31)
        pts = random_star_polygon(rng)
        elem, _, _ = build_one(pts, 3)
        F = vem.project_load(elem, lambda p: np.ones(len(p)))
        # sum_i F_i = integral of Pi0(1) = |P| via constant reproduction
        ones = elem.D[:, 0]
        assert ones @ (elem.mass @ np.linalg.solve(elem.mass, F)) == pytest.approx(
            elem.area, rel=1e-12)
        assert F.sum() == pytest.approx(
            np.sum([vem_phi_integral for vem_phi_integral in elem.pis_0.T @ (
                elem.quad_monomials.T @ elem.quad_weights)]), rel=1e-12)

    def test_monomial_vs_quadrature_oracle(self):
        elem, m, g = build_one([[0, 0], [1, 0], [1, 1], [0, 1]], 2)
        f = lambda p: elem.basis.values(p)[:, 1]         # the x scaled monomial
        F = vem.project_load(elem, f)
        rule = fm.interior_quadrature(m, g, 0, 8)
        vals = elem.basis.values(rule.nodes)
        pi0_phi = vals @ elem.pis_0                       # (nq, ndof)
        oracle = pi0_phi.T @ (rule.weights * f(rule.nodes))
        assert np.abs(F - oracle).max() < 1e-13


class TestGlobalAssembly:
    def poisson_system(self, m, g, k, exact, rhs_f):
        layout = vem.build_dof_layout(m, g, k)
        elems = [vem.build_element(m, g, ci, k) for ci in range(m.n_cells)]
        mats = [e.stiffness for e in elems]
        loads = [vem.project_load(e, rhs_f) for e in elems]
        sysm = vem.assemble_global(m, layout, mats, loads,
                                   boundary_values=lambda p: exact(p),
                                   boundary_tags=set(m.boundary_tags.values()))
        x, rep = pcg(sysm.matrix, sysm.rhs, jacobi(sysm.matrix), tol=1e-15,
                     maxiter=8000)
        return x, layout

    def test_one_cell_equals_element(self):
        m = unit_square_mesh()
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 2)
        elem = vem.build_element(m, g, 0, 2)
        A = vem.scatter_matrix(layout, [elem.stiffness])
        assert np.abs(A.to_dense() - elem.stiffness).max() < 1e-15

    def test_two_cell_additivity(self):
        verts = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], float)
        cells = [np.array([0, 1, 4, 5]), np.array([1, 2, 3, 4])]
        m = fm.PolyMesh(verts, cells)
        m.boundary_tags = {e: "outer" for e in range(m.n_edges)
                           if m.edge_cells[e, 1] < 0}
        g = fm.build_geometry(m)
        layout = vem.build_dof_layout(m, g, 1)
        e0 = vem.build_element(m, g, 0, 1)
        e1 = vem.build_element(m, g, 1, 1)
        A = vem.scatter_matrix(layout, [e0.stiffness, e1.stiffness]).to_dense()
        d0, d1 = layout.cell_dofs[0], layout.cell_dofs[1]
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
        free = ~layout.is_moment
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
                elem = vem.build_element(m, g, ci, k)
                rule = fm.interior_quadrature(m, g, ci, 2 * k + 2)
                coeff = elem.pis_0 @ x[layout.cell_dofs[ci]]
                uh = elem.basis.values(rule.nodes) @ coeff
                total += np.sum(rule.weights * (uh - exact(rule.nodes)) ** 2)
            errs.append(np.sqrt(total))
            hs.append(g.h.max())
        order = np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1])
        assert order > k + 0.5
