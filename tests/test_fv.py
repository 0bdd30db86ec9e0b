import numpy as np
import pytest
import scipy.sparse as sp

from fvvem import fv as fvmod
from fvvem import mesh as fm
from fvvem.harness import cases
from fvvem.models import BoundaryCondition, Discretization, InsModel, SweDriver, SweModel


def voronoi_mesh(n, seed, periodic, box):
    m = fm.generate_voronoi(box, n, lloyd_iters=8, seed=seed, periodic=periodic)
    return m, fm.build_geometry(m)


def voronoi_ops(k, n=80, seed=3, periodic=(True, True), box=(0, 1, 0, 1)):
    m, g = voronoi_mesh(n, seed, periodic, box)
    return fvmod.FvOperators(m, g, k), m, g


def voronoi_disc(k, n=80, seed=3, periodic=(True, True), box=(0, 1, 0, 1)):
    """A Discretization, for tests that take cell means of a function."""
    m, g = voronoi_mesh(n, seed, periodic, box)
    return Discretization(m, g, k), m, g


class TestTaylorBasis:
    def test_beta1_integrates_to_area(self):
        ops, m, g = voronoi_ops(2, n=30, periodic=(False, False))
        tb = ops.taylor
        for ci in range(m.n_cells):
            rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 4)
            vals = tb.values(ci, rule.nodes)
            assert rule.weights @ vals[:, 0] == pytest.approx(g.area[ci], rel=1e-13)

    def test_odd_correction_zero_on_symmetric_cell(self):
        pts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        m = fm.PolyMesh.from_loops(pts, [np.arange(4)])
        g = fm.build_geometry(m)
        tb = fvmod.TaylorBasis(m, g, 2)
        # centered square: first-order monomials have zero mean
        assert abs(tb.corrections[0, 1]) < 1e-15
        assert abs(tb.corrections[0, 2]) < 1e-15

    def test_corrections_match_quadrature_oracle(self):
        ops, m, g = voronoi_ops(3, n=20, periodic=(False, False))
        tb = ops.taylor
        for ci in range(m.n_cells):
            rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 8)
            basis = tb.cell_basis(ci)
            means = rule.weights @ basis.values(rule.nodes) / g.area[ci]
            assert np.abs(tb.corrections[ci, 1:] - means[1:]).max() < 1e-13

    def test_zero_mean_property(self):
        ops, m, g = voronoi_ops(2, n=25, periodic=(False, False))
        tb = ops.taylor
        for ci in range(0, m.n_cells, 5):
            rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 6)
            vals = tb.values(ci, rule.nodes)
            ints = rule.weights @ vals
            assert np.abs(ints[1:]).max() < 1e-13 * g.area[ci]


class TestCweno:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_linear_reproduction(self, k):
        disc, m, g = voronoi_disc(k, n=60, periodic=(False, False))
        ops = disc.fvops
        lin = lambda p: 2.0 + 3.0 * p[:, 0] - 1.5 * p[:, 1]
        Q = disc.cell_means(lin)
        coeffs = ops.reconstruct(Q)
        for ci in range(0, m.n_cells, 7):
            pts = m.cell_coords(ci)
            vals = ops.taylor.values(ci, pts) @ coeffs[0, ci]
            assert np.abs(vals - lin(pts)).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_polynomial_reproduction_invariant(self, k):
        # globally degree-k data reconstructed exactly (1e-11)
        disc, m, g = voronoi_disc(k, n=70, seed=11, periodic=(False, False))
        ops = disc.fvops
        rng = np.random.default_rng(k)
        cs = rng.standard_normal((k + 1) * (k + 2) // 2)

        def poly(p):
            out = np.zeros(len(p))
            i = 0
            for d in range(k + 1):
                for a in range(d, -1, -1):
                    out += cs[i] * p[:, 0] ** a * p[:, 1] ** (d - a)
                    i += 1
            return out

        Q = disc.cell_means(poly)           # a rule of degree 2k+2
        coeffs = ops.reconstruct(Q)
        worst = 0.0
        for ci in range(m.n_cells):
            pts = np.vstack([m.cell_coords(ci), g.barycenter[ci][None]])
            vals = ops.taylor.values(ci, pts) @ coeffs[0, ci]
            worst = max(worst, np.abs(vals - poly(pts)).max())
        assert worst < 1e-11 * max(1.0, np.abs(cs).max())

    def test_cell_average_preserved(self):
        ops, m, g = voronoi_ops(2, n=60, seed=5)
        rng = np.random.default_rng(0)
        Q = rng.standard_normal(m.n_cells)
        coeffs = ops.reconstruct(Q)
        assert np.abs(coeffs[0, :, 0] - Q).max() < 1e-13
        # first Taylor coefficient IS the cell average by basis construction
        for ci in range(0, m.n_cells, 9):
            rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 6)
            vals = ops.taylor.values(ci, rule.nodes) @ coeffs[0, ci]
            assert rule.weights @ vals / g.area[ci] == pytest.approx(Q[ci], abs=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("domain", [
        dict(box=(0, 1, 0, 1)), dict(box=(0, 1, 0, 1), periodic=(True, True)),
        dict(box=(-2, 2, -2, 2), hole_center=(0.0, 0.0), hole_radius=0.5),
    ], ids=["box", "torus", "hole"])
    def test_constant_is_the_cell_mean_bitwise(self, domain, k):
        # one SWE step past a smooth wave; the weights of the polynomials sum
        # to one only to roundoff, so a sum of weighted means would not be Qbar
        m = fm.generate_voronoi(n_seeds=90, lloyd_iters=8, seed=4, **domain)
        disc = Discretization(m, fm.build_geometry(m), k)
        drv = SweDriver(disc, {tag: BoundaryCondition("wall") for tag in m.boundary_tags})
        bump = lambda p, t: np.stack([1.0 + 0.1 * np.sin(2.0 * p[:, 0]) * np.cos(p[:, 1]),
                                      np.zeros(len(p)), np.zeros(len(p))])
        state = drv.initial_state(bump)
        state = drv.step(state, drv.compute_dt(state))
        assert np.array_equal(disc.fvops.reconstruct(state.Q)[..., 0], state.Q)

    def test_step_data_stays_in_stencil_bounds(self):
        # dam-break style initial data: edge-extrapolated values bounded by
        # the stencil averages (no spurious overshoot)
        ops, m, g = voronoi_ops(2, n=120, seed=8, periodic=(False, True),
                                box=(-0.5, 0.5, -0.05, 0.05))
        Q = np.where(g.barycenter[:, 0] <= 0.0, 1.0, 2.0)
        coeffs = ops.reconstruct(Q)
        wL, wR = ops.edge_states(coeffs)
        lo, hi = Q.min() - 1e-10, Q.max() + 1e-10
        assert wL.min() >= lo and wL.max() <= hi
        assert wR.min() >= lo and wR.max() <= hi

    def test_too_small_mesh_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        m = fm.PolyMesh.from_loops(pts, [np.arange(4)])
        m.boundary_tags = {"o": np.arange(4)}
        g = fm.build_geometry(m)
        with pytest.raises(fvmod.FvError):
            fvmod.FvOperators(m, g, 2)


class TestRusanov:
    def test_consistency(self):
        model = SweModel()
        rng = np.random.default_rng(1)
        for _ in range(200):
            eta = rng.uniform(0.5, 2.0)
            w = np.array([eta, rng.normal(), rng.normal(), 0.0])
            ang = rng.uniform(0, 2 * np.pi)
            n = np.array([np.cos(ang), np.sin(ang)])
            F = fvmod.rusanov_flux(w, w, n, model)
            assert np.allclose(F, model.explicit_flux_normal(w, n), atol=1e-14)

    def test_swe_rest_state_zero_flux(self):
        model = SweModel()
        wL = np.array([1.0, 0.0, 0.0, 0.2])
        wR = np.array([1.0, 0.0, 0.0, 0.1])
        F = fvmod.rusanov_flux(wL, wR, np.array([1.0, 0.0]), model)
        assert np.array_equal(F, np.zeros(2))

    def test_ins_hand_computed(self):
        model = InsModel()
        wL = np.array([1.0, 0.0])
        wR = np.array([0.0, 0.0])
        F = fvmod.rusanov_flux(wL, wR, np.array([1.0, 0.0]), model)
        assert F[0] == pytest.approx(1.0, abs=1e-15)

    def test_nonfinite_state_raises(self):
        model = InsModel()
        with pytest.raises(fvmod.FvError):
            fvmod.rusanov_flux(np.array([np.nan, 0.0]), np.array([0.0, 0.0]),
                               np.array([1.0, 0.0]), model)


class TestExplicitOperator:
    def test_uniform_state_fixed_point(self):
        ops, m, g = voronoi_ops(2, n=50, seed=2)
        model = InsModel()
        Q = np.tile(np.array([[0.3], [-0.7]]), (1, m.n_cells))
        coeffs = ops.reconstruct(Q)
        F = fvmod.explicit_operator(ops, model, coeffs, Q, 0.1, 0.0, None)
        assert np.abs(F - Q).max() < 1e-13

    def test_swe_rest_over_bump_zero_update(self):
        disc, m, g = voronoi_disc(2, n=50, seed=4)
        ops = disc.fvops
        model = SweModel()
        b = disc.cell_means(      # a rule of degree 6
            lambda p: 0.3 * np.exp(-10 * ((p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2)))
        eta = np.ones(m.n_cells)
        Q = np.stack([eta, np.zeros_like(eta), np.zeros_like(eta)])
        bco = np.zeros((m.n_cells, ops.nk))
        bco[:, 0] = b
        full = np.concatenate([ops.reconstruct(Q), bco[None]], axis=0)
        F = fvmod.explicit_operator(ops, model, full, Q, 0.05, 0.0, None)
        assert np.abs(F).max() < 1e-14

    @pytest.mark.parametrize("k", [1, 2])
    def test_conservation_periodic(self, k):
        ops, m, g = voronoi_ops(k, n=60, seed=6)
        model = InsModel()
        rng = np.random.default_rng(3)
        Q = 0.5 + 0.1 * rng.standard_normal((2, m.n_cells))
        coeffs = ops.reconstruct(Q)
        F = fvmod.explicit_operator(ops, model, coeffs, Q, 0.01, 0.0, None)
        before = (g.area * Q).sum(axis=1)
        after = (g.area * F).sum(axis=1)
        assert np.abs(after - before).max() < 1e-12 * np.abs(before).max()

    def test_flux_antisymmetry_by_construction(self):
        # interior fluxes are evaluated once; the two cells see exactly
        # opposite contributions, so a zero-dt update sums signs to zero
        ops, m, g = voronoi_ops(1, n=40, seed=9)
        model = InsModel()
        rng = np.random.default_rng(5)
        Q = rng.standard_normal((2, m.n_cells))
        coeffs = ops.reconstruct(Q)
        F1 = fvmod.explicit_operator(ops, model, coeffs, Q, 0.5, 0.0, None)
        total = (g.area * (F1 - Q)).sum(axis=1)
        assert np.abs(total).max() < 1e-12


def oracle_divergence_update(ops, fhat):
    """Per-cell (1/|P|) * signed sum of the integrated edge values: the
    np.add.at loop the SWE mass update used before `edge_sum`."""
    edge_int = np.einsum("eg,eg->e", fhat, ops.edge_weights)
    out = np.zeros(ops.mesh.n_cells)
    L, R = ops.mesh.edge_cells.T
    np.add.at(out, L, edge_int)
    np.add.at(out, R[ops.interior], -edge_int[ops.interior])
    return out / ops.geom.area


def edge_table_incidence(mesh):
    """The signed cell-edge incidence from the edge table alone: +1 at each
    edge's left cell, -1 at its right one."""
    L, R = mesh.edge_cells.T
    inte = np.flatnonzero(R >= 0)
    rows = np.concatenate([L, R[inte]])
    cols = np.concatenate([np.arange(mesh.n_edges), inte])
    sgn = np.concatenate([np.ones(mesh.n_edges), -np.ones(len(inte))])
    return sp.coo_matrix((sgn, (rows, cols)), shape=(mesh.n_cells, mesh.n_edges)).tocsr()


INCIDENCE_MESHES = {
    "box": lambda: fm.generate_voronoi((0, 1, 0, 1), 60, lloyd_iters=4, seed=7),
    "torus": lambda: fm.generate_voronoi((0, 1, 0, 1), 60, lloyd_iters=4, seed=7,
                                         periodic=(True, True)),
    "one_axis": lambda: fm.generate_voronoi((0, 2, 0, 1), 60, lloyd_iters=4, seed=7,
                                            periodic=(False, True)),
    "rect_torus": lambda: fm.generate_rect((0, 1, 0, 1), 3, 3, periodic=(True, True)),
    # the benchmark's meshes
    **{f"wave_{s}": lambda s=s: cases.get_case("swe_smooth_wave", seed=s, h=0.12).make_mesh()
       for s in (3000, 3001)},
    **{f"tgv_{s}": lambda s=s: cases.get_case("ins_tgv", seed=s, h=0.45).make_mesh()
       for s in (3000, 3001)},
}


class TestEdgeSum:
    @pytest.mark.parametrize("name", sorted(INCIDENCE_MESHES))
    def test_incidence_equals_the_edge_table_build(self, name):
        m = INCIDENCE_MESHES[name]()
        loop_edges, loop_signs = m.loop_edges.copy(), m.loop_signs.copy()
        got = fvmod.FvOperators(m, fm.build_geometry(m), 1)._edge_incidence
        want = edge_table_incidence(m)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part
        # the sorted incidence leaves the mesh's loop order alone
        assert np.array_equal(m.loop_edges, loop_edges)
        assert np.array_equal(m.loop_signs, loop_signs)

    @pytest.mark.parametrize("k, periodic", [(1, (True, True)), (2, (False, False)),
                                             (3, (True, False))])
    def test_equals_the_per_edge_scatter(self, k, periodic):
        ops, m, g = voronoi_ops(k, n=60, seed=7, periodic=periodic)
        rng = np.random.default_rng(k)
        fhat = rng.standard_normal((m.n_edges, k + 1))
        want = oracle_divergence_update(ops, fhat)
        got = ops.edge_sum(fhat) / g.area
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        # a stack of fields sums each one
        both = ops.edge_sum(np.stack([fhat, -2.0 * fhat]))
        assert np.array_equal(both[0], ops.edge_sum(fhat))
        assert np.array_equal(both[1], ops.edge_sum(-2.0 * fhat))


def fit_and_residual(grp):
    """The (n, ncols, nst) pseudo-inverses and the (n, nst, nst) residual
    factors that a stencil kind's `op` stacks."""
    nst = grp.members.shape[1]
    return grp.op[:, :-nst], grp.op[:, -nst:]


def oracle_reconstruct(ops, Qbar):
    """CWENO coefficients from four batched products, the separate fit and
    residual factors of each stencil kind, on component-major (ncomp, n, nst)
    data."""
    Qbar = np.atleast_2d(Qbar)
    ncomp, nc = Qbar.shape
    central, sector = ops.central, ops.sector
    p_opt = np.zeros((ncomp, nc, ops.nk))
    p_opt[:, :, 0] = Qbar
    pinv, res_q = fit_and_residual(central)
    dT = (Qbar[:, central.members] - Qbar[:, central.cells][:, :, None]).transpose(1, 2, 0)
    p_opt[:, :, 1:] = (pinv @ dT).transpose(2, 0, 1)
    r = res_q @ dT
    alpha0 = fvmod.LAMBDA_CENTRAL / (fvmod.EPS + (r * r).sum(axis=1).T) ** fvmod.POWER
    pinv, res_q = fit_and_residual(sector)
    dT = (Qbar[:, sector.members] - Qbar[:, sector.cells][:, :, None]).transpose(1, 2, 0)
    slopes = (pinv @ dT).transpose(2, 0, 1)
    r = res_q @ dT
    sigma = slopes[..., 0] ** 2 + slopes[..., 1] ** 2 + (r * r).sum(axis=1).T
    alpha = fvmod.LAMBDA_SECTOR / (fvmod.EPS + sigma) ** fvmod.POWER
    denom = alpha0 + (ops._scatter @ alpha.T).T
    coeffs = p_opt * (alpha0 / denom)[:, :, None]
    npairs = len(sector.cells)
    w = alpha / denom[:, sector.cells]
    contrib = np.zeros((ncomp, npairs, 3))
    contrib[:, :, 0] = Qbar[:, sector.cells]
    contrib[:, :, 1:] = slopes
    contrib *= w[:, :, None]
    summed = ops._scatter @ contrib.transpose(1, 0, 2).reshape(npairs, -1)
    coeffs[:, :, :3] += summed.reshape(nc, ncomp, 3).transpose(1, 0, 2)
    return coeffs


class TestReconstructOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("periodic", [(False, False), (True, True)])
    def test_stacked_operator_equals_four_products(self, k, periodic):
        ops, m, g = voronoi_ops(k, n=70, seed=13, periodic=periodic)
        Q = np.random.default_rng(k).standard_normal((3, m.n_cells))
        got, want = ops.reconstruct(Q), oracle_reconstruct(ops, Q)
        assert got.shape == (3, m.n_cells, ops.nk)
        for row in range(3):
            assert np.abs(got[row] - want[row]).max() <= 1e-13 * np.abs(want[row]).max()
        # one row given as a 1-D array keeps its leading axis
        one = ops.reconstruct(Q[1])
        assert one.shape == (1, m.n_cells, ops.nk)
        assert np.abs(one[0] - want[1]).max() <= 1e-13 * np.abs(want[1]).max()

    def test_fits_and_residuals_are_views_of_one_operator(self):
        ops, m, g = voronoi_ops(2, n=40, seed=13)
        for grp, ncols in ((ops.central, ops.nk - 1), (ops.sector, 2)):
            nst = grp.members.shape[1]
            assert grp.op.shape == (len(grp.cells), ncols + nst, nst)
