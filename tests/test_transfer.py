import numpy as np
import pytest

from element_blocks import group_blocks, mass_solve_vp, taylor_to_monomial
from fvvem import mesh as fm
from fvvem import vem
from fvvem.fv import TaylorBasis
from fvvem.transfer import build_transfer
from fvvem.models import Discretization


def make_setup(k, n=40, seed=3, periodic=(False, False)):
    m = fm.generate_voronoi((0, 1, 0, 1), n, lloyd_iters=8, seed=seed,
                            periodic=periodic)
    g = fm.build_geometry(m)
    return m, g, Discretization(m, g, k=k)


class TestRoundTrip:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cp_vp_identity(self, k):
        m, g, disc = make_setup(k)
        for _, _, Vp, Cp in group_blocks(disc):
            P = Cp @ Vp
            assert np.abs(P - np.eye(disc.nk)).max() < 1e-11

    def test_constant_round_trip(self):
        m, g, disc = make_setup(2)
        layout = disc.layout
        coeffs = np.zeros((m.n_cells, disc.nk))
        coeffs[:, 0] = 3.25
        dofs = disc.fv_to_vem(coeffs)
        point_ids = np.arange(layout.moment_base)
        assert np.abs(dofs[point_ids] - 3.25).max() < 1e-12
        back = disc.vem_to_fv(dofs)
        assert np.abs(back[:, 0] - 3.25).max() < 1e-12
        assert np.abs(back[:, 1:]).max() < 1e-12

    def test_m2_polynomial_round_trip(self):
        m, g, disc = make_setup(2, n=25)
        rng = np.random.default_rng(1)
        # per-cell polynomial with the cell's own scaled-m2 coefficient
        coeffs = np.zeros((m.n_cells, 6))
        coeffs[:, 3] = rng.uniform(0.5, 1.5, m.n_cells)
        for grp, _, Vp, Cp in group_blocks(disc):
            c = coeffs[grp.idx, :, None]
            back = Cp @ (Vp @ c)
            assert np.abs(back - c).max() < 1e-11


class TestToTaylor:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_inverts_taylor_to_monomial(self, k):
        # to_taylor inverts the dense change of basis T, and to_monomial
        # applies it
        m, g, disc = make_setup(k, periodic=(True, False))
        taylor = np.random.default_rng(k).standard_normal((2, m.n_cells, disc.nk))
        mono = np.empty_like(taylor)
        for grp in disc.groups:
            T = taylor_to_monomial(disc.fvops.taylor, grp.idx)
            mono[:, grp.idx] = np.einsum("gab,cgb->cga", T, taylor[:, grp.idx])
        scale = np.abs(taylor).max()
        assert np.abs(disc.to_taylor(mono) - taylor).max() <= 1e-14 * scale
        assert np.abs(disc.to_monomial(taylor) - mono).max() <= 1e-14 * scale

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradient_of_a_stack(self, k):
        # gradient_coeffs on a (4, ncell, nk) stack equals its per-row calls
        # and the cells' own derivative maps applied through the dense T
        m, g, disc = make_setup(k, periodic=(True, False))
        taylor = np.random.default_rng(k).standard_normal((4, m.n_cells, disc.nk))
        got = disc.gradient_coeffs(taylor)
        assert got.shape == (2,) + taylor.shape
        scale = np.abs(got).max()
        for r in range(len(taylor)):
            assert np.abs(got[:, r] - disc.gradient_coeffs(taylor[r])).max() <= 1e-15 * scale
        for grp in disc.groups:
            T = taylor_to_monomial(disc.fvops.taylor, grp.idx)
            mono = np.einsum("gab,cgb->cga", T, taylor[:, grp.idx])
            for axis in (0, 1):
                want = np.einsum("gab,cga->cgb", grp.basis.derivative_coeffs(axis), mono)
                assert np.abs(got[axis][:, grp.idx] - want).max() <= 1e-14 * scale

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gradient_ignores_the_constant(self, k):
        # the derivative maps' constant rows are zero, so the Taylor and the
        # monomial coefficients, which differ in the constant alone, need no
        # shift between them
        m, g, disc = make_setup(k, periodic=(True, False))
        rng = np.random.default_rng(k)
        taylor = rng.standard_normal((3, m.n_cells, disc.nk))
        moved = taylor.copy()
        moved[..., 0] = 1e3 * rng.standard_normal((3, m.n_cells))
        assert all(not D[0].any() for D in disc.derivative_maps)
        assert np.array_equal(disc.gradient_coeffs(moved), disc.gradient_coeffs(taylor))

    def test_edge_traces_of_monomial_coefficients(self):
        # the FV Taylor edge tables, through to_taylor, against the cells'
        # monomials evaluated at the edge points in each side's frame
        m, g, disc = make_setup(2, periodic=(True, False))
        fv = disc.fvops
        mono = np.random.default_rng(5).standard_normal((m.n_cells, disc.nk))
        (wL,), (wR,) = fv.edge_states(disc.to_taylor(mono[None]))
        L, R = m.edge_cells.T
        inte = fv.interior
        vL = np.einsum("egl,el->eg", fv.taylor.cell_basis(L).values(fv.edge_points), mono[L])
        vR = vL.copy()
        pts = fv.edge_points[inte] + m.edge_shift[inte, None, :]
        vR[inte] = np.einsum("egl,el->eg", fv.taylor.cell_basis(R[inte]).values(pts),
                             mono[R[inte]])
        scale = np.abs(vL).max()
        assert np.abs(wL - vL).max() <= 1e-14 * scale
        assert np.abs(wR - vR).max() <= 1e-14 * scale


class TestFvToVem:
    def test_global_linear_field_vertex_values(self):
        m, g, disc = make_setup(2, n=50)
        lin = lambda p: 1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1]
        coeffs = np.zeros((m.n_cells, disc.nk))
        coeffs[:, 0] = lin(g.barycenter)
        coeffs[:, 1] = 2.0 * g.h
        coeffs[:, 2] = -0.5 * g.h
        dofs = disc.fv_to_vem(coeffs)
        nb = disc.layout.moment_base
        exact = lin(disc.layout.dof_coords[:nb])
        assert np.abs(dofs[:nb] - exact).max() < 1e-10

    def test_discontinuous_field_shared_dof_mean(self):
        # a 3 x 3 grid: vertices shared by 1, 2 or 4 cells; every dof takes
        # the mean of the constants of the cells around it
        m = fm.generate_rect((0, 3, 0, 3), 3, 3)
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=1)
        values = 1.0 + 2.0 * np.arange(m.n_cells)
        coeffs = np.zeros((m.n_cells, 3))
        coeffs[:, 0] = values
        dofs = disc.fv_to_vem(coeffs)
        total = np.zeros(disc.layout.n_dofs)
        count = np.zeros(disc.layout.n_dofs)
        for ci in range(m.n_cells):
            ids = disc.layout.cell_dofs(ci)
            total[ids] += values[ci]
            count[ids] += 1
        assert set(count) == {1.0, 2.0, 4.0}
        assert np.abs(dofs - total / count).max() < 1e-13


class TestVemToFv:
    def test_zero(self):
        m, g, disc = make_setup(2, n=20)
        back = disc.vem_to_fv(np.zeros(disc.layout.n_dofs))
        assert np.array_equal(back, np.zeros_like(back))

    def test_constant_dofs(self):
        m, g, disc = make_setup(3, n=20)
        c = -1.7
        dofs = np.zeros(disc.layout.n_dofs)
        for ci in range(m.n_cells):
            ids = disc.layout.cell_dofs(ci)
            dofs[ids] = c * vem.build_element(m, g, np.array([ci]), 3).D[0, :, 0]
        back = disc.vem_to_fv(dofs)
        assert np.abs(back[:, 0] - c).max() < 1e-12
        # the other coefficients are roundoff of C_P applied to the dofs
        cp_norm = max(np.linalg.norm(Cp, ord=2, axis=(1, 2)).max()
                      for _, _, _, Cp in group_blocks(disc))
        assert np.abs(back[:, 1:]).max() < 5.5 * np.finfo(float).eps * abs(c) * cp_norm

    def test_linear_field_gradient(self):
        m, g, disc = make_setup(2, n=30)
        layout = disc.layout
        lin = lambda p: 0.3 + 1.2 * p[:, 0] + 0.8 * p[:, 1]
        dofs = np.zeros(layout.n_dofs)
        nb = layout.moment_base
        dofs[:nb] = lin(layout.dof_coords[:nb])
        for ci in range(m.n_cells):
            ids = layout.cell_dofs(ci)
            mom = ids[ids >= nb]
            if len(mom):
                rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 4)
                mvals = disc.fvops.taylor.cell_basis(ci).values(rule.nodes)
                for j, dof in enumerate(mom):
                    dofs[dof] = rule.weights @ (lin(rule.nodes) * mvals[:, j]) / g.area[ci]
        back = disc.vem_to_fv(dofs)
        for ci in range(m.n_cells):
            h = g.h[ci]
            assert back[ci, 1] / h == pytest.approx(1.2, abs=1e-10)
            assert back[ci, 2] / h == pytest.approx(0.8, abs=1e-10)

    def test_mean_preservation(self):
        # first modal coefficient equals the Pi0 cell mean of the VEM field
        m, g, disc = make_setup(2, n=30, seed=9)
        rng = np.random.default_rng(2)
        dofs = rng.standard_normal(disc.layout.n_dofs)
        back = disc.vem_to_fv(dofs)
        for ci in range(m.n_cells):
            ids = disc.layout.cell_dofs(ci)
            elem = vem.build_element(m, g, np.array([ci]), 2)
            pi0 = elem.pis_0[0] @ dofs[ids]
            rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 4)
            mean = (rule.weights @ (elem.basis.values(rule.nodes)[0] @ pi0)) / g.area[ci]
            assert back[ci, 0] == pytest.approx(mean, abs=1e-12)


# the meshes of the Pi0 check: a box, a torus and a box with a hole
PI0_MESHES = {
    "box": ((0, 1, 0, 1), 40, {}),
    "torus": ((0, 1, 0, 1), 40, {"periodic": (True, True)}),
    "hole": ((-4, 4, -4, 4), 120, {"hole_center": (0.0, 0.0), "hole_radius": 1.0}),
}
# largest difference relative to the largest coefficient over mesh seeds
# 0-15, both fields and all three meshes: 4.2e-15, 8.4e-14, 5.5e-13 and
# 2.1e-11 at k = 1..4 (smooth field); each bound is about 5 times that
PI0_BOUND = {1: 2e-14, 2: 4e-13, 3: 3e-12, 4: 1e-10}


class TestPi0Polynomial:
    @pytest.mark.parametrize("mesh_kind", sorted(PI0_MESHES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_the_element_projector(self, k, mesh_kind):
        # to_monomial(vem_to_fv(d)) is the Pi0 polynomial of the field:
        # before its left-inverse fix C_P is T^-1 H^-1 C = T^-1 Pi0*
        box, n, kw = PI0_MESHES[mesh_kind]
        m = fm.generate_voronoi(box, n, lloyd_iters=8, seed=3, **kw)
        disc = Discretization(m, fm.build_geometry(m), k=k)
        smooth = disc.interpolate_dofs(
            lambda p: 1.3 + np.sin(1.1 * p[:, 0] + 0.4) * np.cos(0.9 * p[:, 1])
            + 0.2 * p[:, 0] * p[:, 1])
        noise = np.random.default_rng(k).standard_normal(disc.layout.n_dofs)
        blocks = list(group_blocks(disc))
        for dofs in (smooth, noise):
            got = disc.to_monomial(disc.vem_to_fv(dofs))
            ref = np.empty_like(got)
            for grp, elem, _, _ in blocks:
                ref[grp.idx] = np.einsum("gad,gd->ga", elem.pis_0, dofs[grp.dofs])
            assert np.abs(got - ref).max() <= PI0_BOUND[k] * np.abs(ref).max()


def taylor_gram_cp(elem, T, Vp):
    """C_P as the transfer solved it before it took the element's Pi0*: the
    Taylor Gram system T^T H T C_P = T^T C with one step of iterative
    refinement, then the C_P V_P = I enforcement."""
    Tt = T.transpose(0, 2, 1)
    A, B = Tt @ elem.H @ T, Tt @ elem.C
    Cp = vem.solve_cells(A, B, elem.cells, vem.VemError, "Taylor Gram matrix")
    Cp += np.linalg.solve(A, B - A @ Cp)
    return np.linalg.solve(Cp @ Vp, Cp)


# largest difference per cell relative to the largest entry of the cell's
# oracle block, over mesh seeds 0-15 and the three meshes: 5.9e-16, 7.0e-16,
# 2.4e-15 and 7.0e-15 at k = 1..4; each bound is 4 to 5 times that
CP_BOUND = {1: 3e-15, 2: 3e-15, 3: 1e-14, 4: 3e-14}


class TestCpFromTheElement:
    @pytest.mark.parametrize("mesh_kind", sorted(PI0_MESHES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_the_taylor_gram_solve(self, k, mesh_kind):
        # C_P, the left inverse of V_P built on Pi0*, is that built on
        # T^-1 H^-1 C = T^-1 Pi0*, which the Taylor Gram system solves
        box, n, kw = PI0_MESHES[mesh_kind]
        m = fm.generate_voronoi(box, n, lloyd_iters=8, seed=3, **kw)
        g = fm.build_geometry(m)
        taylor = TaylorBasis(m, g, k)
        for idx in m.vertex_count_groups:
            elem = vem.build_element(m, g, idx, k)
            T = taylor_to_monomial(taylor, idx)
            Vp, Cp, _ = build_transfer(elem, taylor.corrections[idx])
            ref = taylor_gram_cp(elem, T, Vp)
            scale = np.abs(ref).max(axis=(1, 2))
            assert np.all(np.abs(Cp - ref).max(axis=(1, 2)) <= CP_BOUND[k] * scale)


# V_P against the mass-solve oracle, largest difference per cell relative to
# the cell's largest oracle entry, over mesh seeds 0-15 and the three meshes:
# 4.4e-15, 2.6e-14, 1.4e-13 and 1.4e-12 at k = 1..4; each bound is about 5
# times that
VP_BOUND = {1: 2e-14, 2: 1.3e-13, 3: 7e-13, 4: 7e-12}
# M_E V_P - C^T T entrywise relative to |M_E| |V_P|, over the same meshes:
# 1.5e-15, 4.9e-15, 1.1e-14 and 2.2e-14 at k = 1..4
MASS_BOUND = {1: 8e-15, 2: 2.5e-14, 3: 5e-14, 4: 1e-13}


class TestVpIsTheInterpolant:
    @pytest.mark.parametrize("mesh_kind", sorted(PI0_MESHES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_the_l2_projection_of_a_polynomial_is_its_interpolant(self, k, mesh_kind):
        # the stabilised mass is exact on P_k (Pi0* D = I, so M_E D = C^T):
        # V_P = M_E^-1 C^T T is D T, the shift of D's non-constant columns
        box, n, kw = PI0_MESHES[mesh_kind]
        m = fm.generate_voronoi(box, n, lloyd_iters=8, seed=3, **kw)
        g = fm.build_geometry(m)
        taylor = TaylorBasis(m, g, k)
        for idx in m.vertex_count_groups:
            elem = vem.build_element(m, g, idx, k)
            corrections = taylor.corrections[idx]
            Vp, _, CT = build_transfer(elem, corrections)
            shifted = elem.D.copy()
            shifted[..., 1:] -= shifted[..., :1] * corrections[:, None, 1:]
            assert np.array_equal(Vp, shifted)
            ref = mass_solve_vp(elem, corrections)
            scale = np.abs(ref).max(axis=(1, 2))
            assert np.all(np.abs(Vp - ref).max(axis=(1, 2)) <= VP_BOUND[k] * scale)
            # the defining property of the L2 projection
            assert np.all(np.abs(elem.mass @ Vp - CT)
                          <= MASS_BOUND[k] * (np.abs(elem.mass) @ np.abs(Vp)))

    @pytest.mark.parametrize("mesh_kind", sorted(PI0_MESHES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cglob_equals_its_own_pattern(self, k, mesh_kind):
        # Cglob is gathered as the transpose of C_P^T on the dofs-by-modes
        # pattern of V_P; every (mode, dof) pair is one cell's, so that sum
        # is bitwise the gather on the modes-by-dofs pattern
        box, n, kw = PI0_MESHES[mesh_kind]
        m = fm.generate_voronoi(box, n, lloyd_iters=8, seed=3, **kw)
        disc = Discretization(m, fm.build_geometry(m), k=k)
        blocks = list(group_blocks(disc))
        modes = [grp.idx[:, None] * disc.nk + np.arange(disc.nk) for grp, *_ in blocks]
        pattern = vem.AssemblyPattern(modes, [grp.dofs for grp, *_ in blocks],
                                      (m.n_cells * disc.nk, disc.layout.n_dofs))
        ref = vem.scatter_matrix(pattern, [Cp for *_, Cp in blocks]).to_scipy()
        got = disc._Cglob
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(ref, part)), part


def row_changes(A, B) -> np.ndarray:
    """Per row of two matrices on one sparsity pattern, the largest change
    relative to the row's largest entry of A."""
    A, B = A.tocsr(), B.tocsr()
    assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    change, scale = np.zeros(A.shape[0]), np.zeros(A.shape[0])
    np.maximum.at(change, rows, np.abs(A.data - B.data))
    np.maximum.at(scale, rows, np.abs(A.data))
    return change[scale > 0] / scale[scale > 0]


def test_k4_transfers_do_not_move_with_an_exact_cell_rule(monkeypatch):
    # the degree-10 and degree-8 cell rules both integrate H exactly at
    # k = 4, so a change of the transfers between them is their roundoff
    # floor.  Over mesh seeds 0-15 the rows moved by at most 3.8e-14 (Vglob)
    # and 5.6e-13 (Cglob), and by at least 1.2e-12 and 4.8e-12 when V_P came
    # from a mass solve
    m = fm.generate_voronoi((0, 1, 0, 1), 120, lloyd_iters=8, seed=3)
    g = fm.build_geometry(m)
    exact = Discretization(m, g, k=4)
    real = vem.polygon_quadrature

    def degree_8(vertices, barycenter, degree):
        return real(vertices, barycenter, 8 if degree == 10 else degree)

    monkeypatch.setattr(vem, "polygon_quadrature", degree_8)
    swapped = Discretization(m, g, k=4)
    assert row_changes(exact._Vglob, swapped._Vglob).max() <= 1e-13
    assert row_changes(exact._Cglob, swapped._Cglob).max() <= 2e-12
