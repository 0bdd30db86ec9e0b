import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import erf

from element_blocks import group_blocks, taylor_to_monomial
from fvvem import mesh as fm
from fvvem import models
from fvvem import vem
from fvvem.harness import cases, runner
from fvvem.linalg import SparseMatrix
from fvvem.models import (BoundaryCondition, Discretization,
                          DryStateError, FlowState, InsDriver, InsModel,
                          SweDriver, SweModel, evaluate_bathymetry)
from fvvem.timeint import TimeIntError, compute_dt


class TestModelEigenvalue:
    def test_zero_velocity(self):
        w = np.array([1.0, 0.0, 0.0, 0.0])
        assert SweModel().max_eig(w, np.array([1.0, 0.0])) == 0.0

    def test_swe_unit_velocity(self):
        w = np.array([1.0, 1.0, 0.0, 0.0])    # H=1, u=1
        assert SweModel().max_eig(w, np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_ins_dot_product(self):
        w = np.array([3.0, 4.0])
        n = np.array([0.6, 0.8])
        assert InsModel().max_eig(w, n) == pytest.approx(5.0)

    def test_nonfinite_raises(self):
        lam = InsModel().max_eig(np.array([[np.inf], [0.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(TimeIntError, match="non-finite"):
            compute_dt(np.ones(1), lam, 0.9)


@pytest.fixture(scope="module")
def box_disc():
    m = fm.generate_voronoi((0, 1, 0, 1), 20, lloyd_iters=3, seed=1)
    return Discretization(m, fm.build_geometry(m), k=1)


# each driver, its state rows and its momentum rows
GHOST_FLOWS = {"swe": (SweDriver, 4, [1, 2]),
               "ins": (InsDriver, 2, [0, 1])}


@pytest.mark.parametrize("flow", sorted(GHOST_FLOWS))
class TestGhost:
    """The FV exterior state at boundary edge points, per boundary kind."""

    def ghost(self, disc, flow, bc):
        driver, nrows, momentum = GHOST_FLOWS[flow]
        # every tag needs a condition: walls on the others
        walls = {tag: BoundaryCondition("wall") for tag in disc.mesh.boundary_tags}
        drv = driver(disc, {**walls, "xmin": bc})
        rng = np.random.default_rng(7)
        angle = rng.uniform(0.0, 2.0 * np.pi, 6)
        normals = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        pts = rng.uniform(0.0, 1.0, (6, 2))
        wL = rng.uniform(0.5, 1.5, (nrows, 6))
        before = wL.copy()
        w = drv._ghost("xmin", pts, normals, wL, 0.3)
        assert np.array_equal(wL, before)
        return w, wL, pts, normals, momentum

    def test_transmissive_copies_the_interior_trace(self, box_disc, flow):
        w, wL, *_ = self.ghost(box_disc, flow, BoundaryCondition("transmissive"))
        assert np.array_equal(w, wL)

    def test_wall_reflects_the_momentum_rows(self, box_disc, flow):
        w, wL, _, n, momentum = self.ghost(box_disc, flow, BoundaryCondition("wall"))
        others = [r for r in range(len(wL)) if r not in momentum]
        assert np.array_equal(w[others], wL[others])
        t = np.stack([-n[:, 1], n[:, 0]], axis=1)
        (qx, qy), (gx, gy) = wL[momentum], w[momentum]
        assert np.allclose(gx * n[:, 0] + gy * n[:, 1], -(qx * n[:, 0] + qy * n[:, 1]),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(gx * t[:, 0] + gy * t[:, 1], qx * t[:, 0] + qy * t[:, 1],
                           rtol=0.0, atol=1e-15)

    def test_dirichlet_takes_the_prescribed_state(self, box_disc, flow):
        nrows = GHOST_FLOWS[flow][1]

        def state(p, t):
            return np.stack([p[:, 0] + r * p[:, 1] + t for r in range(nrows)])

        w, _, pts, *_ = self.ghost(box_disc, flow, BoundaryCondition("dirichlet", state=state))
        assert np.array_equal(w, state(pts, 0.3))

    def test_unknown_kind_raises(self, box_disc, flow):
        with pytest.raises(models.ModelError, match="unknown boundary kind 'slip'"):
            self.ghost(box_disc, flow, BoundaryCondition("slip"))

    def test_a_tag_without_a_condition_raises(self, box_disc, flow):
        driver, *_ = GHOST_FLOWS[flow]
        with pytest.raises(models.ModelError,
                           match="boundary tag 'xmax' has no boundary condition"):
            driver(box_disc, {"xmin": BoundaryCondition("wall")})

    def test_a_condition_on_a_tag_the_mesh_lacks_raises(self, box_disc, flow):
        # a misspelt tag is named, not dropped
        driver, *_ = GHOST_FLOWS[flow]
        walls = {tag: BoundaryCondition("wall") for tag in box_disc.mesh.boundary_tags}
        message = ("boundary condition on 'xmni', a tag the mesh lacks "
                   "(mesh tags: xmax, xmin, ymax, ymin)")
        with pytest.raises(models.ModelError, match=re.escape(message)):
            driver(box_disc, {**walls, "xmni": BoundaryCondition("wall")})


def test_an_unknown_boundary_kind_raises_when_built():
    with pytest.raises(models.ModelError, match="^unknown boundary kind 'slip'$"):
        BoundaryCondition("slip")


class TestPhysicsChecks:
    """Each driver rejects a nonphysical gravity or viscosity itself."""

    @pytest.mark.parametrize("g", [0.0, -9.81])
    def test_gravity_must_be_positive(self, box_disc, g):
        walls = {tag: BoundaryCondition("wall") for tag in box_disc.mesh.boundary_tags}
        with pytest.raises(models.ModelError, match="gravity must be positive"):
            SweDriver(box_disc, walls, g=g)

    def test_viscosity_must_be_nonnegative(self, box_disc):
        walls = {tag: BoundaryCondition("wall") for tag in box_disc.mesh.boundary_tags}
        with pytest.raises(models.ModelError, match="viscosity must be nonnegative"):
            InsDriver(box_disc, walls, nu=-1e-3)
        assert InsDriver(box_disc, walls, nu=0.0).nu == 0.0

    def test_the_runner_passes_the_case_gravity(self):
        case = cases.get_case("swe_vortex", h=1.5, g0=0.0)
        mesh = case.make_mesh()
        disc = Discretization(mesh, fm.build_geometry(mesh), k=case.k)
        with pytest.raises(models.ModelError, match="gravity must be positive"):
            runner.build_driver(case, disc)


def wb_setup(n=150, k=2, delta=0.0, seed=3):
    m = fm.generate_voronoi((-2, 1, -0.5, 0.5), n, lloyd_iters=8, seed=seed,
                            periodic=(False, True))
    g = fm.build_geometry(m)
    disc = Discretization(m, g, k=k)

    def bump(p):
        return 0.5 * np.exp(-5 * (p[:, 0] + 0.1) ** 2 - 50 * p[:, 1] ** 2)

    def state(p, t):
        eta = np.ones(len(p))
        if delta:
            eta += delta * ((-0.95 <= p[:, 0]) & (p[:, 0] <= -0.85))
        z = np.zeros(len(p))
        return np.stack([eta, z, z, bump(p)])

    bcs = {"xmin": BoundaryCondition("dirichlet", state=state),
           "xmax": BoundaryCondition("dirichlet", state=state)}
    drv = SweDriver(disc, bcs, g=9.81, scheme="LSDIRK222", bathymetry=bump)
    return drv, drv.initial_state(state), g


class TestSweStage:
    def test_well_balance_rest_unchanged(self):
        drv, state, g = wb_setup()
        eta0 = state.Q[0].copy()
        for _ in range(4):
            dt = drv.compute_dt(state)
            state = drv.step(state, dt)
        l2_eta = np.sqrt(np.sum(g.area * (state.Q[0] - eta0) ** 2))
        l2_q = np.sqrt(np.sum(g.area * (state.Q[1] ** 2 + state.Q[2] ** 2)))
        assert l2_eta < 1e-12
        assert l2_q < 1e-12

    def test_flat_uniform_periodic_fixed_point(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 60, lloyd_iters=6, seed=5,
                                periodic=(True, True))
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=1)
        drv = SweDriver(disc, {}, g=9.81, scheme="SP111")
        z = np.zeros(m.n_cells)
        state = FlowState(np.stack([np.full(m.n_cells, 2.0), z, z]), 0.0, {})
        out = drv.step(state, 0.05)
        assert np.abs(out.Q[0] - 2.0).max() < 1e-13
        assert np.abs(out.Q[1:]).max() < 1e-13

    def test_steady_vortex_one_step_drift(self):
        g0, H0 = 10.0, 1.0

        def exact(p, t):
            x, y = p[:, 0], p[:, 1]
            r2 = x * x + y * y
            eta = H0 - np.exp(-(r2 - 1.0)) / (2 * g0)
            f = np.exp(-(r2 - 1.0) / 2)
            return np.stack([eta, eta * (-y * f), eta * (x * f), np.zeros_like(eta)])

        m = fm.generate_voronoi((-5, 5, -5, 5), 2000, lloyd_iters=8, seed=7,
                                periodic=(True, True))
        gg = fm.build_geometry(m)
        disc = Discretization(m, gg, k=3)
        drv = SweDriver(disc, {}, g=g0, scheme="SP111")
        state = drv.initial_state(exact)
        out = drv.step(state.copy(), 1e-3)
        drift = np.sqrt(np.sum(gg.area * (out.Q[0] - state.Q[0]) ** 2))
        assert drift <= 1e-5

    def test_mass_conservation_wall_domain(self):
        m = fm.generate_voronoi((-0.5, 0.5, -0.1, 0.1), 120, lloyd_iters=8, seed=2,
                                periodic=(False, True))
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=1)
        bcs = {"xmin": BoundaryCondition("wall"),
               "xmax": BoundaryCondition("wall")}
        drv = SweDriver(disc, bcs, g=9.81, scheme="LSDIRK222")
        eta = np.where(g.barycenter[:, 0] <= 0.0, 1.0, 2.0)
        z = np.zeros(m.n_cells)
        state = FlowState(np.stack([eta, z, z]), 0.0, {})
        mass0 = np.sum(g.area * eta)
        for _ in range(8):
            dt = drv.compute_dt(state)
            state = drv.step(state, dt)
        assert abs(np.sum(g.area * state.Q[0]) - mass0) < 1e-12 * abs(mass0)

    def test_dry_cell_error(self):
        drv, state, g = wb_setup(n=80)
        state.Q[0] = 0.1    # below the bump peak: dry somewhere
        with pytest.raises(DryStateError):
            drv.step(state, 1e-3)

    def test_dt_of_one_dry_cell_raises(self):
        # every cell is the left cell of an edge, so the convective
        # eigenvalues see each cell's depth before the celerity does
        drv, state, g = wb_setup(n=60)
        drv.compute_dt(state)
        for c in range(len(g.area)):
            dry = state.Q.copy()
            dry[0, c] = drv.b_coeffs[c, 0]
            with pytest.raises(DryStateError):
                drv.compute_dt(FlowState(dry, 0.0, {}))


class TestEvaluateBathymetry:
    def test_zero_bottom(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 30, lloyd_iters=5, seed=1)
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=2)
        coeffs, dofs = evaluate_bathymetry(disc, lambda p: np.zeros(len(p)))
        assert np.abs(coeffs).max() == 0.0
        assert np.abs(dofs).max() == 0.0

    def test_flat_bottom_is_exact_zeros_without_sampling(self, monkeypatch):
        # bathymetry=None is b = 0 set directly; stepping it equals stepping
        # a sampled zero bottom bit for bit
        case = cases.get_case("swe_smooth_wave", seed=2, h=0.25)
        m = case.make_mesh()
        disc = Discretization(m, fm.build_geometry(m), k=case.k)
        runs = []
        for bottom in (lambda p: np.zeros(len(p)), None):
            if bottom is None:
                def refuse(*args):
                    raise AssertionError("a flat bottom is not sampled")
                monkeypatch.setattr(models, "evaluate_bathymetry", refuse)
            drv = SweDriver(disc, case.bcs(), g=case.g0, scheme="SADIRK343",
                            bathymetry=bottom)
            state = runner.initial_state(case, drv)
            for _ in range(3):
                state = drv.step(state, 1e-3)
            runs.append((drv, state.Q))
        (sampled, q_sampled), (flat, q_flat) = runs
        assert flat.b_coeffs.shape == sampled.b_coeffs.shape and not flat.b_coeffs.any()
        assert flat.b_dofs.shape == sampled.b_dofs.shape and not flat.b_dofs.any()
        assert np.array_equal(q_flat, q_sampled)

    def test_wb_bump_peak_value(self):
        m = fm.generate_voronoi((-2, 1, -0.5, 0.5), 2200, lloyd_iters=8, seed=5,
                                periodic=(False, True))
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=2)

        def bump(p):
            return 0.5 * np.exp(-5 * (p[:, 0] + 0.1) ** 2 - 50 * p[:, 1] ** 2)

        coeffs, dofs = evaluate_bathymetry(disc, bump)
        best = 0.0
        for grp in disc.groups:
            T = taylor_to_monomial(disc.fvops.taylor, grp.idx)
            mono = np.einsum("gab,gb->ga", T, coeffs[grp.idx])
            vals = np.einsum("gqa,ga->gq", grp.qmono, mono)
            best = max(best, vals.max())
        assert best == pytest.approx(0.5, abs=1e-3)

    def test_cell_averages_match_quadrature_oracle(self):
        m = fm.generate_voronoi((-2, 1, -0.5, 0.5), 60, lloyd_iters=6, seed=4,
                                periodic=(False, True))
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=2)

        def bump(p):
            return 0.5 * np.exp(-5 * (p[:, 0] + 0.1) ** 2 - 50 * p[:, 1] ** 2)

        coeffs, _ = evaluate_bathymetry(disc, bump)
        for ci in range(0, m.n_cells, 6):
            rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 12)
            oracle = rule.weights @ bump(rule.nodes) / g.area[ci]
            assert coeffs[ci, 0] == pytest.approx(oracle, abs=1e-10)


def tgv_setup(n=220, k=2, nu=1e-2, seed=4, scheme="LSDIRK222"):
    L = 2 * np.pi
    m = fm.generate_voronoi((0, L, 0, L), n, lloyd_iters=8, seed=seed,
                            periodic=(True, True))
    g = fm.build_geometry(m)
    disc = Discretization(m, g, k=k)

    def vel(p, t):
        f = np.exp(-2 * nu * t)
        return np.stack([np.sin(p[:, 0]) * np.cos(p[:, 1]) * f,
                         -np.cos(p[:, 0]) * np.sin(p[:, 1]) * f])

    def pres(p, t):
        # consistent with the velocity orientation (momentum balance)
        return np.exp(-4 * nu * t) / 4 * (np.cos(2 * p[:, 0]) + np.cos(2 * p[:, 1]))

    drv = InsDriver(disc, {}, nu=nu, scheme=scheme)
    return drv, drv.initial_state(vel, pres), vel, pres, g


def spy_pressure(monkeypatch):
    """The (A, b, x) of every pressure solve, as `solve_implicit` takes and
    returns them."""
    calls = []
    real = models.solve_implicit

    def spy(A, b, x0, tol, restart, precond, stats, what, atol=0.0):
        x = real(A, b, x0, tol, restart, precond, stats, what, atol=atol)
        if what == "pressure":
            calls.append((A, b, x))
        return x
    monkeypatch.setattr(models, "solve_implicit", spy)
    return calls


def poisson_residual(A, b, x):
    """||b - A x|| of a pressure solve and ||b||."""
    return float(np.linalg.norm(b - A.to_scipy() @ x)), float(np.linalg.norm(b))


def count_factors(monkeypatch):
    factors = []
    real = models.factorized

    def counting(A, pin=None):
        factors.append(pin)
        return real(A, pin)
    monkeypatch.setattr(models, "factorized", counting)
    return factors


class TestInsStages:
    def test_constant_state_fixed_point(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 60, lloyd_iters=6, seed=6,
                                periodic=(True, True))
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=1)
        drv = InsDriver(disc, {}, nu=1e-3, scheme="SP111")
        state = drv.initial_state(
            lambda p, t: np.stack([np.full(len(p), 0.4), np.full(len(p), -0.2)]),
            lambda p, t: np.ones(len(p)))
        out = drv.step(state, 0.02)
        assert np.abs(out.Q[0] - 0.4).max() < 1e-11
        assert np.abs(out.Q[1] + 0.2).max() < 1e-11

    def test_nu_zero_is_pure_projection(self, monkeypatch):
        calls = spy_pressure(monkeypatch)
        drv, state, vel, pres, g = tgv_setup(n=120, nu=0.0, scheme="SP111")
        out = drv.step(state, 0.01)
        assert np.all(np.isfinite(out.Q))
        assert len(calls) == 1
        r, rhs = poisson_residual(*calls[0])
        assert r <= 1e-10 * max(rhs, 1.0)

    def test_tgv_divergence_residual(self, monkeypatch):
        calls = spy_pressure(monkeypatch)
        drv, state, vel, pres, g = tgv_setup(n=160)
        for _ in range(5):
            state = drv.step(state, drv.compute_dt(state))
        assert len(calls) == 5 * drv.pair.stages
        rhs0 = poisson_residual(*calls[0])[1]
        for call in calls:
            assert poisson_residual(*call)[0] <= 100 * 1e-12 * rhs0
        assert state.time > 0.0

    def test_stationary_projections_are_recorded_skips(self):
        # Poiseuille flow is a fixed point: each stage's pressure increment
        # is below the skip target, and the skip is a recorded solve
        case = cases.get_case("ins_poiseuille", n_cells=100)
        mesh = case.make_mesh()
        drv = runner.build_driver(case, Discretization(mesh, fm.build_geometry(mesh), k=case.k))
        state = runner.initial_state(case, drv)
        steps = 5
        for _ in range(steps):
            state = drv.step(state, runner.next_dt(case, drv, state))
        assert drv.pair.stages == 1
        assert drv.stats.solves == 3 * steps            # two viscous, one pressure
        assert drv.stats.iterations == 0

    def test_tgv_pressure_after_one_step(self):
        drv, state, vel, pres, g = tgv_setup(n=260, nu=1e-2)
        dt = 0.02
        out = drv.step(state, dt)
        ph = drv.disc.vem_to_fv(out.aux["p_dofs"])[:, 0]
        pex = drv.disc.cell_means(pres, time=out.time)
        ph = ph - np.sum(g.area * ph) / np.sum(g.area)
        pex = pex - np.sum(g.area * pex) / np.sum(g.area)
        # correct sign/shape and coarse-mesh-level amplitude agreement
        corr = np.sum(g.area * ph * pex) / np.sqrt(
            np.sum(g.area * ph ** 2) * np.sum(g.area * pex ** 2))
        assert corr > 0.97
        rel = np.sqrt(np.sum(g.area * (ph - pex) ** 2) / np.sum(g.area * pex ** 2))
        assert rel < 0.25

    def test_correction_identities(self):
        # non-periodic box: linear pressure increments are representable
        m = fm.generate_voronoi((0, 1, 0, 1), 60, lloyd_iters=6, seed=3)
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=2)
        vstar = np.stack([disc.interpolate_dofs(lambda p: np.sin(p[:, 0])),
                          disc.interpolate_dofs(lambda p: np.cos(p[:, 1]))])
        vstar_coeffs = disc.vem_to_fv(vstar)
        # p_new = p_old: velocity unchanged
        grad0 = disc.gradient_cell_means(disc.vem_to_fv(np.zeros(disc.layout.n_dofs)))
        v1 = vstar_coeffs[:, :, 0] - 0.1 * grad0
        assert np.array_equal(v1, vstar_coeffs[:, :, 0])
        # linear pressure increment: uniform velocity shift by -tau*slope
        lin = disc.interpolate_dofs(lambda p: 2.5 * p[:, 0] - 1.0 * p[:, 1])
        grad = disc.gradient_cell_means(disc.vem_to_fv(lin))
        assert np.abs(grad[0] - 2.5).max() < 1e-10
        assert np.abs(grad[1] + 1.0).max() < 1e-10
        tau = 0.125
        v2 = vstar_coeffs[:, :, 0] - tau * grad
        assert np.abs((vstar_coeffs[0, :, 0] - v2[0]) - tau * 2.5).max() < 1e-10

    def test_pressure_compatibility_residual(self, monkeypatch):
        calls = spy_pressure(monkeypatch)
        drv, state, vel, pres, g = tgv_setup(n=120)
        disc = drv.disc
        # conforming periodic field: compatible (divergence load sums to zero)
        div = disc.divergence_load(disc.interpolate_dofs(lambda p: np.sin(p[:, 0])),
                                   disc.interpolate_dofs(lambda p: np.cos(p[:, 1])))
        assert abs(disc.ones @ div) < 1e-10
        # so are K x and the divergence load of any conforming dofs: the
        # constant's dofs annihilate them to roundoff of the terms summed
        rng = np.random.default_rng(0)
        for k in (1, 2, 3):
            dk = Discretization(disc.mesh, g, k=k)
            x, vx, vy = rng.standard_normal((3, dk.layout.n_dofs))
            for load in (dk.K.to_scipy() @ x, dk.divergence_load(vx, vy)):
                assert abs(dk.ones @ load) <= 1e-13 * (np.abs(dk.ones) @ np.abs(load))
        # so is the rhs of each pressure solve of a run
        drv.step(state, 0.02)
        assert len(calls) == drv.pair.stages
        for _, b, _ in calls:
            assert abs(disc.ones @ b) / disc.area_total < 1e-10
        # manufactured uniform-divergence rhs (not realisable by conforming
        # dofs on a torus): the solvability residual is macroscopic
        d = 0.7
        coeffs = np.zeros((disc.mesh.n_cells, disc.nk))
        coeffs[:, 0] = d
        rhs_bad = disc.load_from_taylor(coeffs)
        compat = float(disc.ones @ rhs_bad) / disc.area_total
        assert compat == pytest.approx(d, rel=1e-10)

    def test_pinned_pressure_keeps_the_mean_of_its_start(self):
        # a periodic box fixes the pressure up to a constant: the pinned
        # system solves it and restores the mean of its start
        drv, state, vel, pres, g = tgv_setup(n=120)
        disc = drv.disc
        assert drv._pressure.pin is not None
        x0 = disc.interpolate_dofs(lambda p: 2.0 + np.sin(p[:, 0]))
        b = disc.K.to_scipy() @ disc.interpolate_dofs(lambda p: np.cos(p[:, 1]))
        x = drv._pressure.solve(b, x0, drv.stats, "pressure")
        assert disc.field_mean(x) == pytest.approx(disc.field_mean(x0), rel=1e-13)
        r, nb = poisson_residual(drv._pressure.A, b, x)
        assert r <= 1e-12 * nb

    def test_pressure_factored_once_per_driver(self, monkeypatch):
        factors = count_factors(monkeypatch)
        drv, state, vel, pres, g = tgv_setup(n=120, k=1)
        # the pressure operator is factored by the driver's constructor,
        # pinned (periodic) ...
        pin = int(np.argmax(np.abs(drv.disc.ones)))
        assert factors == [pin] and drv._pressure.precond is not None
        for _ in range(3):
            state = drv.step(state, drv.compute_dt(state))
        # ... and the viscous operator at its first refill, unpinned; tau
        # changes every step
        assert factors == [pin, None]

    def test_changing_dt_matches_fresh_driver(self):
        # the Helmholtz operator M + tau nu K must follow dt.  Its factor is
        # kept across dt changes, and CG stops at DEFAULT_TOL, so the fresh
        # driver starts from the same factor to take the same iterates.
        drv, state, vel, pres, g = tgv_setup(n=120, k=1)
        s1 = drv.step(state, 0.05)
        s2 = drv.step(s1, 0.03)
        fresh = InsDriver(drv.disc, drv.bcs, nu=drv.nu, scheme="LSDIRK222")
        fresh._viscous.precond = drv._viscous.precond
        s2f = fresh.step(s1, 0.03)
        assert np.abs(s2.Q - s2f.Q).max() <= 1e-12 * np.abs(s2f.Q).max()
        p, pf = s2.aux["p_dofs"], s2f.aux["p_dofs"]
        assert np.abs(p - pf).max() <= 1e-12 * np.abs(pf).max()

    def test_stokes_first_problem_profile(self):
        nu, v0 = 1e-3, 0.1
        m = fm.generate_rect((-0.5, 0.5, -0.1, 0.1), 100, 2, periodic=(False, True))
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=2)

        def vel(p, t):
            if t <= 0.0:
                v = np.where(p[:, 0] > 0, v0, -v0)
            else:
                v = v0 * erf(0.5 * p[:, 0] / np.sqrt(nu * t))
            return np.stack([np.zeros(len(p)), v])

        def state4(p, t):
            return vel(p, t)

        bcs = {"xmin": BoundaryCondition("dirichlet", state=state4),
               "xmax": BoundaryCondition("dirichlet", state=state4)}
        drv = InsDriver(disc, bcs, nu=nu, scheme="SP111")
        state = drv.initial_state(vel, lambda p, t: np.ones(len(p)))
        dt = 0.05
        nsteps = 8
        for _ in range(nsteps):
            state = drv.step(state, dt)
        t = state.time
        xs = g.barycenter[:, 0]
        vex = v0 * erf(0.5 * xs / np.sqrt(nu * t))
        err = np.abs(state.Q[1] - vex)
        interior = np.abs(xs) < 0.4
        assert err[interior].max() < 1e-3 * v0 / 0.1 * 10  # discretization level
        assert err[interior].max() < 0.02


class TestApBehaviour:
    def test_swe_step_count_and_error_froude_independent(self):
        # dt and step counts are exactly Froude-independent; the L2(u)
        # agreement between Fr=1e-1 and 1e-2 converges toward the paper's
        # sub-percent pattern with resolution (6.9 % at these 4600 cells,
        # with 6.0 and 3.0 mean CG iterations per solve); at this test size
        # the achievable band is 12%.
        g0 = 10.0

        def make(H0):
            def exact(p, t):
                x, y = p[:, 0], p[:, 1]
                r2 = x * x + y * y
                eta = H0 - np.exp(-(r2 - 1.0)) / (2 * g0)
                f = np.exp(-(r2 - 1.0) / 2)
                return np.stack([eta, eta * (-y * f), eta * (x * f),
                                 np.zeros_like(eta)])
            return exact

        m = fm.generate_voronoi((-5, 5, -5, 5), 4600, lloyd_iters=8, seed=9,
                                periodic=(True, True))
        g = fm.build_geometry(m)
        disc = Discretization(m, g, k=1)
        counts, errs, dts, iters = [], [], [], []
        for H0 in (1.0, 1e3):      # Fr ~ 1e-1 and 1e-2
            exact = make(H0)
            drv = SweDriver(disc, {}, g=g0, scheme="SP111")
            state = drv.initial_state(exact)
            ns = 0
            first_dt = None
            while state.time < 0.1 - 1e-12:
                dt = min(drv.compute_dt(state), 0.1 - state.time)
                if first_dt is None:
                    first_dt = dt
                state = drv.step(state, dt)
                ns += 1
            uex = disc.cell_means(lambda p: make(H0)(p, 0.0)[1] / make(H0)(p, 0.0)[0])
            uh = state.Q[1] / (state.Q[0] - drv.b_coeffs[:, 0])
            errs.append(np.sqrt(np.sum(g.area * (uh - uex) ** 2)))
            counts.append(ns)
            dts.append(first_dt)
            iters.append(drv.stats.iterations / drv.stats.solves)
        assert abs(counts[0] - counts[1]) <= 1
        assert dts[0] == pytest.approx(dts[1], rel=1e-2)    # dt independent of Fr
        assert abs(errs[0] - errs[1]) / errs[0] < 0.12
        assert max(iters) <= 2.0 * min(iters), iters       # so is the solver cost

    def test_swe_vortex_solver_cost_froude_and_mesh_independent(self):
        # mean free-surface CG iterations per solve over Fr ~ 1e-1 .. 1e-3 and
        # two meshes; Jacobi-preconditioned CG needed 31 -> 114 (h = 0.5) and
        # 29 -> 175 (h = 0.35) from H0 = 1 to 1e4
        iters = {}
        for h in (0.5, 0.35):
            case = cases.get_case("swe_vortex", h=h, t_end=0.2)
            m = case.make_mesh()
            disc = Discretization(m, fm.build_geometry(m), k=case.k)
            for H0 in (1.0, 1e2, 1e4):
                case = cases.get_case("swe_vortex", h=h, t_end=0.2, H0=H0)
                drv = runner.build_driver(case, disc)
                state = runner.initial_state(case, drv)
                while state.time < case.t_end - 1e-13:
                    state = drv.step(state, min(drv.compute_dt(state),
                                                case.t_end - state.time))
                iters[h, H0] = drv.stats.iterations / drv.stats.solves
        assert max(iters.values()) <= 2.0 * min(iters.values()), iters


# ---------------------------------------------------------------------------
# fixed-pattern implicit operators against the per-stage rebuild they replaced
# ---------------------------------------------------------------------------

def _rel(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


def dense_scatter(disc, blocks):
    """Per-element dense assembly of the groups' stacked element matrices."""
    n = disc.layout.n_dofs
    out = np.zeros((n, n))
    for grp, stack in zip(disc.groups, blocks):
        for dofs, Ke in zip(grp.dofs, stack):
            out[np.ix_(dofs, dofs)] += Ke
    return out


def variable_stiffness_oracle(disc, h_poly):
    """K(h) from the values at the quadrature nodes of the polynomial h
    (monomial coefficients) that the product takes."""
    blocks = []
    for grp in disc.groups:
        wH = grp.qw * np.einsum("gqa,ga->gq", grp.qmono, h_poly[grp.idx])
        mk = grp.qmono[:, :, :disc.nkm1]
        HH = np.einsum("gqa,gq,gqb->gab", mk, wH, mk)
        cbar = wH.sum(axis=1) / grp.area
        pis0x, pis0y = grp.pis0grad[:, 0], grp.pis0grad[:, 1]
        blocks.append(np.einsum("gad,gab,gbe->gde", pis0x, HH, pis0x)
                      + np.einsum("gad,gab,gbe->gde", pis0y, HH, pis0y)
                      + cbar[:, None, None] * grp.stab)
    return dense_scatter(disc, blocks)


def tagged_dirichlet_oracle(disc, bcs, tags, sampler, t):
    """Tag by tag in sorted order, 'wall' tags last; a later tag overwrites."""
    values = {}
    for tag in sorted(tags, key=lambda tag: (bcs[tag].kind == "wall", tag)):
        dofs = vem.dirichlet_dofs(disc.mesh, disc.layout, {tag})
        for d, v in zip(dofs, sampler(tag, disc.layout.dof_coords[dofs], t)):
            values[int(d)] = float(v)
    dofs = np.array(sorted(values), dtype=np.int64)
    return dofs, np.array([values[d] for d in dofs])


def dirichlet_oracle(A, b, dofs, values):
    xfix = np.zeros(len(b))
    xfix[dofs] = values
    b = b - A @ xfix
    b[dofs] = values
    A = A.copy()
    A[dofs, :] = 0.0
    A[:, dofs] = 0.0
    A[dofs, dofs] = 1.0
    return A, b


def swe_pattern_setup(k, periodic, n=30):
    m = fm.generate_voronoi((0, 1, 0, 1), n, lloyd_iters=5, seed=6,
                            periodic=(periodic, periodic))
    disc = Discretization(m, fm.build_geometry(m), k=k)

    def state(p, t):
        x, y = p[:, 0], p[:, 1]
        eta = 1.0 + 0.1 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + t
        return np.stack([eta, 0.2 * eta * np.cos(2 * np.pi * y),
                         -0.1 * eta * np.sin(2 * np.pi * x), np.zeros(len(p))])

    tags = [] if periodic else sorted(m.boundary_tags)
    bcs = {tag: BoundaryCondition("dirichlet", state=state) for tag in tags}
    return SweDriver(disc, bcs, g=9.81, scheme="SADIRK343"), state


class TestFixedPattern:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_free_surface_operator_matches_dense_oracle(self, k, periodic):
        drv, state = swe_pattern_setup(k, periodic)
        disc = drv.disc
        h = disc.interpolate_dofs(lambda p: 1.5 + 0.3 * np.sin(3 * p[:, 0]) * p[:, 1])
        h_poly = disc.to_monomial(disc.vem_to_fv(h))
        K = disc.variable_stiffness_global(h_poly)
        Kref = variable_stiffness_oracle(disc, h_poly)
        assert _rel(K.to_scipy().toarray(), Kref) <= 1e-14
        c = 0.37
        system = drv._free_surface
        system.refill(disc.M.data + c * K.data)
        A = system.A
        load = np.random.default_rng(k).standard_normal(disc.layout.n_dofs)
        rhs = system.rhs(load, 0, 0.25)
        fixed, vals = tagged_dirichlet_oracle(
            disc, drv.bcs, list(drv.bcs), lambda tag, p, t: state(p, t)[0], 0.25)
        assert np.array_equal(system.fixed, fixed) and (len(fixed) == 0) == periodic
        Mref = dense_scatter(disc, [elem.mass for _, elem, _, _ in group_blocks(disc)])
        Aref, rhs_ref = dirichlet_oracle(Mref + c * Kref, load, fixed, vals)
        assert _rel(A.to_scipy().toarray(), Aref) <= 1e-14
        assert _rel(rhs, rhs_ref) <= 1e-14

    def test_wall_wins_at_corners(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 30, lloyd_iters=5, seed=6)
        disc = Discretization(m, fm.build_geometry(m), k=2)
        bcs = {"xmin": BoundaryCondition("dirichlet"),
               "xmax": BoundaryCondition("dirichlet"),
               "ymin": BoundaryCondition("wall"),
               "ymax": BoundaryCondition("dirichlet")}

        def sample(tag, pts, t):
            if bcs[tag].kind == "wall":
                return np.zeros(len(pts))
            return 2.0 + pts[:, 0] + len(tag) * pts[:, 1] + t

        system = models._ConstrainedSystem(disc, bcs, sorted(bcs),
                                           lambda tag, pts, t: sample(tag, pts, t)[None])
        for t in (0.0, 0.5):
            dofs, vals = tagged_dirichlet_oracle(disc, bcs, sorted(bcs), sample, t)
            assert np.array_equal(system.fixed, dofs)
            assert np.array_equal(system.values(0, t), vals)
        corners = disc.layout.dof_coords[dofs][:, 1] == 0.0
        assert np.all(vals[corners] == 0.0) and np.all(vals[~corners] > 0.0)

    def test_pattern_fixed_across_stages_and_steps(self, monkeypatch):
        drv, state = swe_pattern_setup(2, periodic=False, n=40)
        patterns = []

        def recording(A, *args, **kwargs):
            patterns.append((A.indptr.copy(), A.indices.copy()))
            return real(A, *args, **kwargs)
        real = models.solve_implicit
        monkeypatch.setattr(models, "solve_implicit", recording)
        Q = drv.initial_state(state)
        for _ in range(2):
            Q = drv.step(Q, 1e-3)
        assert len(patterns) == 2 * drv.pair.stages
        for indptr, indices in patterns:
            assert np.array_equal(indptr, drv.disc.pattern.indptr)
            assert np.array_equal(indices, drv.disc.pattern.indices)

    def test_stage_makes_no_coo_conversion(self, monkeypatch):
        drv, state = swe_pattern_setup(2, periodic=False, n=40)
        Q = drv.initial_state(state)
        calls = []

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)
        counted(sp.coo_matrix, "tocsr")
        counted(SparseMatrix, "__init__")       # the canonicalizing constructor
        solves = drv.stats.solves
        drv.step(Q, 1e-3)
        assert drv.stats.solves == solves + drv.pair.stages
        assert calls == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_convective_projection_matches_solve_path(self, k):
        drv, state = swe_pattern_setup(k, periodic=True)
        disc = drv.disc
        full = drv.full_coeffs(disc.fvops.reconstruct(drv.initial_state(state).Q))
        got = drv._convective_divergence_poly(full)
        ref = np.empty_like(got)
        for grp in disc.groups:
            T = taylor_to_monomial(disc.fvops.taylor, grp.idx)
            dxT, dyT = (grp.basis.derivative_coeffs(a).transpose(0, 2, 1) for a in (0, 1))
            mono = np.einsum("gab,cgb->cga", T, full[:, grp.idx])
            vals = np.einsum("gqa,cga->cgq", grp.qmono, mono)
            dxv = np.einsum("gqa,cga->cgq", grp.qmono, np.einsum("gab,cgb->cga", dxT, mono))
            dyv = np.einsum("gqa,cga->cgq", grp.qmono, np.einsum("gab,cgb->cga", dyT, mono))
            H, Hx, Hy = vals[0] - vals[3], dxv[0] - dxv[3], dyv[0] - dyv[3]
            qx, qy = vals[1], vals[2]
            div_x = ((2.0 * qx * dxv[1] + qx * dyv[2] + qy * dyv[1]) / H
                     - qx * (qx * Hx + qy * Hy) / H ** 2)
            div_y = ((qx * dxv[2] + qy * dxv[1] + 2.0 * qy * dyv[2]) / H
                     - qy * (qx * Hx + qy * Hy) / H ** 2)
            for c, dv in enumerate((div_x, div_y)):
                mom = np.einsum("gq,gqa->ga", dv * grp.qw, grp.qmono)
                monoc = np.linalg.solve(grp.Hm, mom[:, :, None])[:, :, 0]
                ref[c, grp.idx] = np.linalg.solve(T, monoc[:, :, None])[:, :, 0]
        assert np.abs(ref).max() > 1e-2          # the state moves
        assert _rel(got, ref) <= 1e-13



class TestNodeEvaluations:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gradient_depth_weighted_matches_einsum_oracle(self, k):
        drv, state = swe_pattern_setup(k, periodic=False)
        disc = drv.disc
        coeffs = disc.fvops.reconstruct(drv.initial_state(state).Q)
        h_poly = disc.to_monomial(disc.vem_to_fv(disc.fv_to_vem(coeffs[0]) - drv.b_dofs))
        grad = disc.gradient_coeffs(coeffs[1])
        ref = np.empty((2, disc.mesh.n_cells))
        for grp in disc.groups:
            gx, gy = grad[:, grp.idx]
            hvals = np.einsum("gqa,ga->gq", grp.qmono, h_poly[grp.idx])
            for c, gc in enumerate((gx, gy)):
                gv = np.einsum("gqa,ga->gq", grp.qmono, gc)
                ref[c, grp.idx] = np.einsum("gq,gq->g", grp.qw * hvals, gv) / grp.area
        assert np.abs(ref).max() > 1e-2
        assert _rel(disc.gradient_depth_weighted(grad, h_poly), ref) <= 1e-13

    def test_negative_depth_at_one_node_raises(self):
        drv, state = swe_pattern_setup(2, periodic=True)
        disc = drv.disc
        full = drv.full_coeffs(disc.fvops.reconstruct(drv.initial_state(state).Q))
        drv._convective_divergence_poly(full)             # wet everywhere
        # a steep x slope in one cell keeps its mean (the Taylor constant)
        # and dips below the bottom on its left
        full[0, 7, 1:] = 0.0
        full[0, 7, 1] = 40.0
        grp = next(grp for grp in disc.groups if 7 in grp.idx)
        mono = disc.to_monomial(full[0] - full[3])[grp.idx]
        depth = np.einsum("gqa,ga->gq", grp.qmono, mono)
        assert np.all(full[0, :, 0] - full[3, :, 0] > 0.5)
        assert np.count_nonzero(depth <= 0.0) >= 1 and np.all(depth[grp.idx != 7] > 0.0)
        with pytest.raises(DryStateError, match="convective"):
            drv._convective_divergence_poly(full)


# ---------------------------------------------------------------------------
# the frozen sparse-LU preconditioner of the implicit systems
# ---------------------------------------------------------------------------

def small_wave(seed=1):
    """The benchmark's `wave` (swe_smooth_wave, k = 2, SADIRK343, Dirichlet
    eta) on a coarse mesh."""
    case = cases.get_case("swe_smooth_wave", seed=seed, h=0.25, t_end=0.004)
    m = case.make_mesh()
    disc = Discretization(m, fm.build_geometry(m), k=case.k)
    drv = runner.build_driver(case, disc)
    return drv, runner.initial_state(case, drv)


class TestFrozenFactor:
    def test_factored_once_then_once_more_after_a_slow_solve(self, monkeypatch):
        factors = count_factors(monkeypatch)
        drv, state = small_wave()
        system = drv._free_surface
        for _ in range(4):
            state = drv.step(state, 1e-3)
        assert drv.stats.solves == 16 and factors == [None]
        assert drv.stats.iterations <= 2 * drv.stats.solves
        # tau x 30: the refill keeps the factor and the solve is slow ...
        tau = 30e-3
        drv.stage(state, state, tau, state.time + tau)
        assert factors == [None] and system.last_iterations > models.REFACTOR_ITERATIONS
        # ... so the next refill refactors, once: CG then takes one iteration
        for _ in range(2):
            drv.stage(state, state, tau, state.time + tau)
            assert factors == [None, None] and system.last_iterations == 1

    def test_slow_viscous_solve_refactors_at_the_next_stage(self, monkeypatch):
        factors = count_factors(monkeypatch)
        drv, state, vel, pres, g = tgv_setup(n=120, k=1)
        pin = int(np.argmax(np.abs(drv.disc.ones)))
        dt = drv.compute_dt(state)
        state = drv.step(state, dt)
        system = drv._viscous
        assert factors == [pin, None] and system.last_iterations <= models.REFACTOR_ITERATIONS
        # tau x 30: the refill keeps the factor and the solve is slow ...
        tau = 30 * dt
        drv.stage(state, state, tau, state.time + tau)
        assert factors == [pin, None] and system.last_iterations > models.REFACTOR_ITERATIONS
        # ... so the next stage refactors at the same tau: CG then takes one
        # iteration
        drv.stage(state, state, tau, state.time + tau)
        assert factors == [pin, None, None] and system.last_iterations == 1

    def test_fixed_seed_rerun_is_bitwise_identical(self, monkeypatch):
        iters = []
        real = models.solve_implicit

        def recording(*args, **kwargs):
            stats = args[6]
            before = stats.iterations
            x = real(*args, **kwargs)
            iters.append(stats.iterations - before)
            return x
        monkeypatch.setattr(models, "solve_implicit", recording)
        runs = []
        for _ in range(2):
            drv, state = small_wave(seed=7)
            for _ in range(4):
                state = drv.step(state, drv.compute_dt(state))
            runs.append((iters.copy(), state.Q))
            iters.clear()
        assert runs[0][0] == runs[1][0] and len(runs[0][0]) == 16
        assert np.array_equal(runs[0][1], runs[1][1])


# ---------------------------------------------------------------------------
# a stage's explicit and implicit inputs: one object or two equal ones
# ---------------------------------------------------------------------------

def periodic_flow(flow, scheme, seed=5):
    """A driver factory and an initial state on a small periodic mesh: a
    free-surface bump at rest (swe) or the Taylor-Green vortex (ins)."""
    if flow == "ins":
        drv, state, _, _, _ = tgv_setup(n=60, k=1, seed=seed, scheme=scheme)
        return lambda: InsDriver(drv.disc, {}, nu=1e-2, scheme=scheme), state
    m = fm.generate_voronoi((0, 1, 0, 1), 60, lloyd_iters=6, seed=seed,
                            periodic=(True, True))
    g = fm.build_geometry(m)
    disc = Discretization(m, g, k=2)
    x, y = g.barycenter.T
    z = np.zeros(m.n_cells)
    state = FlowState(np.stack([2.0 + 0.1 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                                z, z]), 0.0, {})
    return lambda: SweDriver(disc, {}, g=9.81, scheme=scheme), state


class TestStageInputs:
    @pytest.mark.parametrize("flow", ["swe", "ins"])
    def test_equal_inputs_give_the_result_of_one_input(self, flow):
        make, state = periodic_flow(flow, "LSDIRK222")
        tau = 1e-2
        one = make().stage(state, state, tau, tau)
        two = make().stage(state.copy(), state.copy(), tau, tau)
        assert np.array_equal(one.Q, two.Q)
        assert one.aux.keys() == two.aux.keys()
        for key in one.aux:
            assert np.array_equal(one.aux[key], two.aux[key])

    @pytest.mark.parametrize("flow", ["swe", "ins"])
    def test_fixed_seed_rerun_is_bitwise_identical(self, flow):
        runs = []
        for _ in range(2):
            make, state = periodic_flow(flow, "SADIRK343", seed=8)
            drv = make()
            for _ in range(3):
                state = drv.step(state, 1e-2)
            runs.append(state.Q)
        assert np.array_equal(runs[0], runs[1])
