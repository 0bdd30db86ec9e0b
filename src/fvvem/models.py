"""Semi-discrete SWE and INS models: one semi-implicit stage update each.

A stage couples the explicit FV convective operator with implicit VEM solves
(free-surface wave equation for SWE; viscous Helmholtz plus pressure
projection for INS) through the FV<->VEM transfer operators.  Both drivers
share one skeleton, `_Driver`: the IMEX step, the FV ghost states and the
explicit half of a stage (the CWENO reconstructions of the stage inputs and
the Rusanov-flux operator); each driver adds its implicit half.  A driver
takes its physics as plain keyword arguments (SWE: gravity `g` and the
bathymetry, by default a flat bottom of exact zeros that is never sampled;
INS: viscosity `nu` and a body force) and rejects a nonphysical one with
ModelError.  The SWE stage updates the cell means of eta from the
divergence of the single-valued edge discharges, so it conserves mass.
Boundary conditions are a plain dict tag -> `BoundaryCondition` (its kind
checked when built) over the tags of `PolyMesh.boundary_tags`; the INS state
stores the pressure once, as its VEM dofs (`aux["p_dofs"]`).  The
Discretization object precomputes everything mesh-dependent, grouped by cell
vertex count so per-stage work is batched numpy.  Every global operator is
gathered from per-cell blocks through a `vem.AssemblyPattern`: the three
transfers (V_P, the VEM interpolant D T; C^T T; and C_P, gathered transposed)
on one dofs-by-modes pattern, and every implicit operator on one fixed
dof pattern, where it is refilled from its data and its structure is never
rebuilt: the free surface M + tau^2 g K(H) and the viscous M + tau nu K in
every stage, the pressure K once, when its driver is built.  Each implicit
system is preconditioned by the sparse LU factor of its first operator,
kept across refills until a solve takes more than REFACTOR_ITERATIONS CG
iterations (`_ConstrainedSystem.refill`).  Every implicit solve, the INS
pressure projection included, goes through `_ConstrainedSystem.solve`: one
skip rule, `solve_implicit`'s, with each system's `atol` stated beside its
preconditioner, and one record in the driver's `SolveStats`.

Per-cell polynomials live in two bases: the FV Taylor basis and the scaled
monomials of the VEM element (gradients, Pi0 polynomials, L2 projections).
The Taylor functions are the monomials less their cell means, so the two
differ in the constant coefficient alone, and one shift pair changes between
them: `Discretization.to_taylor` and its inverse `to_monomial`, whose
transpose `transfer.build_transfer` applies to the moments.  Edge traces
(`FvOperators.edge_states`) and loads (`Discretization.load_from_taylor`)
take Taylor coefficients only; gradients (`gradient_coeffs`) are the
h = 1 derivative maps, with zero constant rows, applied to them, over h;
and the cell mean of a polynomial is its Taylor constant.

Per-cell work runs per vertex-count group (`_Group`, which holds only what a
stage reads), with one cell rule (its VEM element's), one edge rule (the FV
edge Gauss points, which the VEM edge traces take) and one Pi0 solve (the
element's, which C_P takes; V_P needs none).  Pi0 polynomials of VEM fields go
through `vem_to_fv`, products of polynomials (H grad(eta)) through the
monomial Gram matrix `Hm`.  Only
non-polynomial integrands (the convective polynomial) and the positivity
check of K(h) run at the quadrature nodes: the fields' monomial coefficients
are stacked field-major, (nfields, ncell, nk), one product with qmono^T
(g, nk, nq) evaluates them all, pointwise terms read each field's (g, nq)
view of it, and an L2 projection multiplies by qmono^T and H^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fv as fvmod
from . import transfer as trmod
from . import vem as vemod
from .linalg import (DEFAULT_TOL, DirichletSet, SolverReport, SparseMatrix,
                     apply_dirichlet, factorized, pcg)
from .mesh import GeometryCache, PolyMesh, gauss_lobatto_reference, polygon_quadrature, sample_at
from .timeint import compute_dt, imex_advance, tableau
from .vem import n_poly


class ModelError(Exception):
    pass


class DryStateError(ModelError):
    """Non-positive water depth encountered."""


# ---------------------------------------------------------------------------
# model flux definitions
# ---------------------------------------------------------------------------

class SweModel:
    """Shallow water: state rows (eta, qx, qy, b); explicit momentum fluxes."""

    momentum = slice(1, 3)           # the rows (qx, qy)

    @staticmethod
    def velocity(w):
        H = w[0] - w[3]
        if np.any(H <= 0.0):
            raise DryStateError("dry cell: eta - b <= 0")
        return w[1] / H, w[2] / H

    def explicit_flux_normal(self, w, n):
        u, v = self.velocity(w)
        vn = u * n[..., 0] + v * n[..., 1]
        return np.stack([w[1] * vn, w[2] * vn])

    def max_eig(self, w, n):
        u, v = self.velocity(w)
        return 2.0 * np.abs(u * n[..., 0] + v * n[..., 1])


class InsModel:
    """Incompressible Navier-Stokes: state rows (u, v); convective fluxes."""

    momentum = slice(0, 2)           # the rows (u, v)

    def explicit_flux_normal(self, w, n):
        vn = w[0] * n[..., 0] + w[1] * n[..., 1]
        return np.stack([w[0] * vn, w[1] * vn])

    def max_eig(self, w, n):
        return np.abs(w[0] * n[..., 0] + w[1] * n[..., 1])


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass
class BoundaryCondition:
    """The condition on one boundary tag.  A driver takes a plain dict
    tag -> BoundaryCondition; periodic sides never appear in it."""

    kind: str                 # 'wall' | 'dirichlet' | 'transmissive'
    state: object = None      # callable (pts, t) -> full state rows (FV ghost)
    pressure: object = None   # callable (pts, t) -> pressure values (INS)

    def __post_init__(self):
        if self.kind not in ("wall", "dirichlet", "transmissive"):
            raise ModelError(f"unknown boundary kind '{self.kind}'")


# ---------------------------------------------------------------------------
# flow state
# ---------------------------------------------------------------------------

@dataclass
class FlowState:
    """Conserved cell averages plus solver auxiliaries.

    `aux` holds per-step data replaced wholesale (pressure dofs, warm starts).
    """

    Q: np.ndarray
    time: float = 0.0
    aux: dict = field(default_factory=dict)

    def copy(self) -> "FlowState":
        return FlowState(self.Q.copy(), self.time, dict(self.aux))


# ---------------------------------------------------------------------------
# discretization bundle
# ---------------------------------------------------------------------------

class _Group:
    """Cells with equal vertex count, stacked for batched linear algebra:
    what a stage reads of the group's VEM element `elem`, its one cell rule
    and its Pi0-gradient stack `pis0grad` (g, 2, n_{k-1}, ndof) among them,
    and the variable-stiffness tensor `Hc`, built over chunks of cells."""

    def __init__(self, elem, layout, k):
        idx = self.idx = elem.cells
        nkm1 = n_poly(k - 1)
        self.dofs = layout.cell_dofs(idx)
        self.area = elem.area
        self.pis0grad = elem.pis_0grad
        self.stab = elem.stab_nabla
        self.basis = elem.basis
        self.Hm = elem.H
        self.qnodes, self.qw, self.qmono = elem.qnodes, elem.qw, elem.qmono
        # variable stiffness: Hc[a * nkm1 + b, c] = sum_q w_q m_a m_b m_c
        # (a, b < nkm1), one batched product per chunk of 128 cells, which
        # bounds its (chunk, nq, a, b) temporary
        mk = self.qmono[:, :, :nkm1]
        wm = mk * self.qw[..., None]
        self.Hc = np.empty((len(idx), nkm1 * nkm1, self.qmono.shape[2]))
        for start in range(0, len(idx), 128):
            c = slice(start, start + 128)
            wmm = (wm[c, :, :, None] * mk[c, :, None, :]).reshape(-1, wm.shape[1], nkm1 ** 2)
            np.matmul(wmm.transpose(0, 2, 1), self.qmono[c], out=self.Hc[c])
        # monomial moments -> monomial coefficients of the L2 projection
        self.Hinv = np.linalg.inv(self.Hm)


class Discretization:
    """Mesh + order bundle: VEM elements, FV operators, transfers, tables.

    Everything is built per vertex-count group of cells, as stacked arrays:
    one VEM element and one transfer build each, of which the gathers keep
    only the blocks they read, and one _Group (`groups`) each.
    An order outside 1..4 raises `vem.VemError` before any FV set-up.
    """

    def __init__(self, mesh: PolyMesh, geom: GeometryCache, k: int):
        self.mesh = mesh
        self.geom = geom
        self.k = k
        self.nk = n_poly(k)
        self.nkm1 = n_poly(k - 1)
        self.nkm2 = n_poly(k - 2)
        # d/dx and d/dy of the monomials at h = 1: coefficient rows map
        # c -> c @ D, and a cell of size h divides by h
        self.derivative_maps = vemod.derivative_table(k)
        self.layout = vemod.build_dof_layout(mesh, geom, k)
        self.fvops = fvmod.FvOperators(mesh, geom, k)
        self.groups, kept = [], []
        for idx in mesh.vertex_count_groups:
            elem = vemod.build_element(mesh, geom, idx, k)
            # only the blocks the gathers read outlive the element: its mass,
            # stiffness, C's degree-(k-1) rows and the transfer blocks
            kept.append((elem.mass, elem.stiffness, elem.C[:, :self.nkm1].copy(),
                         *trmod.build_transfer(elem, self.fvops.taylor.corrections[idx])))
            self.groups.append(_Group(elem, self.layout, k))
        mass, stiffness, c_km1, Vp, Cp, CT = zip(*kept)
        # every global operator is gathered from the groups' stacked blocks
        # through a vem.AssemblyPattern: the dof pattern (M, K, the divergence
        # load and every implicit operator refilled on it), and the pattern of
        # dofs against the ids cell * nk + l of the Taylor coefficients (transfers)
        nd, nck = self.layout.n_dofs, mesh.n_cells * self.nk
        dofs = [grp.dofs for grp in self.groups]
        modes = [grp.idx[:, None] * self.nk + np.arange(self.nk) for grp in self.groups]
        self.pattern = vemod.AssemblyPattern(dofs, dofs, (nd, nd))
        self.M = vemod.scatter_matrix(self.pattern, mass)
        self.K = vemod.scatter_matrix(self.pattern, stiffness)
        # fv_to_vem: dofs = Vglob @ coeffs.ravel(), where a dof shared by
        # several cells takes the mean of their candidates; the load of
        # Taylor coefficients against Pi0 phi (CTglob), the transfer's moments;
        # vem_to_fv: coeffs.ravel() = Cglob @ dofs, gathered as C_P^T on the
        # same pattern and transposed (each (dof, mode) pair is one cell's)
        multiplicity = np.bincount(self.layout.dof_ids, minlength=nd)
        to_vem = vemod.AssemblyPattern(dofs, modes, (nd, nck))
        self._Vglob, self._CTglob, Cglob_t = (
            vemod.scatter_matrix(to_vem, blocks).to_scipy() for blocks in (
                [v / multiplicity[grp.dofs][:, :, None] for v, grp in zip(Vp, self.groups)],
                CT, [c.transpose(0, 2, 1) for c in Cp]))
        self._Cglob = Cglob_t.T.tocsr()
        # divergence load: out = DIVglob @ [vx, vy], each half on the dof
        # pattern with blocks (Pi0_{k-1} d phi_j / dx, Pi0 phi_i) (and d / dy)
        DX, DY = (vemod.scatter_matrix(self.pattern, [
            np.einsum("gai,gaj->gij", c, grp.pis0grad[:, d])
            for c, grp in zip(c_km1, self.groups)]) for d in range(2))
        self._DIVglob = sp.hstack([DX.to_scipy(), DY.to_scipy()]).tocsr()
        self.ones = np.zeros(nd)                    # the dofs of the constant 1
        for v, grp in zip(Vp, self.groups):
            self.ones[grp.dofs] = v[:, :, 0]
        self.area_total = float(np.sum(geom.area))
        # VEM edge traces: the Lagrange map L (ng, k+1) from the Gauss-Lobatto
        # edge dofs (rows of the layout's `edge_trace_dofs`) to the FV edge Gauss
        # points, L V_gl = V_g for the Vandermonde matrices of t^0..t^k at both
        powers = np.arange(k + 1)
        vgl, vg = (t[:, None] ** powers for t in (gauss_lobatto_reference(k)[0],
                                                   self.fvops.edge_gauss_nodes))
        self.edge_lagrange = np.linalg.solve(vgl.T, vg.T).T

    def vem_edge_trace(self, dofs: np.ndarray) -> np.ndarray:
        """Single-valued (NE, ng) trace of a conforming field on all edges."""
        return dofs[self.layout.edge_trace_dofs] @ self.edge_lagrange.T

    # -- field plumbing (sparse transfer operators) ---------------------------

    def fv_to_vem(self, coeffs):
        """VEM dofs (..., ndof) of fields given by their Taylor coefficients
        (..., ncell, nk); any leading axes, as `to_taylor` takes."""
        coeffs = np.asarray(coeffs)
        nck = self.mesh.n_cells * self.nk
        return (self._Vglob @ coeffs.reshape(-1, nck).T).T.reshape(*coeffs.shape[:-2], -1)

    def vem_to_fv(self, dofs):
        """Taylor coefficients (..., ncell, nk) of VEM fields given by their
        dofs (..., ndof); the inverse direction of `fv_to_vem`."""
        dofs = np.asarray(dofs)
        flat = dofs.reshape(-1, dofs.shape[-1])
        return (self._Cglob @ flat.T).T.reshape(*dofs.shape[:-1], self.mesh.n_cells, self.nk)

    def field_mean(self, dofs: np.ndarray) -> float:
        return float(self.ones @ (self.M.to_scipy() @ dofs)) / self.area_total

    def interpolate_dofs(self, func) -> np.ndarray:
        """VEM interpolation of an analytic function (point dofs + moments)."""
        out = np.zeros(self.layout.n_dofs)
        nb = self.layout.moment_base
        out[:nb] = func(self.layout.dof_coords[:nb])
        if self.nkm2:
            for grp in self.groups:
                vals = sample_at(func, grp.qnodes)
                moms = np.einsum("gq,gqa,g->ga", vals * grp.qw, grp.qmono[:, :, :self.nkm2],
                                 1.0 / grp.area)
                out[grp.dofs[:, -self.nkm2:]] = moms          # the last dofs of a cell
        return out

    def project_field(self, func, degree: int) -> np.ndarray:
        """Per-cell L2 projection of an analytic function onto Taylor coeffs,
        its moments by a rule of the given degree."""
        coeffs = np.empty((self.mesh.n_cells, self.nk))
        for grp in self.groups:
            rule = polygon_quadrature(self.mesh.cell_coords(grp.idx), grp.basis.center, degree)
            vals = sample_at(func, rule.nodes)
            mom = np.einsum("gq,gqa->ga", vals * rule.weights, grp.basis.values(rule.nodes))
            coeffs[grp.idx] = np.linalg.solve(grp.Hm, mom[:, :, None])[:, :, 0]
        return self.to_taylor(coeffs)

    def load_from_taylor(self, taylor_coeffs: np.ndarray) -> np.ndarray:
        """Global load of a piecewise polynomial (Taylor coeffs) against Pi0 phi."""
        return self._CTglob @ taylor_coeffs.ravel()

    def to_taylor(self, mono_coeffs: np.ndarray) -> np.ndarray:
        """Taylor coefficients (..., ncell, nk) of per-cell polynomials given
        by their monomial coefficients, such as `gradient_coeffs` returns.
        The Taylor function l >= 1 is the monomial l less its cell mean
        (`TaylorBasis.corrections`), so only the constant changes:
        c_0 = m_0 + sum_{l >= 1} corrections_l m_l, the cell mean."""
        out = np.array(mono_coeffs, dtype=float)
        out[..., 0] += np.einsum("...cl,cl->...c", out[..., 1:],
                                 self.fvops.taylor.corrections[:, 1:])
        return out

    def to_monomial(self, taylor_coeffs: np.ndarray) -> np.ndarray:
        """Monomial coefficients (..., ncell, nk) of per-cell polynomials
        given by their Taylor coefficients; the inverse of `to_taylor`:
        m_0 = c_0 - sum_{l >= 1} corrections_l c_l."""
        out = np.array(taylor_coeffs, dtype=float)
        out[..., 0] -= np.einsum("...cl,cl->...c", out[..., 1:],
                                 self.fvops.taylor.corrections[:, 1:])
        return out

    def gradient_coeffs(self, taylor_coeffs: np.ndarray) -> np.ndarray:
        """Monomial coefficients (2, ..., ncell, nk) of the x and y
        derivatives of per-cell polynomials given by their Taylor
        coefficients (..., ncell, nk), which the maps take as they are:
        the maps' constant rows are zero, and only the constants differ."""
        return np.stack([taylor_coeffs @ D for D in self.derivative_maps]) / self.geom.h[:, None]

    def cell_means(self, func, time=None) -> np.ndarray:
        """Cell means (r..., ncell) of func((n, 2) points[, time]) -> (r..., n) rows."""
        f = (lambda p: func(p, time)) if time is not None else func
        means = [np.einsum("...gq,gq->...g", sample_at(f, grp.qnodes), grp.qw) / grp.area
                 for grp in self.groups]
        out = np.empty(means[0].shape[:-1] + (self.mesh.n_cells,))
        for mean, grp in zip(means, self.groups):
            out[..., grp.idx] = mean
        return out

    def divergence_load(self, vx_dofs: np.ndarray, vy_dofs: np.ndarray) -> np.ndarray:
        """(Div)_i = integral of Pi0_{k-1}(div v) * Pi0 phi_i, assembled globally."""
        return self._DIVglob @ np.concatenate([vx_dofs, vy_dofs])

    def gradient_cell_means(self, taylor_coeffs: np.ndarray) -> np.ndarray:
        """Cell averages of the gradient of per-cell polynomials: (2, ncell)."""
        return self.to_taylor(self.gradient_coeffs(taylor_coeffs))[..., 0]

    def variable_stiffness_global(self, coeff_poly: np.ndarray) -> SparseMatrix:
        """K^{n,h} of a positive VEM coefficient field (e.g. depth), on the
        assembly pattern, from the monomial coefficients c (ncell, nk) of the
        field's Pi0 projection (`to_monomial(vem_to_fv(dofs))`).  Per cell the
        Gram matrix of the degree-(k-1) monomials weighted by it is W = Hc . c, and
        K_E = P^T (I_2 (x) W) P + mean(c) S_E, with P the stack (Pi0x; Pi0y)."""
        cmean = self.to_taylor(coeff_poly)[:, 0]
        blocks = []
        for grp in self.groups:
            cpoly = coeff_poly[grp.idx][:, :, None]
            if np.any(grp.qmono @ cpoly <= 0.0):
                raise DryStateError("coefficient not strictly positive at "
                                    "quadrature nodes (dry cell)")
            W = (grp.Hc @ cpoly).reshape(len(cpoly), self.nkm1, self.nkm1)
            P = grp.pis0grad.reshape(len(cpoly), 2 * self.nkm1, -1)     # (Pi0x; Pi0y)
            WP = (W[:, None] @ grp.pis0grad).reshape(P.shape)
            blocks.append(P.transpose(0, 2, 1) @ WP + cmean[grp.idx, None, None] * grp.stab)
        return self.pattern.matrix(self.pattern.scatter(blocks))

    def gradient_depth_weighted(self, grad_coeffs: np.ndarray,
                                h_poly: np.ndarray) -> np.ndarray:
        """Cell averages of H * grad(eta), from the monomial coefficients of
        grad(eta) (`gradient_coeffs`) and of H's Pi0 polynomial h: per cell,
        h^T Hm g / |P| through the monomial Gram matrix."""
        out = np.empty((2, self.mesh.n_cells))
        for grp in self.groups:
            hH = h_poly[grp.idx][:, None, :] @ grp.Hm                    # (g, 1, nk)
            out[:, grp.idx] = (hH @ grad_coeffs[:, grp.idx].transpose(1, 2, 0))[:, 0].T
        return out / self.geom.area


# ---------------------------------------------------------------------------
# solver drivers
# ---------------------------------------------------------------------------

# A system refactors its preconditioner at the next refill when its last solve
# took more CG iterations than this.  A kept factor holds CG at 1-10
# iterations per solve while the coefficients drift over a run (SWE depth,
# the CFL-limited tau); more means the operator moved far from the factored
# one (tau changed several-fold), and one factorization costs about as much
# as 20-30 CG iterations with the factor.
REFACTOR_ITERATIONS = 15


# ledger entry of a system whose operator is refilled (`_ConstrainedSystem`)
FROZEN_FACTOR = ("sparse LU of the first operator, refactored at the next refill "
                 f"after a solve of more than {REFACTOR_ITERATIONS} CG iterations")


@dataclass
class SolveStats:
    iterations: int = 0
    solves: int = 0
    last_residual: float = 0.0

    def add(self, report):
        self.iterations += report.iterations
        self.solves += 1
        self.last_residual = report.residual


class _Driver:
    """The skeleton of both steppers: the IMEX step over the driver's
    `stage`, the FV ghost states of the boundary conditions and the explicit
    FV half of a stage.  `bcs` maps each boundary tag of the mesh, and no
    other, to its BoundaryCondition, and each driver names its flux `model`
    as a class attribute."""

    def __init__(self, disc: Discretization, bcs: dict, scheme: str, cfl: float):
        missing = [tag for tag in disc.mesh.boundary_tags if tag not in bcs]
        if missing:
            raise ModelError(f"boundary tag '{missing[0]}' has no boundary condition "
                             f"(conditions given for: {', '.join(sorted(bcs)) or 'none'})")
        unknown = sorted(set(bcs) - set(disc.mesh.boundary_tags))
        if unknown:
            raise ModelError(f"boundary condition on '{unknown[0]}', a tag the mesh lacks "
                             f"(mesh tags: {', '.join(disc.mesh.boundary_tags) or 'none'})")
        self.disc = disc
        self.bcs = bcs
        self.pair = tableau(scheme)
        self.cfl = cfl
        self.stats = SolveStats()

    def tags_of_kind(self, *kinds):
        return [tag for tag, bc in sorted(self.bcs.items()) if bc.kind in kinds]

    def _ghost(self, tag, pts, normals, wL, t):
        """Exterior FV state at a tag's edge points: the interior trace
        (transmissive), its mirror (wall) or the prescribed state (dirichlet)."""
        bc = self.bcs[tag]
        if bc.kind == "transmissive":
            return wL
        if bc.kind == "wall":
            # reflect the momentum rows: the normal component changes sign
            w = wL.copy()
            qx, qy = wL[self.model.momentum]
            qn = qx * normals[:, 0] + qy * normals[:, 1]
            w[self.model.momentum] -= 2.0 * qn * normals.T
            return w
        return bc.state(pts, t)

    def full_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """The state rows the fluxes read, from the reconstructed ones."""
        return coeffs

    def _explicit(self, QE: FlowState, QI: FlowState, tau: float, t: float):
        """The explicit half of a stage: the reconstructions of QE and QI
        (one when QE is QI), the flux rows of QE's reconstruction
        (`full_coeffs`) and the explicit FV operator QI - tau/|P| * sum of
        their Rusanov edge fluxes."""
        fvops = self.disc.fvops
        coeffs_E = fvops.reconstruct(QE.Q)
        coeffs_I = coeffs_E if QE is QI else fvops.reconstruct(QI.Q)
        full_E = self.full_coeffs(coeffs_E)
        F = fvmod.explicit_operator(fvops, self.model, full_E, QI.Q, tau, t, self._ghost)
        return coeffs_E, coeffs_I, full_E, F

    def step(self, state: FlowState, dt: float) -> FlowState:
        return imex_advance(state, self.pair, self.stage, dt)


class SweDriver(_Driver):
    """Semi-implicit shallow-water stepper on a Discretization."""

    model = SweModel()
    # M + tau^2 g K_H follows the state: refilled in the fixed pattern every stage
    preconditioners = {"free-surface": FROZEN_FACTOR}
    # each solve stops at max(DEFAULT_TOL ||b||, atol), or skips from its start
    atols = {"free-surface": "0: DEFAULT_TOL relative to ||b|| alone"}

    def __init__(self, disc: Discretization, bcs: dict, g: float = 9.81,
                 scheme: str = "LSDIRK222", cfl: float = 0.9, bathymetry=None):
        if g <= 0.0:
            raise ModelError("gravity must be positive")
        super().__init__(disc, bcs, scheme, cfl)
        self.g = g
        if bathymetry is None:
            self.b_coeffs = np.zeros((disc.mesh.n_cells, disc.nk))
            self.b_dofs = np.zeros(disc.layout.n_dofs)
        else:
            self.b_coeffs, self.b_dofs = evaluate_bathymetry(disc, bathymetry)
        self._wall_edges = disc.mesh.tagged_edges(self.tags_of_kind("wall"))
        self._free_surface = _ConstrainedSystem(
            disc, bcs, self.tags_of_kind("dirichlet"),
            lambda tag, pts, t: bcs[tag].state(pts, t)[:1])

    def initial_state(self, state_fun) -> FlowState:
        return FlowState(self.disc.cell_means(lambda p: state_fun(p, 0.0)[:3]), 0.0, {})

    def full_coeffs(self, coeffs3: np.ndarray) -> np.ndarray:
        return np.concatenate([coeffs3, self.b_coeffs[None]], axis=0)

    def stage(self, QE: FlowState, QI: FlowState, tau: float, t: float) -> FlowState:
        disc = self.disc
        g = self.g
        if np.any(QE.Q[0] - self.b_coeffs[:, 0] <= 0.0):
            raise DryStateError("dry cell in stage input")
        coeffs_E, coeffs_I, full_E, Fq = self._explicit(QE, QI, tau, t)
        # depth coefficient as a VEM field from the explicitly extrapolated state
        eta_E_dofs = disc.fv_to_vem(coeffs_E[0])
        h_poly = disc.to_monomial(disc.vem_to_fv(eta_E_dofs - self.b_dofs))
        Kn = disc.variable_stiffness_global(h_poly)
        self._free_surface.refill(disc.M.data + tau * tau * g * Kn.data)
        # rhs: (eta_I - tau * div Fq, Pi0 phi), with Fq as the smooth field
        # q_I(x) - tau * P(div(v (x) q))(x) projected onto the VEM space; its
        # weak divergence is integrated by parts inside the E-matrix operator
        conv_poly = self._convective_divergence_poly(full_E)
        fq_field = coeffs_I[1:3] - tau * conv_poly
        fq_dofs = disc.fv_to_vem(fq_field)
        fq_div = disc.divergence_load(fq_dofs[0], fq_dofs[1])
        rhs = self._free_surface.rhs(disc.load_from_taylor(coeffs_I[0]) - tau * fq_div, 0, t)
        x0 = QI.aux.get("eta_dofs")
        if x0 is None:
            x0 = disc.fv_to_vem(coeffs_I[0])
        eta_dofs = self._free_surface.solve(rhs, x0, self.stats, "free-surface")
        grad_eta = disc.gradient_coeffs(disc.vem_to_fv(eta_dofs))
        q_new = Fq - tau * g * disc.gradient_depth_weighted(grad_eta, h_poly)
        # eta's cell means from the divergence of the single-valued implicit
        # discharge q^{new} . n = trace(Fq_vem) - tau g * avg(H grad eta^{new}) . n,
        # so mass is conserved; walls carry no discharge
        n = disc.geom.edge_normal
        fq_hat = (disc.vem_edge_trace(fq_dofs[0]) * n[:, None, 0]
                  + disc.vem_edge_trace(fq_dofs[1]) * n[:, None, 1])
        q_hat = fq_hat - tau * g * self._depth_gradient_trace(grad_eta, h_poly)
        q_hat[self._wall_edges] = 0.0
        eta_new = QI.Q[0] - tau * (disc.fvops.edge_sum(q_hat) / disc.geom.area)
        Qn = np.vstack([eta_new[None], q_new])
        return FlowState(Qn, t, {"eta_dofs": eta_dofs})

    def _depth_gradient_trace(self, grad_eta: np.ndarray, h_poly: np.ndarray) -> np.ndarray:
        """Single-valued edge trace of H * grad(eta) . n (central average),
        from the monomial coefficients of grad(eta) and of H's Pi0 polynomial,
        traced together in the Taylor basis.
        Boundary edges keep the one-sided trace (hR equals hL there); the
        stage zeroes the whole discharge on walls."""
        disc = self.disc
        (hL, gxL, gyL), (hR, gxR, gyR) = disc.fvops.edge_states(
            disc.to_taylor(np.concatenate([h_poly[None], grad_eta])))
        n = disc.geom.edge_normal
        return 0.5 * (hL * (gxL * n[:, None, 0] + gyL * n[:, None, 1])
                      + hR * (gxR * n[:, None, 0] + gyR * n[:, None, 1]))

    def _convective_divergence_poly(self, full_coeffs: np.ndarray) -> np.ndarray:
        """Per-cell Taylor coefficients (2, ncell, nk) of P(div(v (x) q)).

        The momentum flux q (x) q / H is evaluated from the reconstruction
        polynomials at the 2k+2 quadrature pack, differentiated via the
        product/chain rule, and L2-projected back onto degree-k polynomials.
        The depth H = eta - b is formed on the coefficients; per group, one
        product of the field-major stack of the 9 fields (H, qx, qy and their
        x and y derivatives) with the node values `qmono` evaluates them all,
        and each field's node values are a view of that product.
        """
        disc = self.disc
        rows = np.concatenate([(full_coeffs[0] - full_coeffs[3])[None], full_coeffs[1:3]])
        # monomial coefficients of (H, qx, qy), then their x and y
        # derivatives, field-major: (9, ncell, nk)
        fields = np.concatenate([disc.to_monomial(rows)[None], disc.gradient_coeffs(rows)]
                                ).reshape(9, disc.mesh.n_cells, disc.nk)
        out = np.empty((2, disc.mesh.n_cells, disc.nk))
        for grp in disc.groups:
            # (g, 9, nk) @ (g, nk, nq); each field is a (g, nq) view
            vals = fields[:, grp.idx].transpose(1, 0, 2) @ grp.qmono.transpose(0, 2, 1)
            H, qx, qy, Hx, qxx, qyx, Hy, qxy, qyy = vals.transpose(1, 0, 2)
            if np.any(H <= 0.0):
                raise DryStateError("dry cell in convective field evaluation")
            # div components of q (x) q / H, with the velocity (u, v) = q / H
            # and ugH = (u, v) . grad H
            u, v = qx / H, qy / H
            ugH = u * Hx + v * Hy
            div = np.stack([u * (2.0 * qxx + qyy - ugH) + v * qxy,
                            v * (qxx + 2.0 * qyy - ugH) + u * qyx], axis=1)  # (g, 2, nq)
            div *= grp.qw[:, None, :]
            out[:, grp.idx] = ((div @ grp.qmono) @ grp.Hinv.transpose(0, 2, 1)
                               ).transpose(1, 0, 2)
        return disc.to_taylor(out)

    # -- time stepping --------------------------------------------------------

    def max_conv_eig(self, state: FlowState) -> np.ndarray:
        return _cell_edge_eig(self.disc, self.model,
                              np.vstack([state.Q, self.b_coeffs[None, :, 0]]))

    def compute_dt(self, state: FlowState) -> float:
        conv = self.max_conv_eig(state)
        full = 0.5 * conv + np.sqrt(self.g * (state.Q[0] - self.b_coeffs[:, 0]))
        return compute_dt(self.disc.geom.h, conv, self.cfl, full)


class _ConstrainedSystem:
    """One implicit system of a driver with its Dirichlet dofs eliminated.

    Fixed for its life: the Dirichlet dofs, the tag that sets each one's value
    (sorted order with 'wall' tags last, the last one wins: walls win at
    corners) and their positions in the Discretization's assembly pattern.
    One function `sample(tag, pts, t) -> (ncomp, npts)` gives the boundary
    values of every component; they are sampled per right-hand side.
    `refill(data)` sets the operator to `data` on the pattern, Dirichlet
    dofs eliminated (`A`), and keeps the unconstrained matrix (`full`, for
    the right-hand sides).

    Preconditioner: the sparse LU factor (`linalg.factorized`) of the
    Dirichlet-eliminated operator, taken at the first refill and kept
    across refills.  A refill refactors only when the last `solve` took more
    than REFACTOR_ITERATIONS CG iterations, so the rule depends on iteration
    counts alone and reruns are reproducible.  An operator that
    `annihilates_constants` (a stiffness matrix) is singular when no dof is
    fixed: its factor then pins the dof where the constant field is largest,
    and the system owns the gauge of the pure-Neumann problem, which fixes
    its solution up to a constant: `solve` keeps the mean of its start x0.
    """

    def __init__(self, disc: Discretization, bcs: dict, tags, sample,
                 annihilates_constants: bool = False):
        self.disc = disc
        self.sample = sample
        ordered = sorted(tags, key=lambda tag: (bcs[tag].kind == "wall", tag))
        owner = np.full(disc.layout.n_dofs, -1)
        for i, tag in enumerate(ordered):
            owner[vemod.dirichlet_dofs(disc.mesh, disc.layout, {tag})] = i
        self.fixed = np.flatnonzero(owner >= 0)
        self.coords = disc.layout.dof_coords[self.fixed]
        won = [(tag, np.flatnonzero(owner[self.fixed] == i)) for i, tag in enumerate(ordered)]
        self.by_tag = [(tag, pos) for tag, pos in won if len(pos)]
        self.dirichlet = DirichletSet(disc.pattern, self.fixed) if len(self.fixed) else None
        self.pin = (int(np.argmax(np.abs(disc.ones)))
                    if annihilates_constants and not len(self.fixed) else None)
        self.A = self.full = self.precond = None
        self.last_iterations = 0

    def refill(self, data: np.ndarray):
        self.A = self.full = self.disc.pattern.matrix(data)
        if self.dirichlet is not None:
            self.A = apply_dirichlet(self.full, self.dirichlet)
        if self.precond is None or self.last_iterations > REFACTOR_ITERATIONS:
            self.precond = None         # one factor in memory at a time
            self.precond = factorized(self.A, self.pin)
            self.last_iterations = 0

    def solve(self, b, x0, stats: SolveStats, what: str, atol: float = 0.0) -> np.ndarray:
        """`solve_implicit` to DEFAULT_TOL on the current operator with the
        system's factor; records the CG iterations the refactor rule reads.
        A pinned system keeps the mean of its start x0."""
        before = stats.iterations
        x = solve_implicit(self.A, b, x0, DEFAULT_TOL, None, self.precond, stats, what,
                           atol=atol)
        self.last_iterations = stats.iterations - before
        if self.pin is not None:
            x = x + (self.disc.field_mean(x0) - self.disc.field_mean(x))
        return x

    def values(self, comp: int, t: float) -> np.ndarray:
        """Boundary values of component `comp` on the fixed dofs at time t."""
        vals = np.empty(len(self.fixed))
        for tag, pos in self.by_tag:
            vals[pos] = self.sample(tag, self.coords[pos], t)[comp]
        return vals

    def rhs(self, load: np.ndarray, comp: int, t: float) -> np.ndarray:
        """Right-hand side of the current operator with the fixed dofs set to
        their boundary values."""
        if self.dirichlet is None:
            return load
        return self.dirichlet.rhs(self.full, load, self.values(comp, t))


class InsDriver(_Driver):
    """Projection-method INS stepper on a Discretization."""

    model = InsModel()
    # M + tau nu K follows the CFL-limited tau: refilled in every stage; K
    # never changes, so it is refilled and factored once, here, and its
    # exact factor takes one iteration
    preconditioners = {"viscous": FROZEN_FACTOR,
                       "pressure": "sparse LU of the fixed operator, factored once"}
    atols = {"viscous": "DEFAULT_TOL max(||load_u||, ||load_v||), one scale for both "
                        "components",
             "pressure": "max(1e-13 (1 + ||K p_old|| + ||p_old||), 25 DEFAULT_TOL ||b||): "
                         "the near-stationary skip"}

    def __init__(self, disc: Discretization, bcs: dict, nu: float = 1e-2,
                 body_force=None, scheme: str = "LSDIRK222", cfl: float = 0.9):
        if nu < 0.0:
            raise ModelError("viscosity must be nonnegative")
        super().__init__(disc, bcs, scheme, cfl)
        self.nu = nu
        self.body_force = body_force     # callable t -> (fx, fy), explicit source
        self._viscous = _ConstrainedSystem(
            disc, bcs, self.tags_of_kind("dirichlet", "wall"),
            lambda tag, pts, t: (np.zeros((2, len(pts))) if bcs[tag].kind == "wall"
                                 else bcs[tag].state(pts, t)))
        self._pressure = _ConstrainedSystem(
            disc, bcs, [tag for tag, bc in sorted(bcs.items()) if bc.pressure is not None],
            lambda tag, pts, t: bcs[tag].pressure(pts, t)[None],
            annihilates_constants=True)
        self._pressure.refill(disc.K.data)

    def initial_state(self, velocity_fun, pressure_fun) -> FlowState:
        p_dofs = self.disc.interpolate_dofs(lambda p: pressure_fun(p, 0.0))
        return FlowState(self.disc.cell_means(lambda p: velocity_fun(p, 0.0)[:2]), 0.0,
                         {"p_dofs": p_dofs})

    def stage(self, QE: FlowState, QI: FlowState, tau: float, t: float) -> FlowState:
        disc = self.disc
        nu = self.nu
        _, coeffs_I, _, Fv = self._explicit(QE, QI, tau, t)
        if self.body_force is not None:
            fx, fy = self.body_force(t)
            Fv = Fv + tau * np.array([[fx], [fy]])
        p_dofs = QI.aux["p_dofs"]
        # Helmholtz operator for the provisional velocity (the Dirichlet dof
        # set is geometric and fixed)
        self._viscous.refill(disc.M.data + tau * nu * disc.K.data)
        # loads of f - tau grad p, with f the implicit stage field carrying
        # the explicit cell means Fv
        f_field = coeffs_I.copy()
        f_field[:, :, 0] = Fv
        f_field -= tau * disc.to_taylor(disc.gradient_coeffs(disc.vem_to_fv(p_dofs)))
        loads = [disc.load_from_taylor(f) for f in f_field]
        # one absolute scale for both components so a quiescent component is
        # not iterated down relative to its own roundoff
        atol = DEFAULT_TOL * max(np.linalg.norm(loads[0]), np.linalg.norm(loads[1]))
        vstar = np.empty((2, disc.layout.n_dofs))
        for comp in range(2):
            x0 = QI.aux.get(f"vstar{comp}")
            if x0 is None:
                x0 = disc.fv_to_vem(coeffs_I[comp])
            vstar[comp] = self._viscous.solve(self._viscous.rhs(loads[comp], comp, t), x0,
                                              self.stats, "viscous", atol=atol)
        # pressure projection: K p = K p_old - Div(v*)/tau, from p_old; on a
        # pure-Neumann/periodic box the pinned system keeps p_old's mean
        Kp_old = disc.K.to_scipy() @ p_dofs
        bp = self._pressure.rhs(Kp_old - disc.divergence_load(vstar[0], vstar[1]) / tau, 0, t)
        # near-stationary skip: an increment within 25x of the stopping
        # tolerance is solver-stagnation noise, and so is a residual at the
        # roundoff of the old pressure's scale
        atol = max(1e-13 * (1.0 + np.linalg.norm(Kp_old) + np.linalg.norm(p_dofs)),
                   25.0 * DEFAULT_TOL * np.linalg.norm(bp))
        p_new = self._pressure.solve(bp, p_dofs, self.stats, "pressure", atol=atol)
        # velocity correction from the transferred pressure increment
        dp_coeffs = disc.vem_to_fv(p_new - p_dofs)
        vstar_coeffs = disc.vem_to_fv(vstar)
        grad_dp = disc.gradient_cell_means(dp_coeffs)
        Qn = vstar_coeffs[:, :, 0] - tau * grad_dp
        aux = {"p_dofs": p_new, "vstar0": vstar[0], "vstar1": vstar[1]}
        return FlowState(Qn, t, aux)

    def max_conv_eig(self, state: FlowState) -> np.ndarray:
        return _cell_edge_eig(self.disc, self.model, state.Q)

    def compute_dt(self, state: FlowState) -> float:
        conv = self.max_conv_eig(state)
        full = None
        if self.nu > 0.0:
            full = conv + 2.0 * self.nu / self.disc.geom.h
        return compute_dt(self.disc.geom.h, conv, self.cfl, full)


def solve_implicit(A: SparseMatrix, b: np.ndarray, x0, tol, restart, precond,
                   stats: SolveStats, what: str, atol: float = 0.0) -> np.ndarray:
    """Preconditioned CG (`linalg.pcg`, which starts from zero) in increment
    form: the one warm start of every implicit solve.

    Solves A d = b - A x0 to the tolerance that guarantees the ORIGINAL
    stopping criterion ||b - A x|| <= max(tol * ||b||, atol); when the warm
    start already satisfies it the solve is skipped, and recorded in `stats`
    as a solve of 0 iterations.  `atol` carries the problem scale so
    degenerate (roundoff-level) right-hand sides are not ground down
    relative to themselves.  Plateaus within 100x of the tolerance are
    accepted (double-precision conditioning floor) and show in the
    statistics.

    `precond` is a callable r -> M^{-1} r, such as the `linalg.factorized`
    operator a `_ConstrainedSystem` keeps; anything else (None, or the True
    the benchmark's own tests pass) runs CG unpreconditioned.  `restart` is
    ignored: the slot keeps the positional order in which the benchmark's
    solve monitor calls.
    """
    x0 = np.zeros(A.shape[0]) if x0 is None else np.asarray(x0, dtype=float)
    r0 = b - A.to_scipy() @ x0
    nb = float(np.linalg.norm(b))
    nr0 = float(np.linalg.norm(r0))
    target = max(tol * nb, atol)
    if nb == 0.0 and atol == 0.0:
        target = tol * nr0
    if nr0 <= target or nr0 == 0.0:
        stats.add(SolverReport(0, 0.0 if nb == 0 else nr0 / nb, True))
        return x0
    tol_eff = min(target / nr0, 0.5)
    d, rep = pcg(A, r0, precond if callable(precond) else None, tol=tol_eff,
                 maxiter=20_000)
    achieved = rep.residual * nr0
    if not rep.converged and achieved > 100.0 * target:
        raise ModelError(f"{what} solve failed to converge "
                         f"(residual {achieved / max(nb, 1e-300):.2e})")
    stats.add(SolverReport(rep.iterations, achieved / max(nb, achieved), rep.converged))
    return x0 + d


def _cell_edge_eig(disc: Discretization, model, Qfull: np.ndarray) -> np.ndarray:
    """Per-cell max convective eigenvalue over the cell's edge normals."""
    mesh, geom = disc.mesh, disc.geom
    L, R = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    n = geom.edge_normal
    lamL = model.max_eig(Qfull[:, L], n)
    inte = disc.fvops.interior
    out = np.zeros(mesh.n_cells)
    np.maximum.at(out, L, lamL)
    lamR = model.max_eig(Qfull[:, R[inte]], n[inte])
    np.maximum.at(out, R[inte], lamR)
    return out


def evaluate_bathymetry(disc: Discretization, b_fun) -> tuple[np.ndarray, np.ndarray]:
    """Sample an analytic bathymetry into FV (Taylor coeffs) and VEM (dofs).

    The projection uses an over-resolved quadrature: the bottom is sampled
    once and its cell means feed conservation-sensitive balances.
    """
    coeffs = disc.project_field(b_fun, degree=2 * disc.k + 8)
    dofs = disc.interpolate_dofs(b_fun)
    return coeffs, dofs
