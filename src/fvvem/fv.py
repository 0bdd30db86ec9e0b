"""Explicit finite-volume machinery on polygonal meshes.

Conservative Taylor modal basis, CWENO reconstruction, Rusanov fluxes and the
explicit convective operator.  Everything that depends only on the mesh is
precomputed once in FvOperators and reused across stages.  The set-up works
on stacked arrays, with no Python loop per cell: Taylor corrections per
vertex-count group of cells, edge basis tables over all edges at once, the
CWENO stencils of every cell from one table of neighbour arcs (a
breadth-first search advanced one layer at a time for all cells, and a join
on shared vertices for the sectors), and the least-squares stencil fits over
all (cell, member, shift) triples, with one pseudo-inverse per stencil size
(each row a binomial transform of the member's own monomial means, with no
quadrature per member).
Each stencil kind, central and sector, is one stack zero-padded to its
widest stencil, with its fit and residual factors stacked into one operator,
so a reconstruction makes one batched product per kind on cell-major
(stencil, member, component) differences.
Per-stage work is batched numpy over cells and edges.  Every signed
edge-to-cell sum goes through `FvOperators.edge_sum`, whose incidence matrix
is the mesh's signed cell loops as CSR; ghost states are set per boundary tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_legendre

from .mesh import GeometryCache, PolyMesh, polygon_quadrature
from .vem import MonomialBasis, multi_indices, n_poly


class FvError(Exception):
    """Reconstruction failure or inadmissible state."""


# CWENO constants: the central stencil grows to max(GROWTH * nk, nk + 2)
# cells; LAMBDA_* are the linear weights of the central and the sector
# polynomials, EPS and POWER shape the nonlinear weights
GROWTH = 1.5
LAMBDA_CENTRAL = 1e5
LAMBDA_SECTOR = 1.0
EPS = 1e-14
POWER = 4


class TaylorBasis:
    """Conservative Taylor basis: scaled monomials minus their cell means.

    beta_1 = 1; for l >= 2, beta_l = m_l - mean(m_l), so the cell average of
    any expansion equals its first coefficient.  The means (`corrections`)
    of each vertex-count group come from one monomial evaluation on the
    stacked degree-k fan rules of its cells, which are exact for them.
    """

    def __init__(self, mesh: PolyMesh, geom: GeometryCache, k: int):
        self.k = k
        self.nk = n_poly(k)
        self.mesh = mesh
        self.geom = geom
        self.corrections = np.zeros((mesh.n_cells, self.nk))
        for idx in mesh.vertex_count_groups:
            rule = polygon_quadrature(mesh.cell_coords(idx), geom.barycenter[idx], k)
            vals = self.cell_basis(idx).values(rule.nodes)
            means = (rule.weights[:, None, :] @ vals)[:, 0] / geom.area[idx, None]
            self.corrections[idx, 1:] = means[:, 1:]

    def cell_basis(self, cells) -> MonomialBasis:
        """Monomial basis of one cell, or the stacked basis of an id array."""
        return MonomialBasis(self.k, self.geom.barycenter[cells], self.geom.h[cells])

    def values(self, cells, pts: np.ndarray, shift=None) -> np.ndarray:
        """Taylor basis values: (npts, nk) for one cell id and (npts, 2)
        points, (g, npts, nk) for g ids and (g, npts, 2) points.  `shift`
        maps the points into the cells' frames."""
        pts = np.atleast_2d(pts)
        if shift is not None:
            pts = pts + shift
        return self.cell_basis(cells).values(pts) - self.corrections[cells][..., None, :]


def rusanov_flux(wL, wR, n, model):
    """Rusanov flux for the model's explicit subsystem.

    F = (F_E(wL) + F_E(wR)) . n / 2 - |s_max| (wR - wL) / 2, with s_max the
    largest convective eigenvalue over the two states and the dissipation
    applied to the explicitly convected components only.
    """
    wL = np.asarray(wL, dtype=float)
    wR = np.asarray(wR, dtype=float)
    if not (np.all(np.isfinite(wL)) and np.all(np.isfinite(wR))):
        raise FvError("non-finite state in flux evaluation")
    FL = model.explicit_flux_normal(wL, n)
    FR = model.explicit_flux_normal(wR, n)
    smax = np.maximum(model.max_eig(wL, n), model.max_eig(wR, n))
    jump = wR[model.momentum] - wL[model.momentum]
    return 0.5 * (FL + FR) - 0.5 * smax * jump


# ---------------------------------------------------------------------------
# precomputed mesh operators
# ---------------------------------------------------------------------------

@dataclass
class _StencilGroup:
    """Least-squares fits of the stencils of one kind, zero-padded to a
    common width; padded members repeat the first member and get zero
    weights.  `op` stacks, per stencil, the pseudo-inverse P (ncols rows)
    over the residual factor A P - I (nst rows), so that one product with
    the member differences gives the fit and its residual."""

    cells: np.ndarray        # (n,) owner cell of each stencil
    members: np.ndarray      # (n, nst) stencil member cell ids
    op: np.ndarray           # (n, ncols + nst, nst)

    def apply(self, Qt: np.ndarray) -> np.ndarray:
        """(n, ncols + nst, ncomp) fits over residuals of cell-major data
        Qt (ncell, ncomp): one product of `op` with the member values less
        the owner's, both gathered by rows."""
        owner = np.broadcast_to(self.cells[:, None], self.members.shape)
        return self.op @ (np.take(Qt, self.members, axis=0) - np.take(Qt, owner, axis=0))


class _Arcs(NamedTuple):
    """Neighbour arcs src -> dst: a point x of src is x + shift in dst's
    frame; the arcs of cell c are ptr[c]:ptr[c + 1]."""

    src: np.ndarray
    dst: np.ndarray
    shift: np.ndarray
    ptr: np.ndarray


def _expand(ptr: np.ndarray, rows: np.ndarray):
    """Expand a CSR row pointer: for each entry r of `rows` in turn, the
    positions ptr[r] .. ptr[r + 1] - 1.  Returns (index into rows, position)
    for every expanded entry."""
    count = ptr[rows + 1] - ptr[rows]
    at = np.repeat(np.arange(len(rows)), count)
    return at, ptr[rows][at] + np.arange(len(at)) - (np.cumsum(count) - count)[at]


def _first_of_each_key(*keys) -> np.ndarray:
    """Ascending indices of the first row of each distinct key tuple; keys
    are given most significant first."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    return np.sort(order[new])


class FvOperators:
    """Per-mesh tables: stencil fits, edge basis values and flux scatter maps.

    The central and sector stencils of all cells are built as arrays from
    one table of neighbour arcs, with no Python loop per cell.  `central`
    holds one stencil per cell in cell order, `sector` one per neighbour arc
    (ordered by stencil size), and `_scatter` sums the sectors of each cell.
    Orders k = 1..4 (the VEM orders)."""

    def __init__(self, mesh: PolyMesh, geom: GeometryCache, k: int):
        self.mesh = mesh
        self.geom = geom
        self.k = k
        self.nk = n_poly(k)
        self.taylor = TaylorBasis(mesh, geom, k)
        self._edge_tables()
        arcs = self._arcs()
        self._central_stencils(arcs)
        self._sector_stencils(arcs)

    # -- connectivity -------------------------------------------------------

    def _arcs(self) -> _Arcs:
        """Both directions of every interior edge, grouped by source cell;
        within a cell in edge order, a left-to-right arc before its reverse."""
        inte = self.interior
        L, R = self.mesh.edge_cells[inte].T
        s = self.mesh.edge_shift[inte]
        src = np.column_stack([L, R]).ravel()
        order = np.argsort(src, kind="stable")
        dst = np.column_stack([R, L]).ravel()[order]
        shift = np.stack([s, -s], axis=1).reshape(-1, 2)[order]
        src = src[order]
        return _Arcs(src, dst, shift, np.searchsorted(src, np.arange(self.mesh.n_cells + 1)))

    # -- edge quadrature and basis tables ------------------------------------

    def _edge_tables(self):
        mesh, geom, k = self.mesh, self.geom, self.k
        ng = k + 1
        t, w = roots_legendre(ng)
        self.edge_gauss_nodes = t                                 # (ng,) on [-1, 1]
        va = mesh.edge_coords[:, 0, :]
        vb = mesh.edge_coords[:, 1, :]
        pts = va[:, None, :] + 0.5 * (t[None, :, None] + 1.0) * (vb - va)[:, None, :]
        self.edge_points = pts                                    # (NE, ng, 2)
        self.edge_weights = 0.5 * geom.edge_length[:, None] * w[None, :]
        self.interior = np.where(mesh.edge_cells[:, 1] >= 0)[0]
        L, R = mesh.edge_cells.T
        inte = self.interior
        self.basis_L = self.taylor.values(L, pts)                 # (NE, ng, nk)
        self.basis_R = np.zeros_like(self.basis_L)
        self.basis_R[inte] = self.taylor.values(R[inte], pts[inte],
                                                shift=mesh.edge_shift[inte, None, :])
        # the mesh's signed loops in CSR form; a sorted copy keeps their order
        self._edge_incidence = sp.csr_matrix(
            (mesh.loop_signs.astype(float), mesh.loop_edges, mesh.cell_ptr),
            shape=(mesh.n_cells, mesh.n_edges)).sorted_indices()

    # -- stencil fits ---------------------------------------------------------

    def _fit_rows(self, owner: np.ndarray, members: np.ndarray,
                  shifts: np.ndarray, ncols: int) -> np.ndarray:
        """LSQ rows (n, ncols): the mean over cell members[i], moved by
        -shifts[i] into owner[i]'s frame, of owner[i]'s Taylor basis l = 2..ncols+1.

        No quadrature: with r = h_m / h_o and e = (x_m - shift - x_o) / h_o,
        the owner's monomial (a, b) is (r xi + e_x)^a (r eta + e_y)^b in the
        member's scaled coordinates, so its mean is the sum over i <= a, j <= b
        of C(a, i) C(b, j) r^(i+j) e_x^(a-i) e_y^(b-j) mu_ij, the member's own
        monomial means (its Taylor corrections, mu_00 = 1)."""
        k, geom, corr = self.k, self.geom, self.taylor.corrections
        e = (geom.barycenter[members] - shifts - geom.barycenter[owner]) / geom.h[owner, None]
        pw = [np.ones((3, len(members))), np.vstack([geom.h[members] / geom.h[owner], e.T])]
        for _ in range(k - 1):                           # powers of r, e_x, e_y
            pw.append(pw[-1] * pw[1])
        mu = corr[members].T
        mu[0] = 1.0
        rows = np.zeros((ncols, len(members)))
        indices = multi_indices(k)
        for l, (a, b) in enumerate(indices[1:ncols + 1]):
            for m, (i, j) in enumerate(indices):
                if i <= a and j <= b:
                    rows[l] += (comb(a, i) * comb(b, j) * pw[i + j][0] * pw[a - i][1]
                                * pw[b - j][2] * mu[m])
        return rows.T - corr[owner, 1:ncols + 1]

    def _fit(self, cells, sizes, members, shifts, ncols: int) -> _StencilGroup:
        """Fit each stencil, sizes[i] consecutive (member, shift) entries of
        the flat arrays owned by cells[i], to the first `ncols` non-constant
        Taylor functions; one pseudo-inverse runs on the stack of each
        stencil size, each matrix with its own rcond cutoff."""
        rows = self._fit_rows(np.repeat(cells, sizes), members, shifts, ncols)
        start = np.cumsum(sizes) - sizes
        n, width = len(cells), sizes.max()
        padded = np.empty((n, width), dtype=np.int64)
        op = np.zeros((n, ncols + width, width))
        for m in np.unique(sizes):
            sel = np.flatnonzero(sizes == m)
            ids = start[sel, None] + np.arange(m)
            A = rows[ids]
            P = np.linalg.pinv(A, rcond=1e-10)
            op[sel, :ncols, :m] = P
            op[sel, ncols:ncols + m, :m] = A @ P - np.eye(m)
            padded[sel, :m] = members[ids]
            padded[sel, m:] = members[ids[:, :1]]
        return _StencilGroup(np.asarray(cells), padded, op)

    def _central_stencils(self, arcs: _Arcs):
        """Breadth-first (cell, shift) stencils of every cell at once, whole
        layers.  A layer keeps the first visit of each (cell, shift rounded
        to 1e-9) that its owner has not seen, ordered by (cell, shift); an
        owner stops growing once it and its stencil reach the target size."""
        target = max(int(np.ceil(GROWTH * self.nk)), self.nk + 2)
        nc = self.mesh.n_cells
        owner = cell = np.arange(nc)
        shift = np.zeros((nc, 2))
        seen = [(owner, cell, shift)]
        count = np.zeros(nc, dtype=np.int64)
        while len(owner):
            live = count[owner] + 1 < target
            pos, arc = _expand(arcs.ptr, cell[live])
            owner = owner[live][pos]
            cell = arcs.dst[arc]
            shift = shift[live][pos] + arcs.shift[arc]
            o, c, sh = (np.concatenate(a) for a in zip(*seen, (owner, cell, shift)))
            r = np.round(sh, 9)
            new = _first_of_each_key(o, c, r[:, 0], r[:, 1]) - (len(o) - len(owner))
            new = new[new >= 0]
            new = new[np.lexsort((shift[new, 1], shift[new, 0], cell[new], owner[new]))]
            owner, cell, shift = owner[new], cell[new], shift[new]
            seen.append((owner, cell, shift))
            count += np.bincount(owner, minlength=nc)
        owner, cell, shift = (np.concatenate(a) for a in zip(*seen[1:]))
        order = np.argsort(owner, kind="stable")
        small = np.flatnonzero(count < self.nk - 1)
        if len(small):
            ci = small[0]
            raise FvError(f"cell {ci}: stencil of {count[ci]} cells cannot "
                          f"determine a degree-{self.k} polynomial")
        self.central = self._fit(np.arange(nc), count, cell[order], shift[order], self.nk - 1)

    def _sector_stencils(self, arcs: _Arcs):
        """One stencil per arc ci -> nb: the neighbour, then every other cell
        at a vertex that ci and nb share (vertices ascending, cells
        ascending, the first of each (cell, shift rounded to 1e-9)), shifted
        by p(cj, v) - p(ci, v) at the cells' first incidences of v; a sector
        that finds none takes nb's first neighbour by id other than ci and
        nb.  Sectors of a cell are ordered by (nb, shift)."""
        mesh = self.mesh
        nc, nv = mesh.n_cells, mesh.n_vertices
        sec = np.lexsort((arcs.shift[:, 1], arcs.shift[:, 0], arcs.dst, arcs.src))
        ci, nb, s = arcs.src[sec], arcs.dst[sec], arcs.shift[sec]
        # the first incidence of each (cell, vertex) pair, by cell then by vertex
        inc_cell = np.repeat(np.arange(nc), mesh.cell_sizes)
        cv_key, first = np.unique(inc_cell * nv + mesh.loop_vertices, return_index=True)
        cv_cell, cv_vert = np.divmod(cv_key, nv)
        cv_pt = mesh.loop_coords[first]
        by_vert = np.lexsort((cv_cell, cv_vert))
        # the vertices of ci that nb shares, then every cell at each of them
        pos, inc = _expand(np.searchsorted(cv_cell, np.arange(nc + 1)), ci)
        want = nb[pos] * nv + cv_vert[inc]
        hit = np.minimum(np.searchsorted(cv_key, want), len(cv_key) - 1)
        shared = cv_key[hit] == want
        pos, inc = pos[shared], inc[shared]
        at, j = _expand(np.searchsorted(cv_vert[by_vert], np.arange(nv + 1)), cv_vert[inc])
        j = by_vert[j]
        cand_sec, cand_cell = pos[at], cv_cell[j]
        cand_shift = cv_pt[j] - cv_pt[inc[at]]
        other = (cand_cell != ci[cand_sec]) & (cand_cell != nb[cand_sec])
        cand_sec, cand_cell, cand_shift = cand_sec[other], cand_cell[other], cand_shift[other]
        r = np.round(cand_shift, 9)
        keep = _first_of_each_key(cand_sec, cand_cell, r[:, 0], r[:, 1])
        cand_sec, cand_cell, cand_shift = cand_sec[keep], cand_cell[keep], cand_shift[keep]
        # second-neighbour fallback: arcs of nb by neighbour id, edge order on ties
        lone = np.flatnonzero(np.bincount(cand_sec, minlength=len(sec)) == 0)
        by_dst = np.lexsort((arcs.dst, arcs.src))
        at, a = _expand(arcs.ptr, nb[lone])
        a = by_dst[a]
        ok = (arcs.dst[a] != ci[lone[at]]) & (arcs.dst[a] != nb[lone[at]])
        at, a = at[ok], a[ok]
        _, pick = np.unique(at, return_index=True)
        fb_sec = lone[at[pick]]
        a = a[pick]
        # members: the neighbour, the vertex-sharing cells, the fallback
        m_sec = np.concatenate([np.arange(len(sec)), cand_sec, fb_sec])
        m_cell = np.concatenate([nb, cand_cell, arcs.dst[a]])
        m_shift = np.concatenate([s, cand_shift, s[fb_sec] + arcs.shift[a]])
        sizes = np.bincount(m_sec, minlength=len(sec))
        # ordered by stencil size, cell order within a size
        by_size = np.argsort(sizes, kind="stable")
        order = np.argsort(np.argsort(by_size)[m_sec], kind="stable")
        self.sector = self._fit(ci[by_size], sizes[by_size], m_cell[order], m_shift[order], 2)
        # sums over the sectors of each owner cell
        self._scatter = sp.csr_matrix((np.ones(len(sec)), (self.sector.cells,
                                                           np.arange(len(sec)))),
                                      shape=(nc, len(sec)))

    # -- reconstruction -------------------------------------------------------

    def reconstruct(self, Qbar: np.ndarray) -> np.ndarray:
        """CWENO modal coefficients (ncomp, ncell, nk) from cell averages
        (ncomp, ncell), or (ncell,) for one component.

        Exact on globally polynomial data of degree <= k; conservative by
        construction: the first coefficient is the cell average itself, not
        a sum with weights that add up to one only to roundoff.  The member
        differences of each stencil kind are gathered cell-major, as
        (stencils, nst, ncomp), and one product with the kind's stacked
        operator gives the fits and their residuals; the smoothness
        indicators, weights and sector sums run on (cells, ., ncomp) arrays.
        """
        Qt = np.ascontiguousarray(np.atleast_2d(Qbar).T)                    # (nc, ncomp)
        nc, ncomp = Qt.shape
        ncols = self.nk - 1
        central, sector = self.central, self.sector
        # fits over residuals: one central stencil per cell, in cell order;
        # a sector's smoothness indicator sums its slopes and its residual,
        # every row of its product
        fit = central.apply(Qt)                                             # (nc, ncols + nst, ncomp)
        sfit = sector.apply(Qt)                                             # (np, 2 + nst, ncomp)
        r = fit[:, ncols:]
        alpha0 = LAMBDA_CENTRAL / (EPS + np.einsum("nic,nic->nc", r, r)) ** POWER
        alpha = LAMBDA_SECTOR / (EPS + np.einsum("nic,nic->nc", sfit, sfit)) ** POWER
        denom = alpha0 + self._scatter @ alpha
        w0 = alpha0 / denom
        w = alpha / denom[sector.cells]                                      # (np, ncomp)
        coeffs = np.empty((nc, self.nk, ncomp))
        coeffs[:, 0] = Qt                                                   # the cell mean
        coeffs[:, 1:] = fit[:, :ncols] * w0[:, None]
        # each sector's slopes, weighted, summed into its owner
        contrib = sfit[:, :2] * w[:, None]
        coeffs[:, 1:3] += (self._scatter @ contrib.reshape(len(w), -1)).reshape(nc, 2, ncomp)
        return np.ascontiguousarray(coeffs.transpose(2, 0, 1))

    def edge_states(self, coeffs: np.ndarray):
        """wL, wR (ncomp, NE, ng) at the edge Gauss points of per-cell Taylor
        coefficients (ncomp, ncell, nk); wR on boundary edges is filled with
        wL (callers overwrite it from boundary data).  One einsum per
        component: a batched matmul makes one BLAS call per edge."""
        L, R = self.mesh.edge_cells.T
        inte = self.interior
        basis_R, R = self.basis_R[inte], R[inte]
        wL = np.empty((len(coeffs),) + self.basis_L.shape[:2])
        wR = np.empty_like(wL)
        for c, comp in enumerate(coeffs):
            wL[c] = np.einsum("egl,el->eg", self.basis_L, comp[L])
            wR[c] = wL[c]
            wR[c, inte] = np.einsum("egl,el->eg", basis_R, comp[R])
        return wL, wR

    def edge_sum(self, values: np.ndarray) -> np.ndarray:
        """(..., ncell) sums over each cell's edges of the integrals of
        `values` (..., NE, ng), given at the edge Gauss points, signed + for
        the edge's left cell and - for its right one."""
        edge_int = np.einsum("...eg,eg->...e", values, self.edge_weights)
        return (self._edge_incidence @ edge_int.T).T


def explicit_operator(ops: FvOperators, model, coeffs_E: np.ndarray,
                      Qbar_I: np.ndarray, dt: float, t: float,
                      boundary_state) -> np.ndarray:
    """F_Q = Q_I - (dt/|P|) * sum of Rusanov edge fluxes of the explicit system.

    coeffs_E: reconstruction of the explicitly differenced state.
    boundary_state(tag, pts, normals, wL, t) -> exterior trace at edge points.
    Conservative: interior fluxes are evaluated once and scattered with signs.
    """
    if dt <= 0.0:
        raise FvError("explicit operator requires dt > 0")
    mesh, geom = ops.mesh, ops.geom
    wL, wR = ops.edge_states(coeffs_E)
    for tag, edges in mesh.boundary_tags.items():
        pts = ops.edge_points[edges].reshape(-1, 2)
        nrm = np.repeat(ops.geom.edge_normal[edges], ops.edge_points.shape[1], axis=0)
        ext = boundary_state(tag, pts,
                             nrm, wL[:, edges].reshape(wL.shape[0], -1), t)
        wR[:, edges] = ext.reshape(wL.shape[0], len(edges), -1)
    # normals broadcast against the (NE, ng) point layout
    flux = rusanov_flux(wL, wR, geom.edge_normal[:, None, :], model)   # (nexp, NE, ng)
    return Qbar_I[model.momentum] - dt / geom.area[None, :] * ops.edge_sum(flux)

