"""Conforming virtual element space of order k on polygons.

Projector matrices (D, G, B, H, C, E, Pi-nabla, Pi0), stabilized mass and
stiffness operators, the global dof numbering (each cell's dofs stored flat
behind one offset array, as the mesh stores its loops), the assembly pattern
(the CSR pattern of a gather of dense per-cell blocks, square or rectangular,
with the scatter of the blocks into it: every global operator of the
Discretization in models.py goes through one) and the Dirichlet dofs of
tagged boundaries (rows of `VemDofLayout.edge_trace_dofs` on tagged edges).
Orders k = 1..4 are supported.  Elements are built per group of cells with
equal vertex count: every element array is stacked along a leading cell
axis, so that one batched product or solve serves the whole group.  All
element quantities are computed in each cell's own coordinate frame with the
scaled monomial basis centred at its barycenter.  A group's one cell rule is
the degree-(2k + 2) fan rule: H comes from it, G from H through the
derivative maps (Dx H Dx^T + Dy H Dy^T), and B and E from the monomial
values at the sides' Gauss-Lobatto nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import SparseMatrix
from .mesh import (GeometryCache, PolyMesh, gauss_lobatto_reference, polygon_quadrature,
                   ragged_rows)

MAX_ORDER = 4


class VemError(Exception):
    """Degenerate element or unsupported configuration."""


def n_poly(k: int) -> int:
    """Dimension of the 2D polynomial space of degree <= k."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


def multi_indices(k: int) -> list[tuple[int, int]]:
    """Graded ordering 1, x, y, x^2, xy, y^2, ..."""
    out = []
    for d in range(k + 1):
        for a in range(d, -1, -1):
            out.append((a, d - a))
    return out


@functools.cache
def derivative_table(k: int) -> np.ndarray:
    """(2, n, n) maps of the scaled monomials of degree <= k at h = 1:
    d m_alpha/dx = sum_beta D[0, alpha, beta] m_beta, and D[1] for d/dy.
    Memoized: every call with one order returns the same read-only array."""
    indices = multi_indices(k)
    pos = {idx: i for i, idx in enumerate(indices)}
    D = np.zeros((2, len(indices), len(indices)))
    for i, (a, b) in enumerate(indices):
        if a > 0:
            D[0, i, pos[(a - 1, b)]] = a
        if b > 0:
            D[1, i, pos[(a, b - 1)]] = b
    D.flags.writeable = False
    return D


class MonomialBasis:
    """Scaled monomials ((x - xc)/h)^kappa up to total degree k.

    One cell (center (2,), scalar h; points (npts, 2)) or a stack of cells
    (centers (g, 2), sizes (g,); points (g, npts, 2)).  Values and maps carry
    the same leading axes; every map is the h = 1 `derivative_table` over
    powers of h.
    """

    def __init__(self, k: int, center: np.ndarray, h):
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.indices = multi_indices(k)
        self.n = len(self.indices)

    def values(self, pts: np.ndarray) -> np.ndarray:
        """(..., npts, n) monomial values."""
        pts = np.atleast_2d(pts)
        xi = (pts[..., 0] - self.center[..., None, 0]) / self.h[..., None]
        et = (pts[..., 1] - self.center[..., None, 1]) / self.h[..., None]
        pow_x = [np.ones_like(xi)]
        pow_y = [np.ones_like(et)]
        for d in range(1, self.k + 1):
            pow_x.append(pow_x[-1] * xi)
            pow_y.append(pow_y[-1] * et)
        return np.stack([pow_x[a] * pow_y[b] for a, b in self.indices], axis=-1)

    def laplacian_coeffs(self) -> np.ndarray:
        """(..., n, n) map L with Delta m_alpha = sum_beta L[alpha, beta] m_beta."""
        Dx, Dy = derivative_table(self.k)
        return (Dx @ Dx + Dy @ Dy) / (self.h ** 2)[..., None, None]

    def derivative_coeffs(self, axis: int) -> np.ndarray:
        """(..., n, n) map Dx with d m_alpha/dx = sum_beta Dx[alpha, beta] m_beta."""
        return derivative_table(self.k)[axis] / self.h[..., None, None]


# ---------------------------------------------------------------------------
# dof layout
# ---------------------------------------------------------------------------

@dataclass
class VemDofLayout:
    """Global numbering: vertex v's dof is v, then (k-1) dofs per edge, then
    n_{k-2} moments per cell.

    Row e of edge_trace_dofs is edge e's dofs: its first vertex, k - 1
    interior dofs along the edge, its second vertex; cells traversing an edge
    backwards see them reversed.  Moments are scaled by 1/|P| so the first
    moment dof of a function is its cell mean.  Cell c's
    dofs are dof_ids[dof_ptr[c]:dof_ptr[c + 1]]: its vertex dofs and the k - 1
    interior dofs of each side, both in loop order, then its moments.
    """

    k: int
    n_dofs: int
    dof_ptr: np.ndarray      # (NP + 1,) offsets into dof_ids
    dof_ids: np.ndarray      # (sum of N_dof,) global ids, cell after cell
    dof_coords: np.ndarray   # (n_dofs, 2); moment dofs carry the barycenter
    edge_trace_dofs: np.ndarray  # (NE, k+1) global ids, first vertex to second
    moment_base: int

    def cell_dofs(self, cells) -> np.ndarray:
        """(N_dof,) dofs of one cell, (g, N_dof) of cells of one vertex count."""
        return ragged_rows(self.dof_ptr, self.dof_ids, cells)


def build_dof_layout(mesh: PolyMesh, geom: GeometryCache, k: int) -> VemDofLayout:
    """Number the degrees of freedom of the order-k space over the mesh."""
    if not 1 <= k <= MAX_ORDER:
        raise VemError(f"order k={k} outside the supported range 1..{MAX_ORDER}")
    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    nkm2 = n_poly(k - 2)
    edge_trace_dofs = np.column_stack([mesh.edges[:, 0],
                                       nv + np.arange(ne * (k - 1)).reshape(ne, k - 1),
                                       mesh.edges[:, 1]])
    moment_base = nv + ne * (k - 1)
    n_dofs = moment_base + nc * nkm2
    coords = np.zeros((n_dofs, 2))
    coords[:nv] = mesh.vertices
    t_int = gauss_lobatto_reference(k)[0][1:-1]
    va, vb = mesh.edge_coords[:, :1], mesh.edge_coords[:, 1:]
    coords[edge_trace_dofs[:, 1:-1]] = va + (0.5 * (t_int + 1.0))[:, None] * (vb - va)
    coords[moment_base:] = np.repeat(geom.barycenter, nkm2, axis=0)
    # corner a of a cell with n corners: its vertex dof at a, the interior
    # dofs of side a (reversed in the edge's right cell) at n + a (k - 1)
    sizes = mesh.cell_sizes
    dof_ptr = np.concatenate([[0], np.cumsum(sizes * k + nkm2)])
    cell = np.repeat(np.arange(nc), sizes)
    corner = np.arange(len(cell)) - mesh.cell_ptr[cell]
    at = dof_ptr[cell] + corner
    dof_ids = np.empty(dof_ptr[-1], dtype=np.int64)
    dof_ids[at] = mesh.loop_vertices
    side = edge_trace_dofs[mesh.loop_edges, 1:-1]
    side = np.where(mesh.loop_signs[:, None] > 0, side, side[:, ::-1])
    dof_ids[(at + sizes[cell] + corner * (k - 2))[:, None] + np.arange(k - 1)] = side
    dof_ids[(dof_ptr[1:] - nkm2)[:, None] + np.arange(nkm2)] = (
        moment_base + np.arange(nc * nkm2).reshape(nc, nkm2))
    return VemDofLayout(k, n_dofs, dof_ptr, dof_ids, coords, edge_trace_dofs, moment_base)


# ---------------------------------------------------------------------------
# element matrices
# ---------------------------------------------------------------------------

@dataclass
class ElementVem:
    """The VEM operators of a group of cells with equal vertex count, at order k.

    Every array is stacked along a leading axis over `cells` (the shapes below
    are those of one cell); `basis` is the stacked monomial basis and `area`
    the (g,) cell areas.
    """

    k: int
    cells: np.ndarray        # (g,) cell ids
    basis: MonomialBasis
    area: np.ndarray         # (g,)
    qnodes: np.ndarray       # (nq, 2) the degree-(2k + 2) cell rule's nodes
    qw: np.ndarray           # (nq,) and weights
    qmono: np.ndarray        # (nq, n_k) monomial values at the nodes
    D: np.ndarray            # (N_dof, n_k) dofs of monomials
    G: np.ndarray            # (n_k, n_k)
    B: np.ndarray            # (n_k, N_dof)
    H: np.ndarray            # (n_k, n_k) monomial Gram matrix
    C: np.ndarray            # (n_k, N_dof)
    pis_nabla: np.ndarray    # (n_k, N_dof)   Pi*nabla
    pis_0: np.ndarray        # (n_k, N_dof)   Pi*0_k
    pis_0grad: np.ndarray    # (2, n_{k-1}, N_dof) projected x- and y-derivatives
    mass: np.ndarray         # (N_dof, N_dof) stabilized M^h
    stiffness: np.ndarray    # (N_dof, N_dof) stabilized K^h
    stab_nabla: np.ndarray   # (N_dof, N_dof) (I - Pi_nabla)^T (I - Pi_nabla)


def solve_cells(A: np.ndarray, B: np.ndarray, cells, error, what: str) -> np.ndarray:
    """Stacked dense solve; a singular matrix raises `error` naming its cell.

    A stacked np.linalg.solve fails as a whole, so on failure the matrices are
    tried one by one to find the first singular one.
    """
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        for Ai, Bi, ci in zip(A, B, cells):
            try:
                np.linalg.solve(Ai, Bi)
            except np.linalg.LinAlgError as exc:
                raise error(f"cell {ci}: singular {what}") from exc
        raise


def _fold_sides(vals: np.ndarray) -> np.ndarray:
    """(g, nv, k+1, m) values at the Gauss-Lobatto nodes of each side ->
    (g, nv*k, m) sums over the boundary dofs: vertex a gathers node 0 of
    side a and node k of side a-1; interior nodes are their own dofs."""
    g, nv, kp1, m = vals.shape
    out = np.empty((g, nv * (kp1 - 1), m))
    out[:, :nv] = vals[:, :, 0] + np.roll(vals[:, :, -1], 1, axis=1)
    out[:, nv:] = vals[:, :, 1:-1].reshape(g, -1, m)
    return out


def build_element(mesh: PolyMesh, geom: GeometryCache, cells, k: int) -> ElementVem:
    """Construct every projector and stabilized matrix of a group of cells.

    `cells` is an array of ids of cells with equal vertex count; every array
    is stacked over it.
    """
    if not 1 <= k <= MAX_ORDER:
        raise VemError(f"order k={k} outside the supported range 1..{MAX_ORDER}")
    pts = mesh.cell_coords(cells)                           # (g, nv, 2)
    g, nv = pts.shape[:2]
    area = geom.area[cells]
    xc = geom.barycenter[cells]
    basis = MonomialBasis(k, xc, geom.h[cells])
    nk = basis.n
    nkm1, nkm2 = n_poly(k - 1), n_poly(k - 2)
    nb = nv * k                                             # boundary dofs
    ndof = nb + nkm2
    ar = area[:, None, None]

    # the one cell rule; 2k + 2 is exact for models._Group's triple products
    rule = polygon_quadrature(pts, xc, 2 * k + 2)
    qm = basis.values(rule.nodes)                           # (g, nq, nk)
    H = qm.transpose(0, 2, 1) @ (qm * rule.weights[..., None])

    # Gauss-Lobatto nodes per side; node 0 / node k are the side's endpoints
    tgl, wgl = gauss_lobatto_reference(k)
    side = np.roll(pts, -1, axis=1) - pts
    gl = pts[:, :, None, :] + 0.5 * (tgl[:, None] + 1.0) * side[:, :, None, :]
    side_len = np.hypot(side[..., 0], side[..., 1])                      # (g, nv)
    # outward normal of side a (CCW polygon: tangent rotated by -90 degrees)
    tangents = side / side_len[..., None]
    normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
    wside = 0.5 * side_len[..., None] * wgl                              # (g, nv, k+1)
    mgl = basis.values(gl.reshape(g, -1, 2)).reshape(g, nv, k + 1, nk)

    # D: dofs of the monomials
    D = np.zeros((g, ndof, nk))
    D[:, :nv] = mgl[:, :, 0]
    D[:, nv:nb] = mgl[:, :, 1:k].reshape(g, -1, nk)
    if nkm2:
        D[:, nb:] = H[:, :nkm2] / ar

    # G: P0 row plus the gradient Gram rows, Dx H Dx^T + Dy H Dy^T
    Dx, Dy = basis.derivative_coeffs(0), basis.derivative_coeffs(1)
    G = sum(Da @ H @ Da.transpose(0, 2, 1) for Da in (Dx, Dy))
    G[:, 0] = D[:, :nv].mean(axis=1) if k == 1 else H[:, 0] / area[:, None]

    # B rows alpha >= 1 via integration by parts
    B = np.zeros((g, nk, ndof))
    if nkm2:
        B[:, :, nb:] -= basis.laplacian_coeffs()[:, :, :nkm2] * ar     # -(Delta m_alpha, phi_i)
    dn = sum((mgl @ Da.transpose(0, 2, 1)[:, None]) * normals[:, :, None, a, None]
             for a, Da in enumerate((Dx, Dy)))
    B[:, :, :nb] += _fold_sides(dn * wside[..., None]).transpose(0, 2, 1)
    B[:, 0] = 0.0
    if k == 1:
        B[:, 0, :nv] = 1.0 / nv
    else:
        B[:, 0, nb] = 1.0

    pis_nabla = solve_cells(G, B, cells, VemError, "G matrix")
    pi_nabla = D @ pis_nabla

    # C: known moments where available, elliptic projection above
    C = np.zeros((g, nk, ndof))
    if nkm2:
        C[:, :nkm2, nb:] = ar * np.eye(nkm2)
    C[:, nkm2:] = H[:, nkm2:] @ pis_nabla
    pis_0 = solve_cells(H, C, cells, VemError, "H matrix")
    pi_0 = D @ pis_0
    Hkm1 = H[:, :nkm1, :nkm1]

    # E matrices: moments of the x and y derivatives of the basis functions
    E = np.zeros((g, 2, nkm1, ndof))
    mk = mgl[..., :nkm1]
    for a, Da in enumerate((Dx, Dy)):
        E[:, a, :, nb:] -= Da[:, :nkm1, :nkm2] * ar
        wn = wside * normals[..., a, None]
        E[:, a, :, :nb] += _fold_sides(mk * wn[..., None]).transpose(0, 2, 1)
    pis_0grad = np.linalg.solve(Hkm1[:, None], E)

    eye = np.eye(ndof)
    d0 = eye - pi_0
    mass = C.transpose(0, 2, 1) @ pis_0 + (ar * d0.transpose(0, 2, 1)) @ d0
    mass = 0.5 * (mass + mass.transpose(0, 2, 1))
    Gt = G.copy()
    Gt[:, 0] = 0.0
    dn_ = eye - pi_nabla
    stab_nabla = dn_.transpose(0, 2, 1) @ dn_
    # dimensionless dof-dof stabilization: the gradient consistency term is
    # itself O(1) in the cell size, so no |P| factor here (unlike the mass)
    stiffness = pis_nabla.transpose(0, 2, 1) @ Gt @ pis_nabla + stab_nabla
    stiffness = 0.5 * (stiffness + stiffness.transpose(0, 2, 1))

    return ElementVem(k, cells, basis, area, rule.nodes, rule.weights, qm, D, G, B, H, C,
                      pis_nabla, pis_0, pis_0grad, mass, stiffness, stab_nabla)


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

class AssemblyPattern:
    """CSR pattern of a gather of dense per-cell blocks, and the scatter into it.

    `rows` and `cols` list, per group of cells, the (g, m) row ids and (g, n)
    column ids of its stacked (g, m, n) blocks; a block entry [c, a, b] adds
    to (rows[c, a], cols[c, b]).  The dof pattern, with the dofs of each cell
    as both rows and columns, holds every pair of dofs of a common cell, so M,
    K, the variable stiffness K(h) and their combinations share one
    `indptr`/`indices`.  `positions` sends each entry of the stacks, group
    after group, to its slot in the pattern's data, so an assembly is one
    `np.bincount` that sums repeated (row, col) pairs.  The three transfers
    gather dofs against the Taylor coefficient ids on one rectangular
    pattern, C_P as its transpose.
    """

    def __init__(self, rows, cols, shape):
        nrows, ncols = self.shape = tuple(shape)
        keys = [(r[:, :, None] * ncols + c[:, None, :]).ravel() for r, c in zip(rows, cols)]
        pairs, self.positions = np.unique(np.concatenate(keys), return_inverse=True)
        self.nnz = len(pairs)
        index = np.int32 if max(nrows, ncols, self.nnz) < 2 ** 31 else np.int64
        self.indices = (pairs % ncols).astype(index)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(pairs // ncols,
                                                                 minlength=nrows))
                                      ]).astype(index)

    def scatter(self, blocks) -> np.ndarray:
        """Pattern data of the sum of the groups' stacked blocks."""
        vals = np.concatenate([np.ravel(b) for b in blocks])
        if vals.size != self.positions.size:
            raise VemError(f"{vals.size} block entries for a pattern "
                           f"of {self.positions.size}")
        return np.bincount(self.positions, weights=vals, minlength=self.nnz)

    def matrix(self, data: np.ndarray) -> SparseMatrix:
        return SparseMatrix.on_pattern(self.indptr, self.indices, data, self.shape)


def scatter_matrix(pattern: AssemblyPattern, blocks) -> SparseMatrix:
    """Scatter-add the groups' stacked blocks into the pattern."""
    return pattern.matrix(pattern.scatter(blocks))


def dirichlet_dofs(mesh: PolyMesh, layout: VemDofLayout, tags) -> np.ndarray:
    """The dofs of the traces of the boundary edges whose tag is in `tags`."""
    return np.unique(layout.edge_trace_dofs[mesh.tagged_edges(tags)])
