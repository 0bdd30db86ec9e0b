"""Polygonal meshes: construction, validation, geometry, quadrature and file I/O.

Meshes are conforming tessellations by simple counter-clockwise polygons.
Periodic boxes are first-class: cells near a periodic side keep their own
coordinate frame (their polygon may extend past the box), and each edge
stores the lattice shift that maps edge coordinates into the right cell's
frame.  Non-periodic meshes have all shifts zero and cell frames equal to the
global one.

Cell loops are flat from the generator to the PolyMesh: offsets `cell_ptr`
and loop-ordered arrays with one entry per cell corner, which `ragged_rows`
gathers for one cell or stacks for cells of equal vertex count.

`generate_voronoi` builds Lloyd-relaxed (centroidal) Voronoi tessellations
from seeds reflected across the box sides, as PolyMesher does.  Each Lloyd
iterate reads its Voronoi cells off one Delaunay triangulation (qhull): a
cell is the loop of circumcentres of its seed's triangles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree
from scipy.special import roots_jacobi, roots_legendre


class MeshError(Exception):
    """Topology, degeneracy or parse failure."""


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

@dataclass
class QuadRule:
    """Nodes/weights pair with a guaranteed polynomial exactness degree."""

    nodes: np.ndarray      # (n, 2)
    weights: np.ndarray    # (n,)
    degree: int


_MAX_TRI_DEGREE = 30


@functools.lru_cache(maxsize=None)
def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on the unit triangle {x,y >= 0, x+y <= 1}, exact to `degree`.

    Collapsed (Duffy) construction: Gauss-Jacobi(1,0) in the collapsed
    direction absorbs the Jacobian, so ceil((degree+1)/2) points per direction
    suffice for exactness.  Memoized: every call with one degree returns the
    same read-only arrays.
    """
    if degree < 0 or degree > _MAX_TRI_DEGREE:
        raise MeshError(f"triangle rule degree {degree} unsupported (max {_MAX_TRI_DEGREE})")
    m = max(1, (degree + 2) // 2)
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    u = 0.5 * (xj + 1.0)
    wu = wj * 0.25          # 0.5 for the affine map, 0.5 from the (1-x) weight rescale
    xl, wl = roots_legendre(m)
    v = 0.5 * (xl + 1.0)
    wv = wl * 0.5
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    w = (wu[:, None] * wv[None, :]).ravel()
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def polygon_quadrature(vertices: np.ndarray, barycenter: np.ndarray, degree: int) -> QuadRule:
    """Interior rule on star-shaped polygons via the barycenter fan.

    `vertices` is one (nv, 2) polygon with its (2,) barycenter, or a stack
    (g, nv, 2) of polygons with equal vertex count and their (g, 2)
    barycenters; nodes come back as (..., nv * nq, 2) and weights as
    (..., nv * nq), ordered fan triangle by fan triangle within each polygon.
    Exact for polynomials up to `degree`; each polygon's weights sum to its
    area.
    """
    ref_pts, ref_w = triangle_rule(degree)
    center = np.asarray(barycenter)[..., None, :]
    e1 = vertices - center
    e2 = np.roll(vertices, -1, axis=-2) - center
    j = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    flipped = np.any(j <= 0.0, axis=-1)
    if np.any(flipped):
        where = f" (polygon {np.flatnonzero(flipped)[0]} of the stack)" if flipped.ndim else ""
        raise MeshError(f"cell not star-shaped w.r.t. barycenter (fan triangle flipped){where}")
    nodes = (center[..., None, :] + ref_pts[:, :1] * e1[..., None, :]
             + ref_pts[:, 1:] * e2[..., None, :])
    lead = j.shape[:-1]
    return QuadRule(nodes.reshape(*lead, -1, 2),
                    (j[..., None] * ref_w).reshape(*lead, -1), degree)


def sample_at(func, nodes: np.ndarray) -> np.ndarray:
    """Values (...,) of a pointwise function of (n, 2) points at the stacked
    points (..., 2), such as the rules of a vertex-count group: one call."""
    return func(nodes.reshape(-1, 2)).reshape(nodes.shape[:-1])


# Gauss-Lobatto nodes/weights on [-1, 1], indexed by point count: the k + 1
# points of the VEM edge dofs, for the orders k = 1..4 (vem.MAX_ORDER).
_GL_NODES = {
    2: np.array([-1.0, 1.0]),
    3: np.array([-1.0, 0.0, 1.0]),
    4: np.array([-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0]),
    5: np.array([-1.0, -np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0), 1.0]),
}
_GL_WEIGHTS = {
    2: np.array([1.0, 1.0]),
    3: np.array([1.0, 4.0, 1.0]) / 3.0,
    4: np.array([1.0, 5.0, 5.0, 1.0]) / 6.0,
    5: np.array([0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1]),
}


def gauss_lobatto_reference(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto rule with k+1 points on [-1, 1]; exactness 2k-1."""
    if k < 1:
        raise ValueError("edge order k must be >= 1")
    n = k + 1
    if n not in _GL_NODES:
        raise MeshError(f"Gauss-Lobatto rule with {n} points not tabulated")
    return _GL_NODES[n], _GL_WEIGHTS[n]


def polygon_areas_centroids(pts: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas (NP,) and centroids (NP, 2) of concatenated polygon loops:
    points (N, 2) and the loop sizes (NP,).

    The shoelace formulas run once per vertex count n, along axis 1 of the
    stacked (g, n, 2) polygons, so a polygon's sums do not depend on the
    others (Lloyd amplifies roundoff about tenfold).
    """
    sizes = np.asarray(sizes)
    start = np.cumsum(sizes) - sizes
    area = np.empty(len(sizes))
    centroid = np.empty((len(sizes), 2))
    for n in np.unique(sizes):
        idx = np.flatnonzero(sizes == n)
        p = pts[start[idx, None] + np.arange(n)]
        x, y = p[..., 0], p[..., 1]
        nxt = (np.arange(n) + 1) % n
        xn, yn = x[:, nxt], y[:, nxt]
        cross = x * yn - xn * y
        a = 0.5 * np.sum(cross, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            centroid[idx, 0] = np.sum((x + xn) * cross, axis=1) / (6.0 * a)
            centroid[idx, 1] = np.sum((y + yn) * cross, axis=1) / (6.0 * a)
        area[idx] = a
    return area, centroid


def ragged_rows(ptr: np.ndarray, values: np.ndarray, cells) -> np.ndarray:
    """The rows ptr[c]:ptr[c + 1] of `values` that belong to cell c: (n, ...)
    for one cell id, (g, n, ...) for a non-empty array of ids of cells that
    all own n rows."""
    if np.ndim(cells) == 0:
        return values[ptr[cells]:ptr[cells + 1]]
    start, n = ptr[cells], np.diff(ptr)[cells]
    if np.any(n != n[0]):
        raise MeshError("stacked cells own unequal row counts")
    return values[start[:, None] + np.arange(n[0])]


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

@dataclass
class PolyMesh:
    """Conforming polygonal tessellation (optionally on a periodic box).

    vertices    : (NV, 2) canonical coordinates, one per topological vertex.
    cell_ptr    : (NP + 1,) offsets: cell c owns the corners
                  cell_ptr[c]:cell_ptr[c + 1] of the loop-ordered arrays.
    loop_vertices : (N,) vertex ids of every cell's CCW loop, cell after cell.
    loop_coords : (N, 2) the same corners in their cell's own frame; equal to
                  vertices[loop_vertices] except for cells wrapping a periodic
                  side, where entries may differ by a lattice shift.
    edges       : (NE, 2) vertex ids, direction keeps the left cell on its left.
    edge_coords : (NE, 2, 2) segment coordinates in the LEFT cell's frame.
    edge_cells  : (NE, 2) left/right cell ids; right = -1 on the boundary.
    edge_shift  : (NE, 2) lattice shift; a point x on the edge corresponds to
                  x + edge_shift in the right cell's frame.
    loop_edges, loop_signs : (N,) the edge of side a (corner a to a + 1) of
                  each cell, and +1 where the cell is its left cell, else -1.
    boundary_tags : edge index -> label for boundary-condition selection.

    Every mesh is built by `_mesh_from_loops`, which gets the edge tables
    from one half-edge matcher (`_match_edges`): the generators call it with
    their frames and box, and meshes built from vertex loops alone
    (`read_mesh`, hand-built meshes) through `PolyMesh.from_loops`.
    """

    vertices: np.ndarray
    cell_ptr: np.ndarray
    loop_vertices: np.ndarray
    loop_coords: np.ndarray
    edges: np.ndarray
    edge_coords: np.ndarray
    edge_cells: np.ndarray
    edge_shift: np.ndarray
    loop_edges: np.ndarray
    loop_signs: np.ndarray
    boundary_tags: dict = field(default_factory=dict)
    periodic: tuple = (False, False)

    @staticmethod
    def from_loops(vertices, loops, boundary_tags=None) -> "PolyMesh":
        """Non-periodic mesh of vertex coordinates (NV, 2) and one CCW loop of
        vertex ids per cell.  The half-edges of one edge share both vertex
        coordinates, so any positive tolerance matches them."""
        vertices = np.asarray(vertices, dtype=float)
        ids = np.concatenate(loops).astype(np.int64)
        lo, hi = vertices[ids].min(axis=0), vertices[ids].max(axis=0)
        return _mesh_from_loops(vertices, ids, vertices[ids], np.array([len(c) for c in loops]),
                                (lo[0], hi[0], lo[1], hi[1]), (False, False),
                                1e-8 * max(hi - lo), boundary_tags)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def cell_sizes(self) -> np.ndarray:
        """(NP,) vertex count of each cell."""
        return np.diff(self.cell_ptr)

    @functools.cached_property
    def vertex_count_groups(self) -> list[np.ndarray]:
        """Cell ids grouped by vertex count (counts and ids ascending), once per mesh."""
        order = np.argsort(self.cell_sizes, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(self.cell_sizes[order])) + 1)

    def cell_coords(self, cells) -> np.ndarray:
        """(n, 2) polygon of one cell in its frame, or (g, n, 2) of cells that
        all have n vertices."""
        return ragged_rows(self.cell_ptr, self.loop_coords, cells)

    def validate(self, domain_area: float | None = None):
        """Check the PolyMesh invariants; raise MeshError on violation."""
        area, _ = polygon_areas_centroids(self.loop_coords, self.cell_sizes)
        for ci in np.flatnonzero((area <= 0.0) | _self_crossing(self.loop_coords,
                                                                self.cell_sizes))[:1]:
            if area[ci] <= 0.0:
                raise MeshError(f"cell {ci} is not counter-clockwise (signed area {area[ci]:.3e})")
            raise MeshError(f"cell {ci} vertex loop self-intersects")
        for e in range(self.n_edges):
            if self.edge_cells[e, 1] < 0 and e not in self.boundary_tags:
                raise MeshError(f"boundary edge {e} carries no tag")
            if self.edge_cells[e, 1] >= 0 and e in self.boundary_tags:
                raise MeshError(f"interior edge {e} carries a boundary tag")
        if domain_area is not None:
            if abs(area.sum() - domain_area) > 1e-12 * max(domain_area, 1.0):
                raise MeshError(f"cell areas sum to {area.sum()!r}, expected {domain_area!r}")


def _orient(o, d, c) -> np.ndarray:
    """Whether c lies left of the line from o to d (points (..., 2))."""
    return (d - o)[..., 0] * (c - o)[..., 1] - (d - o)[..., 1] * (c - o)[..., 0] > 0.0


def _self_crossing(pts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mask of the concatenated loops, points (N, 2) and sizes (NP,), with
    fewer than 3 points or two non-adjacent sides that cross."""
    out = sizes < 3
    start = np.cumsum(sizes) - sizes
    for n in np.unique(sizes[sizes > 3]):
        idx = np.flatnonzero(sizes == n)
        a, b = np.triu_indices(n, 2)
        a, b = a[(b + 1) % n != a], b[(b + 1) % n != a]
        p = pts[start[idx, None] + np.arange(n)]
        q = np.roll(p, -1, axis=1)
        pa, qa, pb, qb = p[:, a], q[:, a], p[:, b], q[:, b]
        out[idx] = np.any((_orient(pb, qb, pa) != _orient(pb, qb, qa))
                          & (_orient(pa, qa, pb) != _orient(pa, qa, qb)), axis=1)
    return out


# ---------------------------------------------------------------------------
# geometry cache
# ---------------------------------------------------------------------------

@dataclass
class GeometryCache:
    """Per-cell and per-edge geometric quantities.

    Edge normals point from the left to the right cell; the outward normal
    seen from a cell is `normal * sign` with sign +1 for the left cell.
    """

    area: np.ndarray          # (NP,)
    barycenter: np.ndarray    # (NP, 2), in the cell's own frame
    h: np.ndarray             # (NP,) = sqrt(area)
    edge_length: np.ndarray   # (NE,)
    edge_normal: np.ndarray   # (NE, 2) unit, left -> right


def build_geometry(mesh: PolyMesh) -> GeometryCache:
    """Areas, barycenters, cell sizes and oriented edge normals.

    Raises MeshError for non-CCW or zero-area cells.
    """
    area, bary = polygon_areas_centroids(mesh.loop_coords, mesh.cell_sizes)
    bad = np.flatnonzero(area <= 0.0)
    if len(bad):
        raise MeshError(f"cell {bad[0]} degenerate or mis-oriented (area {area[bad[0]]:.3e})")
    tang = mesh.edge_coords[:, 1] - mesh.edge_coords[:, 0]
    length = np.hypot(tang[:, 0], tang[:, 1])
    if np.any(length == 0.0):
        raise MeshError("zero-length edge")
    # the edge keeps its left cell on the left, so rotating the tangent by
    # -90 degrees gives the left-outward normal
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    return GeometryCache(area, bary, np.sqrt(area), length, normal)


@dataclass
class RegularityReport:
    """Per-cell pass/fail of the mesh regularity assumptions."""

    passed: np.ndarray          # (NP,) bool
    min_edge_ratio: np.ndarray  # (NP,) min |e| / h_P
    star_shaped: np.ndarray     # (NP,) bool
    worst_edge_ratio: float
    all_passed: bool


def validate_regularity(mesh: PolyMesh, geom: GeometryCache, rho: float) -> RegularityReport:
    """Flag cells with edges shorter than rho*h_P or a barycenter outside the kernel."""
    sizes = mesh.cell_sizes
    pts = mesh.loop_coords
    d = pts[_next_in_loop(sizes)] - pts
    rel = np.repeat(geom.barycenter, sizes, axis=0) - pts
    ratio = np.minimum.reduceat(np.hypot(d[:, 0], d[:, 1]), mesh.cell_ptr[:-1]) / geom.h
    star = np.logical_and.reduceat(d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0] > 0.0,
                                   mesh.cell_ptr[:-1])
    passed = (ratio >= rho) & star
    return RegularityReport(passed, ratio, star, float(ratio.min()), bool(passed.all()))


# ---------------------------------------------------------------------------
# Voronoi generator
# ---------------------------------------------------------------------------

def _clip_to_halfplane(pts: np.ndarray, n: np.ndarray, c: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against n.x <= c."""
    out = []
    m = len(pts)
    d = pts @ n - c
    for a in range(m):
        b = (a + 1) % m
        if d[a] <= 0.0:
            out.append(pts[a])
            if d[b] > 0.0:
                t = d[a] / (d[a] - d[b])
                out.append(pts[a] + t * (pts[b] - pts[a]))
        elif d[b] <= 0.0:
            t = d[a] / (d[a] - d[b])
            out.append(pts[a] + t * (pts[b] - pts[a]))
    return np.array(out) if out else np.empty((0, 2))


def _clip_cell_outside_circle(pts: np.ndarray, center, radius) -> np.ndarray:
    """Replace the polygon chain inside the circle by the chord between crossings."""
    d = pts - center
    r = np.hypot(d[:, 0], d[:, 1])
    inside = r < radius * (1.0 - 1e-12)
    if not np.any(inside):
        return pts
    out = []
    m = len(pts)
    for a in range(m):
        b = (a + 1) % m
        pa, pb = pts[a], pts[b]
        if not inside[a]:
            out.append(pa)
        if inside[a] != inside[b]:
            out.append(_circle_crossing(pa, pb, center, radius))
    res = np.array(out)
    if len(res) < 3 or polygon_areas_centroids(res, [len(res)])[0][0] <= 0.0:
        raise MeshError("hole clipping produced a degenerate cell")
    return res


def _circle_crossing(pa, pb, center, radius):
    d = pb - pa
    f = pa - center
    a = d @ d
    b = 2.0 * (f @ d)
    c = f @ f - radius * radius
    disc = max(b * b - 4 * a * c, 0.0)
    sq = np.sqrt(disc)
    for t in ((-b - sq) / (2 * a), (-b + sq) / (2 * a)):
        if -1e-12 <= t <= 1.0 + 1e-12:
            return pa + min(max(t, 0.0), 1.0) * d
    return 0.5 * (pa + pb)


def _voronoi_polygons(seeds: np.ndarray, box, periodic, hole_center, hole_radius):
    """The clipped polygon of each base seed, concatenated: points (N, 2) and
    the loop sizes (n,).

    The full image set holds, besides the seeds, their images across each
    side: translates along periodic axes (cells may straddle those sides) and
    mirrors across non-periodic ones, so that such a side is an exact Voronoi
    boundary; corners get the images of both axes.  A circular hole is
    realised by radial mirror seeds plus chord clipping.

    The regions come from one Delaunay triangulation of the seeds and their
    images.  A base region is bounded when its seed is not on the convex
    hull, and its vertices are the circumcentres of the seed's triangles, in
    counter-clockwise order by their angle about the seed (one lexsort over
    every seed-triangle incidence) from the angle -pi on.
    Cocircular seeds, which the mirror images make at every non-periodic
    side and lattice seeds make everywhere, give one Voronoi vertex as two
    or more circumcentres equal only to roundoff; areas and centroids do
    not mind, and `_assemble_mesh` merges them.  A seed that is no vertex of
    the triangulation (qhull keeps a point within roundoff of another as
    coplanar) and a flat triangle at a seed raise MeshError.

    The triangulation first gets only the images inside the box grown by a
    band of 2.5 mean seed spacings, as PolyMesher reflects only the seeds
    near the boundary.  Its regions are accepted when every base region is
    bounded and, around each vertex v of a base region, the disc through v's
    seed lies inside the grown box: an image left out could only cut a
    region by lying inside one of those empty discs, so the accepted regions
    are exactly those of the full image set.  Otherwise (unrelaxed first
    iterates, clustered seeds) the triangulation is rebuilt from the full set.
    Region vertices within 1e-9 of the box size of a non-periodic side are
    snapped onto it before clipping, so that the clip neither keeps them off
    the side nor splits the side at them.
    """
    xlo, xhi, ylo, yhi = box
    lx, ly = xhi - xlo, yhi - ylo
    n = len(seeds)

    def axis_images(v, lo, hi, wraps):
        return (v, v - (hi - lo), v + (hi - lo)) if wraps else (v, 2.0 * lo - v, 2.0 * hi - v)

    images = np.stack([np.column_stack([x, y])
                       for x in axis_images(seeds[:, 0], xlo, xhi, periodic[0])
                       for y in axis_images(seeds[:, 1], ylo, yhi, periodic[1])][1:])
    hole_mirrors = np.empty((0, 2))
    if hole_center is not None:
        r = np.hypot(seeds[:, 0] - hole_center[0], seeds[:, 1] - hole_center[1])
        near = (r < 2.5 * hole_radius) & (r > hole_radius)
        scale = 2.0 * hole_radius / r[near] - 1.0
        hole_mirrors = hole_center + (seeds[near] - hole_center) * scale[:, None]
    lo, hi = np.array([xlo, ylo]), np.array([xhi, yhi])
    for band in (2.5 * np.sqrt(lx * ly / n), np.inf):
        kept = np.all((images >= lo - band) & (images <= hi + band), axis=-1)
        tri = Delaunay(np.vstack([seeds, images[kept], hole_mirrors]))
        lost = tri.coplanar[tri.coplanar[:, 0] < n, 0]
        if len(lost):
            raise MeshError(f"seed {lost[0]} is no vertex of the Delaunay triangulation "
                            "(it coincides with another point to roundoff)")
        if np.any(tri.convex_hull < n):
            continue
        # circumcentre of each triangle, from its first corner; a flat
        # triangle gives a non-finite one
        corners = tri.points[tri.simplices]
        u, v = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
        uu, vv = np.sum(u * u, axis=1), np.sum(v * v, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            centres = corners[:, 0] + np.column_stack(
                [v[:, 1] * uu - u[:, 1] * vv, u[:, 0] * vv - v[:, 0] * uu]
            ) / (2.0 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))[:, None]
        # (seed, triangle) incidences of the base seeds
        owner = tri.simplices.ravel()
        incident = np.flatnonzero(owner < n)
        owner, incident = owner[incident], incident // 3
        pts = centres[incident]
        if not np.all(np.isfinite(pts)):
            raise MeshError("flat Delaunay triangle at seed "
                            f"{owner[~np.isfinite(pts).all(axis=1)][0]}")
        d = pts - seeds[owner]
        order = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), owner))
        pts, d = pts[order], d[order]
        counts = np.bincount(owner, minlength=n)
        radius = np.hypot(d[:, 0], d[:, 1])[:, None]
        if np.all((pts - radius >= lo - band) & (pts + radius <= hi + band)):
            break
    else:
        raise MeshError("unbounded Voronoi cell; mirror construction failed")
    tol = 1e-9 * max(lx, ly)
    for axis, ends in enumerate(((xlo, xhi), (ylo, yhi))):
        if not periodic[axis]:
            for side in ends:
                pts[np.abs(pts[:, axis] - side) <= tol, axis] = side
    start = np.cumsum(counts) - counts
    # (n, c) of the half-planes n.x <= c of the non-periodic sides; a polygon
    # with no vertex outside any of them passes every clip unchanged, so it
    # skips them
    sides = [(np.array(nrm), c) for nrm, c, axis in (
        ([-1.0, 0.0], -xlo, 0), ([1.0, 0.0], xhi, 0), ([0.0, -1.0], -ylo, 1),
        ([0.0, 1.0], yhi, 1)) if not periodic[axis]]
    inside = np.ones(len(pts), dtype=bool)
    for nrm, c in sides:
        inside &= pts @ nrm - c <= 0.0
    unclipped = np.logical_and.reduceat(inside, start)
    todo = ~unclipped | (hole_center is not None)
    kept = ~np.repeat(todo, counts)
    clipped = [np.empty((0, 2))]
    for ci in np.flatnonzero(todo):
        poly = pts[start[ci]:start[ci] + counts[ci]]
        if not unclipped[ci]:
            for nrm, c in sides:
                poly = _clip_to_halfplane(poly, nrm, c)
            if len(poly) < 3:
                raise MeshError("cell vanished while clipping to the box")
        if hole_center is not None:
            poly = _clip_cell_outside_circle(poly, np.asarray(hole_center), hole_radius)
        clipped.append(poly)
        counts[ci] = len(poly)
    # each clipped polygon goes in after the kept points of the cells before it
    at = np.repeat((np.cumsum(kept) - kept)[start[todo]], counts[todo])
    return np.insert(pts[kept], at, np.concatenate(clipped), axis=0), counts


def _weighted_centroid(poly: np.ndarray, centroid: np.ndarray, density) -> np.ndarray:
    """Density-weighted centroid, by a degree-2 fan rule about `centroid`.

    Edges shorter than 1e-12 of the longest are dropped first: the box clip
    repeats a vertex that lies on a clip line (or emits a near-copy of it),
    and the fan triangle on such an edge can flip.
    """
    d = np.roll(poly, -1, axis=0) - poly
    length = np.hypot(d[:, 0], d[:, 1])
    rule = polygon_quadrature(poly[length > 1e-12 * length.max()], centroid, 2)
    w = rule.weights * np.maximum(density(rule.nodes[:, 0], rule.nodes[:, 1]), 1e-14)
    return (rule.nodes * w[:, None]).sum(axis=0) / w.sum()


def _canon(p, box, periodic) -> np.ndarray:
    """Copy of the points p (..., 2) with periodic coordinates wrapped into the box."""
    xlo, xhi, ylo, yhi = box
    lo = np.array([xlo, ylo])
    return np.where(periodic, lo + np.mod(p - lo, np.array([xhi - xlo, yhi - ylo])), p)


def _merge_vertices(points: np.ndarray, box, periodic, tol):
    """Vertex id of each point (N, 2), and the vertex coordinates.

    Points closer than tol in both coordinates (modulo the box on periodic
    axes) are linked; each connected cluster is one vertex, numbered in the
    order of its first point and placed at that point's wrapped coordinates.
    """
    xlo, xhi, ylo, yhi = box
    size = np.array([xhi - xlo, yhi - ylo])
    canon = _canon(points, box, periodic)
    rel = canon - [xlo, ylo]
    rel = np.where(periodic & (rel >= size), rel - size, rel)  # np.mod may round up to size
    tree = cKDTree(rel, boxsize=np.where(periodic, size, 0.0))
    pairs = tree.query_pairs(tol, p=np.inf, output_type="ndarray")
    n = len(points)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    label = connected_components(graph, directed=False)[1]
    first = np.unique(label, return_index=True)[1]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[label], canon[first[order]]


def _drop_repeats(ids: np.ndarray, sizes: np.ndarray, what: str):
    """Mask of the points of concatenated vertex loops that stay when a point
    repeating the vertex before it, and then a last point repeating the first,
    are dropped; and the new loop sizes.  A loop left with < 3 raises."""
    start = np.cumsum(sizes) - sizes
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    keep[start] = True
    kept = np.add.reduceat(keep, start)
    first = np.cumsum(kept) - kept
    kept_idx = np.flatnonzero(keep)
    closes = ids[kept_idx[first + kept - 1]] == ids[kept_idx[first]]
    keep[kept_idx[(first + kept - 1)[closes]]] = False
    kept = kept - closes
    if np.any(kept < 3):
        raise MeshError(f"cell collapsed {what}")
    return keep, kept


def _next_in_loop(sizes: np.ndarray) -> np.ndarray:
    """Index of the next point of each point's loop in concatenated loops."""
    nxt = np.arange(1, sizes.sum() + 1)
    end = np.cumsum(sizes)
    nxt[end - 1] = end - sizes
    return nxt


def _vertex_constraints(p, box, periodic, tol, hole_center, hole_radius):
    """Boundary lines a point sits on (used to pick edge-collapse targets)."""
    xlo, xhi, ylo, yhi = box
    cons = []
    if not periodic[0]:
        if abs(p[0] - xlo) < tol:
            cons.append(("x", xlo))
        if abs(p[0] - xhi) < tol:
            cons.append(("x", xhi))
    if not periodic[1]:
        if abs(p[1] - ylo) < tol:
            cons.append(("y", ylo))
        if abs(p[1] - yhi) < tol:
            cons.append(("y", yhi))
    if hole_center is not None:
        if abs(np.hypot(p[0] - hole_center[0], p[1] - hole_center[1]) - hole_radius) < tol:
            cons.append(("hole", 0.0))
    return cons


def _vertex_images(vertices, ids, pts, box, periodic) -> np.ndarray:
    """The coordinates of the vertices ids (N,) in the frames of the points
    pts (N, 2): on periodic axes, the lattice image nearest each point."""
    size = np.array([box[1] - box[0], box[3] - box[2]])
    return vertices[ids] + np.where(periodic, np.round((pts - vertices[ids]) / size) * size, 0.0)


def _collapse_short_edges(ids, pts, sizes, vertices, box, periodic, tol,
                          hole_center, hole_radius, theta=0.06, passes=4):
    """Merge polygon vertices joined by edges shorter than theta*h_cell.

    The loops are concatenated: vertex ids (N,), frame coordinates (N, 2) and
    loop sizes.  Short edges are found for all cells at once, and only they
    are merged one by one, in an order set by the geometry alone.  Targets
    respect boundary constraints so box sides and the hole stay exact.  Moves
    are applied through shared vertex ids, so the tessellation stays
    conforming and gap-free.  Frame coordinates of periodic cells are rebuilt
    as the lattice image nearest the old position.
    """
    for _ in range(passes):
        nxt = _next_in_loop(sizes)
        d = pts[nxt] - pts
        area, centroid = polygon_areas_centroids(pts, sizes)
        short = np.hypot(d[:, 0], d[:, 1]) < theta * np.repeat(np.sqrt(np.abs(area)), sizes)
        if not short.any():
            break
        parent = np.arange(len(vertices))

        def find(v):
            v = int(v)
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        # short edges go cell by cell, each cell's counter-clockwise from
        # the angle -pi about its centroid, so that the target of a chain of
        # them does not depend on where the loops start
        rel = pts - np.repeat(centroid, sizes, axis=0)
        cand = np.flatnonzero(short)
        cand = cand[np.lexsort((np.arctan2(rel[cand, 1], rel[cand, 0]),
                                np.repeat(np.arange(len(sizes)), sizes)[cand]))]
        target = {}
        for a in cand:
            b = nxt[a]
            ra, rb = find(ids[a]), find(ids[b])
            if ra == rb:
                continue
            ca = _vertex_constraints(vertices[ra], box, periodic, 100 * tol,
                                     hole_center, hole_radius)
            cb = _vertex_constraints(vertices[rb], box, periodic, 100 * tol,
                                     hole_center, hole_radius)
            if len(ca) >= 2 and len(cb) >= 2:
                continue                      # two pinned corners: leave alone
            if len(ca) > len(cb):
                root, child, tgt = ra, rb, vertices[ra].copy()
            elif len(cb) > len(ca):
                root, child, tgt = rb, ra, vertices[rb].copy()
            elif len(ca) == 1 and ca != cb:
                # two different boundary lines: snap to their intersection
                root, child = ra, rb
                tgt = vertices[ra].copy()
                for kind, val in ca + cb:
                    if kind == "x":
                        tgt[0] = val
                    elif kind == "y":
                        tgt[1] = val
            else:
                root, child = ra, rb
                tgt = _canon(0.5 * (pts[a] + pts[b]), box, periodic)  # wrap-safe midpoint
                for kind, val in ca:
                    if kind == "x":
                        tgt[0] = val
                    elif kind == "y":
                        tgt[1] = val
                    elif kind == "hole":
                        d = tgt - hole_center
                        tgt = np.asarray(hole_center) + d * (hole_radius / np.hypot(*d))
            parent[child] = root
            target[int(root)] = tgt
        if not target:
            break
        for r in {find(v) for v in target}:   # every final root is a target key
            vertices[r] = target[r]
        root = np.array([find(v) for v in range(len(vertices))])
        new = root[ids]
        # a moved or merged point goes to its vertex
        remap = (new != ids) | np.isin(new, list(target))
        pts = np.where(remap[:, None], _vertex_images(vertices, new, pts, box, periodic), pts)
        keep, sizes = _drop_repeats(new, sizes, "while removing short edges")
        ids, pts = new[keep], pts[keep]
    used, ids = np.unique(ids, return_inverse=True)
    return ids, pts, sizes, vertices[used]


def _canon_separation(a: np.ndarray, b: np.ndarray, box, periodic) -> np.ndarray:
    """Max-norm distance of the points a and b (..., 2) modulo periodic axes."""
    size = np.array([box[1] - box[0], box[3] - box[2]])
    d = np.abs(_canon(a, box, periodic) - _canon(b, box, periodic))
    return np.where(periodic, np.minimum(d, size - d), d).max(axis=-1)


def _match_edges(ids: np.ndarray, pts: np.ndarray, sizes: np.ndarray, n_vertices: int,
                 box, periodic, tol: float) -> dict:
    """The edge tables of a PolyMesh from its concatenated vertex loops: ids
    (N,), frame coordinates (N, 2) and loop sizes.

    Half-edges joining one vertex pair are matched by the separation of their
    midpoints (periodic wrap aware, below tol), so that two edges joining one
    pair of vertices across the seams stay apart.  Edges are numbered in the
    order of their first half-edge, in cell order, which gives the edge its
    direction and its left cell; the matched half-edge gets sign -1.  Returns
    the PolyMesh fields edges, edge_coords, edge_cells, edge_shift,
    loop_edges and loop_signs.
    """
    n = len(ids)
    nxt = _next_in_loop(sizes)
    cell = np.repeat(np.arange(len(sizes)), sizes)
    mid = 0.5 * (pts + pts[nxt])
    key = np.minimum(ids, ids[nxt]) * n_vertices + np.maximum(ids, ids[nxt])
    order = np.argsort(key, kind="stable")
    key = key[order]
    group_start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    group_size = np.diff(np.append(group_start, n))
    creator = np.arange(n)                       # the half-edge that made each one's edge
    pair = group_start[group_size == 2]
    first, second = order[pair], order[pair + 1]
    same = _canon_separation(mid[first], mid[second], box, periodic) < tol
    creator[second[same]] = first[same]
    big = group_size > 2
    for g, size in zip(group_start[big], group_size[big]):
        made, matched = [], set()
        for h in np.sort(order[g:g + size]):
            e = next((e for e in made
                      if _canon_separation(mid[h], mid[e], box, periodic) < tol), None)
            if e is None:
                made.append(h)
            elif e in matched:
                raise MeshError(f"edge ({ids[h]}, {ids[nxt[h]]}) shared by more than two cells")
            else:
                matched.add(e)
                creator[h] = e
    made = creator == np.arange(n)
    edge_of = np.cumsum(made) - 1
    edge = edge_of[creator]
    right = np.flatnonzero(~made)
    edge_cells = np.column_stack([cell[made], np.full(made.sum(), -1)])
    edge_cells[edge[right], 1] = cell[right]
    edge_shift = np.zeros((made.sum(), 2))
    # lattice shift mapping left-frame edge coords into the right cell's frame
    s = mid[right] - mid[creator[right]]
    edge_shift[edge[right]] = np.where(np.abs(s) < tol, 0.0, s)
    return dict(edges=np.column_stack([ids, ids[nxt]])[made],
                edge_coords=np.stack([pts, pts[nxt]], axis=1)[made],
                edge_cells=edge_cells, edge_shift=edge_shift,
                loop_edges=edge, loop_signs=np.where(made, 1, -1))


def _mesh_from_loops(vertices, ids, pts, sizes, box, periodic, tol,
                     boundary_tags=None) -> PolyMesh:
    """The PolyMesh of concatenated vertex loops: ids (N,), frame coordinates
    (N, 2) and loop sizes, with the edge tables of `_match_edges`."""
    return PolyMesh(vertices, np.concatenate([[0], np.cumsum(sizes)]), ids, pts,
                    boundary_tags=boundary_tags or {}, periodic=periodic,
                    **_match_edges(ids, pts, sizes, len(vertices), box, periodic, tol))


def _assemble_mesh(pts: np.ndarray, sizes: np.ndarray, box, periodic, scale: float,
                   hole_center=None, hole_radius: float = 0.0) -> PolyMesh:
    """Build the PolyMesh (topology + frames + edges) from concatenated
    polygons, points (N, 2) and loop sizes: merge their points into
    vertices, collapse short edges, match the edges (`_mesh_from_loops`) and
    tag the boundary edges by box side, the rest as `hole`."""
    xlo, xhi, ylo, yhi = box
    periodic = tuple(bool(p) for p in periodic)
    tol = 1e-8 * scale
    ids, vertices = _merge_vertices(pts, box, periodic, tol)
    # every point takes its vertex's coordinates: the triangulation gives a
    # Voronoi vertex of cocircular seeds as several circumcentres, equal
    # only to roundoff
    pts = _vertex_images(vertices, ids, pts, box, periodic)
    keep, sizes = _drop_repeats(ids, sizes, "during vertex merge")
    ids, pts, sizes, vertices = _collapse_short_edges(
        ids[keep], pts[keep], sizes, vertices, box, periodic, tol, hole_center, hole_radius)
    mesh = _mesh_from_loops(vertices, ids, pts, sizes, box, periodic, tol)
    # boundary tags by geometric side
    bnd = np.flatnonzero(mesh.edge_cells[:, 1] < 0)
    m = mesh.edge_coords[bnd].mean(axis=1)
    on = [np.abs(m[:, 0] - xlo) < tol, np.abs(m[:, 0] - xhi) < tol,
          np.abs(m[:, 1] - ylo) < tol, np.abs(m[:, 1] - yhi) < tol]
    if hole_center is not None:
        # the hole's edges are bisectors towards its mirror seeds and chords
        # of the circle clip, which need not lie near the circle: every
        # boundary edge off the box sides is one
        rest = ~np.any(on, axis=0)
        if not rest.any():
            raise MeshError(f"the hole (radius {hole_radius:g} at ({hole_center[0]:g}, "
                            f"{hole_center[1]:g})) left no boundary: no seed lies near "
                            "enough to carve it")
        on.append(rest)
    tags = np.select(on, ["xmin", "xmax", "ymin", "ymax", "hole"][:len(on)], "")
    if np.any(tags == ""):
        raise MeshError(f"boundary edge {bnd[tags == ''][0]} lies on no tagged boundary")
    mesh.boundary_tags = dict(zip(bnd.tolist(), tags.tolist()))
    return mesh


def generate_voronoi(box, n_seeds: int, lloyd_iters: int = 20, seed: int = 0,
                     periodic=(False, False), density=None,
                     hole_center=None, hole_radius: float = 0.0) -> PolyMesh:
    """Clipped (optionally periodic) Lloyd-relaxed Voronoi tessellation of a box.

    Deterministic for a fixed rng seed with one numpy, scipy and qhull.
    Cells come in seed order.  Each cell loop starts at its first Voronoi
    vertex counter-clockwise from the angle -pi about its seed (or where the
    clip puts it), vertices are numbered in the order of their first corner
    and edges in that of their first half-edge: none of these follow qhull's
    output order.  A diagram of the band images equals that of the full image set only to
    roundoff, and Lloyd carries such differences on, so other image sets or
    qhull builds move cell centroids by up to about 1e-12.  `density` is
    an optional callable rho(x, y) weighting the Lloyd centroids (graded
    meshes).  `hole_*` carves a chord-polygon approximation of a circular
    obstacle.
    """
    if n_seeds < 4:
        raise MeshError("need at least 4 seeds")
    xlo, xhi, ylo, yhi = box
    if hole_center is not None:
        # seeds are resampled until they lie at least 1.05 r from the centre;
        # the box corner farthest from it bounds that distance
        reach = max(np.hypot(x - hole_center[0], y - hole_center[1])
                    for x in (xlo, xhi) for y in (ylo, yhi))
        if reach <= 1.05 * hole_radius:
            raise MeshError(f"the hole (radius {hole_radius:g}, seeds kept "
                            f"{1.05 * hole_radius:g} from its centre) covers the box")
    rng = np.random.default_rng(seed)

    def sample(m):
        if density is None:
            return np.column_stack([rng.uniform(xlo, xhi, m), rng.uniform(ylo, yhi, m)])
        # rejection sampling against the density
        out = np.empty((0, 2))
        dmax = None
        while len(out) < m:
            cand = np.column_stack([rng.uniform(xlo, xhi, 4 * m), rng.uniform(ylo, yhi, 4 * m)])
            d = density(cand[:, 0], cand[:, 1])
            if dmax is None:
                dmax = float(np.max(d)) * 1.1
            keep = rng.uniform(0.0, dmax, len(cand)) < d
            out = np.vstack([out, cand[keep]])
        return out[:m]

    pts = sample(n_seeds)
    if hole_center is not None:
        r = np.hypot(pts[:, 0] - hole_center[0], pts[:, 1] - hole_center[1])
        bad = r < 1.05 * hole_radius
        while np.any(bad):
            pts[bad] = sample(int(bad.sum()))
            r = np.hypot(pts[:, 0] - hole_center[0], pts[:, 1] - hole_center[1])
            bad = r < 1.05 * hole_radius
    if len(np.unique(pts.round(12), axis=0)) != n_seeds:
        raise MeshError("duplicate seeds after sampling")
    for _ in range(lloyd_iters):
        polys, sizes = _voronoi_polygons(pts, box, periodic, hole_center, hole_radius)
        _, new = polygon_areas_centroids(polys, sizes)
        if density is not None:
            start = np.cumsum(sizes) - sizes
            new = np.array([_weighted_centroid(polys[a:a + n], c, density)
                            for a, n, c in zip(start, sizes, new)])
        if periodic[0]:
            new[:, 0] = xlo + np.mod(new[:, 0] - xlo, xhi - xlo)
        if periodic[1]:
            new[:, 1] = ylo + np.mod(new[:, 1] - ylo, yhi - ylo)
        if hole_center is not None:
            d = new - hole_center
            r = np.hypot(d[:, 0], d[:, 1])
            close = r < 1.02 * hole_radius
            new[close] = hole_center + d[close] * (1.02 * hole_radius / r[close])[:, None]
        pts = new
    polys, sizes = _voronoi_polygons(pts, box, periodic, hole_center, hole_radius)
    return _assemble_mesh(polys, sizes, box, periodic, max(xhi - xlo, yhi - ylo),
                          hole_center, hole_radius)


def generate_rect(box, nx: int, ny: int, periodic=(False, False)) -> PolyMesh:
    """Structured quadrilateral mesh of a box (optionally periodic)."""
    xlo, xhi, ylo, yhi = box
    xs = np.linspace(xlo, xhi, nx + 1)
    ys = np.linspace(ylo, yhi, ny + 1)
    j, i = np.divmod(np.arange(nx * ny), nx)         # cells row by row
    pts = np.stack([xs[i[:, None] + [0, 1, 1, 0]], ys[j[:, None] + [0, 0, 1, 1]]], axis=-1)
    return _assemble_mesh(pts.reshape(-1, 2), np.full(nx * ny, 4), box, periodic,
                          max(xhi - xlo, yhi - ylo))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def format_loops(ptr: np.ndarray, ids: np.ndarray) -> str:
    """Text lines `n i1 .. in`, one per loop of the concatenated integer
    loops `ids` with offsets `ptr`."""
    tokens = np.insert(ids.astype(str), ptr[:-1], np.diff(ptr).astype(str))
    sep = np.full(len(tokens), " ")
    sep[ptr[1:] + np.arange(len(ptr) - 1)] = "\n"      # after the last id of each loop
    return "".join(np.char.add(tokens, sep))


def write_mesh(mesh: PolyMesh, path: str):
    """Text format: `NV NP`; NV lines `x y`; NP lines `n i1 .. in`; optional
    `NB` + boundary-tag lines `edgeVertexA edgeVertexB tag`.

    Periodic meshes cannot round-trip (the format has no frame shifts).
    """
    if any(mesh.periodic):
        raise MeshError("the mesh text format cannot represent periodic meshes")
    with open(path, "w") as f:
        f.write(f"{mesh.n_vertices} {mesh.n_cells}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        f.write(format_loops(mesh.cell_ptr, mesh.loop_vertices))
        tags = sorted(mesh.boundary_tags.items())
        f.write(f"{len(tags)}\n")
        for e, tag in tags:
            a, b = mesh.edges[e]
            f.write(f"{a} {b} {tag}\n")


def read_mesh(path: str) -> PolyMesh:
    """Inverse of write_mesh.  Every malformed input raises MeshError with its
    `path:line` (1-based), and a mesh that fails `PolyMesh.validate` raises
    its MeshError prefixed by the path."""
    with open(path) as f:
        lines = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshError(f"{path}:{lineno}: {msg}")

    def parse(kind, token, lineno, what):
        try:
            return kind(token)
        except ValueError:
            fail(lineno, f"{what} {token!r} is not {'an integer' if kind is int else 'a number'}")

    if not lines:
        fail(1, "empty file")
    head = lines[0].split()
    if len(head) != 2:
        fail(1, "expected 'NV NP'")
    nv, nc = (parse(int, t, 1, "count") for t in head)
    if nv < 0 or nc < 1:
        fail(1, "expected NV >= 0 vertices and at least one cell")
    if len(lines) < 1 + nv + nc:
        fail(len(lines), "file truncated")
    verts = np.empty((nv, 2))
    for i in range(nv):
        parts = lines[1 + i].split()
        if len(parts) != 2:
            fail(2 + i, "expected 'x y'")
        verts[i] = [parse(float, t, 2 + i, "coordinate") for t in parts]
    loops = []
    for lineno in range(2 + nv, 2 + nv + nc):
        parts = lines[lineno - 1].split()
        if not parts:
            fail(lineno, "empty cell line")
        n = parse(int, parts[0], lineno, "vertex count")
        if n < 3 or len(parts) != n + 1:
            fail(lineno, f"expected a vertex count n >= 3 and n vertex indices, not {n}")
        loop = np.array([parse(int, t, lineno, "vertex index") for t in parts[1:]],
                        dtype=np.int64)
        if np.any(loop < 0) or np.any(loop >= nv):
            fail(lineno, "vertex index out of range")
        loops.append(loop)
    try:
        mesh = PolyMesh.from_loops(verts, loops)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    pos = 1 + nv + nc                       # 0-based index of the tag count line
    if pos < len(lines) and lines[pos].strip():
        nb = parse(int, lines[pos].strip(), pos + 1, "tag count")
        if len(lines) < pos + 1 + nb:
            fail(len(lines), f"file truncated: {nb} boundary tags announced, "
                             f"{len(lines) - pos - 1} lines left")
        lookup = {(min(a, b), max(a, b)): e for e, (a, b) in enumerate(mesh.edges.tolist())}
        for lineno in range(pos + 2, pos + 2 + nb):
            parts = lines[lineno - 1].split()
            if len(parts) != 3:
                fail(lineno, "expected 'vertexA vertexB tag'")
            a, b = (parse(int, t, lineno, "vertex index") for t in parts[:2])
            key = (min(a, b), max(a, b))
            if key not in lookup:
                fail(lineno, f"no edge between vertices {a} and {b}")
            mesh.boundary_tags[lookup[key]] = parts[2]
    try:
        mesh.validate()
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    return mesh
