"""Polygonal meshes: construction, validation, geometry, quadrature and file I/O.

Meshes are conforming tessellations by simple counter-clockwise polygons.
Periodic boxes are first-class: cells near a periodic side keep their own
coordinate frame (their polygon may extend past the box), and each edge
stores the lattice shift that maps edge coordinates into the right cell's
frame.  Non-periodic meshes have all shifts zero and cell frames equal to the
global one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Voronoi
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
    """Interior rule on a star-shaped polygon via the barycenter fan.

    Exact for polynomials up to `degree`; weights sum to the polygon area.
    Nodes and weights are ordered fan triangle by fan triangle.
    """
    ref_pts, ref_w = triangle_rule(degree)
    e1 = vertices - barycenter
    e2 = np.roll(vertices, -1, axis=0) - barycenter
    j = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(j <= 0.0):
        raise MeshError("cell not star-shaped w.r.t. barycenter (fan triangle flipped)")
    nodes = (barycenter + ref_pts[None, :, :1] * e1[:, None, :]
             + ref_pts[None, :, 1:] * e2[:, None, :])
    return QuadRule(nodes.reshape(-1, 2), (j[:, None] * ref_w[None, :]).ravel(), degree)


# Gauss-Lobatto nodes/weights on [-1, 1], indexed by point count.
_GL_NODES = {
    2: np.array([-1.0, 1.0]),
    3: np.array([-1.0, 0.0, 1.0]),
    4: np.array([-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0]),
    5: np.array([-1.0, -np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0), 1.0]),
    6: np.array([-1.0, -np.sqrt(1.0 / 3.0 + 2.0 * np.sqrt(7.0) / 21.0),
                 -np.sqrt(1.0 / 3.0 - 2.0 * np.sqrt(7.0) / 21.0),
                 np.sqrt(1.0 / 3.0 - 2.0 * np.sqrt(7.0) / 21.0),
                 np.sqrt(1.0 / 3.0 + 2.0 * np.sqrt(7.0) / 21.0), 1.0]),
}
_GL_WEIGHTS = {
    2: np.array([1.0, 1.0]),
    3: np.array([1.0, 4.0, 1.0]) / 3.0,
    4: np.array([1.0, 5.0, 5.0, 1.0]) / 6.0,
    5: np.array([0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1]),
    6: np.array([1.0 / 15.0, (14.0 - np.sqrt(7.0)) / 30.0, (14.0 + np.sqrt(7.0)) / 30.0,
                 (14.0 + np.sqrt(7.0)) / 30.0, (14.0 - np.sqrt(7.0)) / 30.0, 1.0 / 15.0]),
}


def gauss_lobatto_reference(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto rule with k+1 points on [-1, 1]; exactness 2k-1."""
    if k < 1:
        raise ValueError("edge order k must be >= 1")
    n = k + 1
    if n not in _GL_NODES:
        raise MeshError(f"Gauss-Lobatto rule with {n} points not tabulated")
    return _GL_NODES[n], _GL_WEIGHTS[n]


def edge_gauss_lobatto(va: np.ndarray, vb: np.ndarray, k: int) -> QuadRule:
    """Gauss-Lobatto rule along segment va->vb: endpoints plus k-1 interior points."""
    t, w = gauss_lobatto_reference(k)
    nodes = va[None, :] + 0.5 * (t[:, None] + 1.0) * (vb - va)[None, :]
    length = float(np.hypot(*(vb - va)))
    return QuadRule(nodes, 0.5 * length * w, 2 * k - 1)


def monomial_integral_greens(vertices: np.ndarray, p: int, q: int) -> float:
    """Integral of x^p y^q over a polygon via Green's theorem on the boundary.

    Independent path used as a quadrature oracle: the line integral of
    x^{p+1} y^q / (p+1) dy is evaluated edge by edge with exact 1D Gauss rules.
    """
    total = 0.0
    n = len(vertices)
    deg = p + 1 + q
    t, w = roots_legendre(deg // 2 + 1)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    for a in range(n):
        v0, v1 = vertices[a], vertices[(a + 1) % n]
        xs = v0[0] + t * (v1[0] - v0[0])
        ys = v0[1] + t * (v1[1] - v0[1])
        dy = v1[1] - v0[1]
        total += np.sum(w * xs ** (p + 1) * ys ** q) * dy / (p + 1)
    return float(total)


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_areas_centroids(polys) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas (NP,) and centroids (NP, 2) of a list of (n, 2) polygons.

    The shoelace formulas run once per vertex count n, along axis 1 of the
    stacked (g, n, 2) polygons: bitwise equal to `_signed_area` per polygon.
    """
    counts = np.fromiter((len(p) for p in polys), dtype=np.int64, count=len(polys))
    area = np.empty(len(polys))
    centroid = np.empty((len(polys), 2))
    for n in np.unique(counts):
        idx = np.flatnonzero(counts == n)
        pts = np.stack([polys[i] for i in idx])
        x, y = pts[..., 0], pts[..., 1]
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * yn - xn * y
        a = 0.5 * np.sum(cross, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            centroid[idx, 0] = np.sum((x + xn) * cross, axis=1) / (6.0 * a)
            centroid[idx, 1] = np.sum((y + yn) * cross, axis=1) / (6.0 * a)
        area[idx] = a
    return area, centroid


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

@dataclass
class PolyMesh:
    """Conforming polygonal tessellation (optionally on a periodic box).

    vertices    : (NV, 2) canonical coordinates, one per topological vertex.
    cells       : list of CCW vertex-index loops (topology).
    cell_coords : per-cell (n, 2) polygon coordinates in the cell's own frame;
                  equal to vertices[loop] except for cells wrapping a periodic
                  side, where entries may differ by a lattice shift.
    edges       : (NE, 2) vertex ids, direction keeps the left cell on its left.
    edge_coords : (NE, 2, 2) segment coordinates in the LEFT cell's frame.
    edge_cells  : (NE, 2) left/right cell ids; right = -1 on the boundary.
    edge_shift  : (NE, 2) lattice shift; a point x on the edge corresponds to
                  x + edge_shift in the right cell's frame.
    boundary_tags : edge index -> label for boundary-condition selection.
    """

    vertices: np.ndarray
    cells: list
    cell_coords: list = None
    edges: np.ndarray = None
    edge_coords: np.ndarray = None
    edge_cells: np.ndarray = None
    edge_shift: np.ndarray = None
    boundary_tags: dict = field(default_factory=dict)
    cell_edges: list = None
    cell_edge_sign: list = None
    periodic: tuple = (False, False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.cells = [np.asarray(c, dtype=np.int64) for c in self.cells]
        if self.cell_coords is None:
            self.cell_coords = [self.vertices[c] for c in self.cells]
        if self.edges is None:
            self._build_edges()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _build_edges(self):
        """Derive edges from shared vertex pairs (non-periodic construction)."""
        edge_ids: dict = {}
        edges = []
        edge_cells = []
        cell_edges = []
        cell_sign = []
        for ci, loop in enumerate(self.cells):
            ids = np.empty(len(loop), dtype=np.int64)
            sgn = np.empty(len(loop), dtype=np.int64)
            for a in range(len(loop)):
                va, vb = int(loop[a]), int(loop[(a + 1) % len(loop)])
                key = (min(va, vb), max(va, vb))
                if key not in edge_ids:
                    edge_ids[key] = len(edges)
                    edges.append((va, vb))
                    edge_cells.append([ci, -1])
                    ids[a] = edge_ids[key]
                    sgn[a] = 1
                else:
                    e = edge_ids[key]
                    if edge_cells[e][1] != -1:
                        raise MeshError(f"edge {key} shared by more than two cells")
                    edge_cells[e][1] = ci
                    ids[a] = e
                    sgn[a] = -1
            cell_edges.append(ids)
            cell_sign.append(sgn)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.edge_cells = np.asarray(edge_cells, dtype=np.int64)
        self.edge_coords = self.vertices[self.edges]
        self.edge_shift = np.zeros((len(edges), 2))
        self.cell_edges = cell_edges
        self.cell_edge_sign = cell_sign

    def validate(self, domain_area: float | None = None):
        """Check the PolyMesh invariants; raise MeshError on violation."""
        area, _ = polygon_areas_centroids(self.cell_coords)
        for ci, pts in enumerate(self.cell_coords):
            if area[ci] <= 0.0:
                raise MeshError(f"cell {ci} is not counter-clockwise (signed area {area[ci]:.3e})")
            if not _is_simple(pts):
                raise MeshError(f"cell {ci} vertex loop self-intersects")
        for e in range(self.n_edges):
            if self.edge_cells[e, 1] < 0 and e not in self.boundary_tags:
                raise MeshError(f"boundary edge {e} carries no tag")
        if domain_area is not None:
            if abs(area.sum() - domain_area) > 1e-12 * max(domain_area, 1.0):
                raise MeshError(f"cell areas sum to {area.sum()!r}, expected {domain_area!r}")

    def connectivity_hash(self) -> int:
        """Order-stable hash of the full connectivity (round-trip checks)."""
        h = hash((self.n_vertices, self.n_cells))
        for loop in self.cells:
            h = hash((h, tuple(int(v) for v in loop)))
        return h


def _is_simple(pts: np.ndarray) -> bool:
    """Brute-force segment intersection test for small polygon loops."""
    n = len(pts)
    if n < 3:
        return False
    segs = [(pts[a], pts[(a + 1) % n]) for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if b == a or (b + 1) % n == a or (a + 1) % n == b:
                continue
            if _segments_cross(*segs[a], *segs[b]):
                return False
    return True


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


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
    edge_midpoint: np.ndarray  # (NE, 2), in the left cell's frame


def build_geometry(mesh: PolyMesh) -> GeometryCache:
    """Areas, barycenters, cell sizes and oriented edge normals.

    Raises MeshError for non-CCW or zero-area cells.
    """
    area, bary = polygon_areas_centroids(mesh.cell_coords)
    bad = np.flatnonzero(area <= 0.0)
    if len(bad):
        raise MeshError(f"cell {bad[0]} degenerate or mis-oriented (area {area[bad[0]]:.3e})")
    va = mesh.edge_coords[:, 0, :]
    vb = mesh.edge_coords[:, 1, :]
    tang = vb - va
    length = np.hypot(tang[:, 0], tang[:, 1])
    if np.any(length == 0.0):
        raise MeshError("zero-length edge")
    # the edge keeps its left cell on the left, so rotating the tangent by
    # -90 degrees gives the left-outward normal
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    return GeometryCache(area, bary, np.sqrt(area), length, normal, 0.5 * (va + vb))


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
    n = mesh.n_cells
    ratio = np.empty(n)
    star = np.empty(n, dtype=bool)
    for ci in range(n):
        pts = mesh.cell_coords[ci]
        d = np.roll(pts, -1, axis=0) - pts
        lengths = np.hypot(d[:, 0], d[:, 1])
        ratio[ci] = lengths.min() / geom.h[ci]
        rel = geom.barycenter[ci] - pts
        star[ci] = bool(np.all(d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0] > 0.0))
    passed = (ratio >= rho) & star
    return RegularityReport(passed, ratio, star, float(ratio.min()), bool(passed.all()))


def interior_quadrature(mesh: PolyMesh, geom: GeometryCache, cell: int, degree: int) -> QuadRule:
    """Fan-triangulation interior rule for one cell (see polygon_quadrature)."""
    return polygon_quadrature(mesh.cell_coords[cell], geom.barycenter[cell], degree)


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
    if len(res) < 3 or _signed_area(res) <= 0.0:
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
    """One clipped polygon per base seed.

    Periodic axes contribute translated tiles (cells may straddle those
    sides); non-periodic axes contribute mirror copies so the side becomes an
    exact Voronoi boundary.  A circular hole is realised by radial mirror
    seeds plus chord clipping.
    """
    xlo, xhi, ylo, yhi = box
    lx, ly = xhi - xlo, yhi - ylo
    n = len(seeds)
    pts = [seeds]
    sx = (-lx, 0.0, lx) if periodic[0] else (0.0,)
    sy = (-ly, 0.0, ly) if periodic[1] else (0.0,)
    for dx in sx:
        for dy in sy:
            if dx == 0.0 and dy == 0.0:
                continue
            pts.append(seeds + [dx, dy])
    tiled = np.vstack(pts)
    mirrors = [tiled]
    if not periodic[0]:
        for xs in (xlo, xhi):
            m = tiled.copy()
            m[:, 0] = 2.0 * xs - m[:, 0]
            mirrors.append(m)
    if not periodic[1]:
        all_so_far = np.vstack(mirrors)
        for ys in (ylo, yhi):
            m = all_so_far.copy()
            m[:, 1] = 2.0 * ys - m[:, 1]
            mirrors.append(m)
    if hole_center is not None:
        r = np.hypot(seeds[:, 0] - hole_center[0], seeds[:, 1] - hole_center[1])
        near = (r < 2.5 * hole_radius) & (r > hole_radius)
        if np.any(near):
            scale = 2.0 * hole_radius / r[near] - 1.0
            mirrors.append(hole_center + (seeds[near] - hole_center) * scale[:, None])
    vor = Voronoi(np.vstack(mirrors))
    regions = [vor.regions[r] for r in vor.point_region[:n]]
    if any(-1 in reg or len(reg) < 3 for reg in regions):
        raise MeshError("unbounded Voronoi cell; mirror construction failed")
    flat = np.fromiter(itertools.chain.from_iterable(regions), dtype=np.int64)
    starts = np.cumsum([0] + [len(reg) for reg in regions[:-1]])
    polys = np.split(vor.vertices[flat], starts[1:])
    area, _ = polygon_areas_centroids(polys)
    # (n, c) of the half-planes n.x <= c of the non-periodic sides; a polygon
    # strictly inside all of them passes every clip unchanged, so it skips them
    sides = [(np.array(nrm), c) for nrm, c, axis in (
        ([-1.0, 0.0], -xlo, 0), ([1.0, 0.0], xhi, 0), ([0.0, -1.0], -ylo, 1),
        ([0.0, 1.0], yhi, 1)) if not periodic[axis]]
    inside = np.ones(len(vor.vertices), dtype=bool)
    for nrm, c in sides:
        inside &= vor.vertices @ nrm - c < -1e-9 * max(lx, ly)
    unclipped = np.logical_and.reduceat(inside[flat], starts)
    for i in range(n):
        poly = polys[i][::-1] if area[i] < 0.0 else polys[i]
        if not unclipped[i]:
            for nrm, c in sides:
                poly = _clip_to_halfplane(poly, nrm, c)
            if len(poly) < 3:
                raise MeshError("cell vanished while clipping to the box")
        if hole_center is not None:
            poly = _clip_cell_outside_circle(poly, np.asarray(hole_center), hole_radius)
        polys[i] = poly
    return polys


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
    """Copy of point p with its periodic coordinates wrapped into the box."""
    xlo, xhi, ylo, yhi = box
    q = np.array(p, dtype=float)
    if periodic[0]:
        q[0] = xlo + np.mod(q[0] - xlo, xhi - xlo)
    if periodic[1]:
        q[1] = ylo + np.mod(q[1] - ylo, yhi - ylo)
    return q


class _VertexMerger:
    """Cluster nearly coincident points; periodic axes identify modulo length."""

    def __init__(self, box, periodic, tol):
        self.box = box
        self.periodic = periodic
        self.tol = tol
        self.coords: list[np.ndarray] = []
        self._grid: dict = {}

    def lookup(self, p) -> int:
        q = _canon(p, self.box, self.periodic)
        xlo, xhi, ylo, yhi = self.box
        probes = [q]
        # points within tol of a periodic seam also probe the wrapped image
        if self.periodic[0]:
            if q[0] - xlo < self.tol:
                probes.append(q + [xhi - xlo, 0.0])
            if xhi - q[0] < self.tol:
                probes.append(q - [xhi - xlo, 0.0])
        if self.periodic[1]:
            base = list(probes)
            for b in base:
                if b[1] - ylo < self.tol:
                    probes.append(b + [0.0, yhi - ylo])
                if yhi - b[1] < self.tol:
                    probes.append(b - [0.0, yhi - ylo])
        inv = 1.0 / self.tol
        for b in probes:
            cx, cy = int(np.floor(b[0] * inv)), int(np.floor(b[1] * inv))
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for vi in self._grid.get((gx, gy), ()):
                        c = self.coords[vi]
                        if abs(c[0] - b[0]) < self.tol and abs(c[1] - b[1]) < self.tol:
                            return vi
        vi = len(self.coords)
        self.coords.append(q)
        cx, cy = int(np.floor(q[0] * inv)), int(np.floor(q[1] * inv))
        self._grid.setdefault((cx, cy), []).append(vi)
        return vi


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


def _collapse_short_edges(cells, coords, vertices, box, periodic, tol,
                          hole_center, hole_radius, theta=0.06, passes=4):
    """Merge polygon vertices joined by edges shorter than theta*h_cell.

    Targets respect boundary constraints so box sides and the hole stay
    exact.  Moves are applied through shared vertex ids, so the tessellation
    stays conforming and gap-free.  Frame coordinates of periodic cells are
    rebuilt as the lattice image nearest the old position.
    """
    xlo, xhi, ylo, yhi = box
    lx, ly = xhi - xlo, yhi - ylo

    for _ in range(passes):
        parent = np.arange(len(vertices))

        def find(v):
            v = int(v)
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        target = {}
        merged_any = False
        cell_h = np.sqrt(np.abs(polygon_areas_centroids(coords)[0]))
        for loop, pts, h in zip(cells, coords, cell_h):
            d = np.roll(pts, -1, axis=0) - pts
            for a in np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) < theta * h):
                b = (a + 1) % len(loop)
                ra, rb = find(loop[a]), find(loop[b])
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
                merged_any = True
        if not merged_any:
            break
        roots = {int(r) for r in (find(v) for v in target)}
        for r in roots:
            vertices[r] = target.get(r, vertices[r])
        new_cells, new_coords = [], []
        for loop, pts in zip(cells, coords):
            ids, fpts = [], []
            for a in range(len(loop)):
                v = find(loop[a])
                if ids and v == ids[-1]:
                    continue
                p_old = pts[a]
                if v in roots or int(loop[a]) != v or v in target:
                    # nearest lattice image of the (possibly moved) canonical point
                    p = vertices[v].copy()
                    if periodic[0]:
                        p[0] += np.round((p_old[0] - p[0]) / lx) * lx
                    if periodic[1]:
                        p[1] += np.round((p_old[1] - p[1]) / ly) * ly
                else:
                    p = p_old
                ids.append(v)
                fpts.append(p)
            if len(ids) > 1 and ids[-1] == ids[0]:
                ids.pop()
                fpts.pop()
            if len(ids) < 3:
                raise MeshError("cell collapsed while removing short edges")
            new_cells.append(np.array(ids, dtype=np.int64))
            new_coords.append(np.array(fpts))
        cells, coords = new_cells, new_coords
    # compact vertex ids
    used = sorted({int(v) for loop in cells for v in loop})
    remap = {v: i for i, v in enumerate(used)}
    vertices = vertices[used]
    cells = [np.array([remap[int(v)] for v in loop], dtype=np.int64) for loop in cells]
    return cells, coords, vertices


def _assemble_mesh(polys: list[np.ndarray], box, periodic, scale: float,
                   hole_center=None, hole_radius: float = 0.0) -> PolyMesh:
    """Build the PolyMesh (topology + frames + edges) from per-cell polygons."""
    xlo, xhi, ylo, yhi = box
    tol = 1e-8 * scale
    merger = _VertexMerger(box, periodic, tol)
    cells = []
    coords = []
    for poly in polys:
        ids = [merger.lookup(p) for p in poly]
        loop, pts = [ids[0]], [poly[0]]
        for v, p in zip(ids[1:], poly[1:]):
            if v != loop[-1]:
                loop.append(v)
                pts.append(p)
        if loop[-1] == loop[0]:
            loop.pop()
            pts.pop()
        if len(loop) < 3:
            raise MeshError("cell collapsed during vertex merge")
        cells.append(np.array(loop, dtype=np.int64))
        coords.append(np.array(pts))
    vertices = np.array(merger.coords)
    cells, coords, vertices = _collapse_short_edges(
        cells, coords, vertices, box, periodic, tol, hole_center, hole_radius)

    # edge matching: vertex-pair candidate lists, resolved by canonical-midpoint
    # distance (periodic wrap aware); robust against quantisation splits
    def canon_sep(a, b):
        d = np.abs(_canon(a, box, periodic) - _canon(b, box, periodic))
        if periodic[0]:
            d[0] = min(d[0], (xhi - xlo) - d[0])
        if periodic[1]:
            d[1] = min(d[1], (yhi - ylo) - d[1])
        return float(max(d))

    candidates: dict = {}
    edges, edge_cells, edge_coords, edge_shift = [], [], [], []
    cell_edges, cell_sign = [], []
    for ci, (loop, pts) in enumerate(zip(cells, coords)):
        n = len(loop)
        ids = np.empty(n, dtype=np.int64)
        sgn = np.empty(n, dtype=np.int64)
        for a in range(n):
            va, vb = int(loop[a]), int(loop[(a + 1) % n])
            pa, pb = pts[a], pts[(a + 1) % n]
            mid = 0.5 * (pa + pb)
            key = (min(va, vb), max(va, vb))
            match = -1
            for e in candidates.get(key, ()):
                if canon_sep(mid, 0.5 * (edge_coords[e][0] + edge_coords[e][1])) < tol:
                    match = e
                    break
            if match < 0:
                e = len(edges)
                candidates.setdefault(key, []).append(e)
                edges.append((va, vb))
                edge_cells.append([ci, -1])
                edge_coords.append((pa.copy(), pb.copy()))
                edge_shift.append(np.zeros(2))
                ids[a] = e
                sgn[a] = 1
            else:
                e = match
                if edge_cells[e][1] != -1:
                    raise MeshError("edge shared by more than two cells")
                edge_cells[e][1] = ci
                # lattice shift mapping left-frame edge coords into this frame
                s = mid - 0.5 * (edge_coords[e][0] + edge_coords[e][1])
                s[np.abs(s) < tol] = 0.0
                edge_shift[e] = s
                ids[a] = e
                sgn[a] = -1
        cell_edges.append(ids)
        cell_sign.append(sgn)
    mesh = PolyMesh(vertices, cells, cell_coords=coords,
                    edges=np.asarray(edges, dtype=np.int64),
                    edge_coords=np.asarray(edge_coords),
                    edge_cells=np.asarray(edge_cells, dtype=np.int64),
                    edge_shift=np.asarray(edge_shift),
                    cell_edges=cell_edges, cell_edge_sign=cell_sign,
                    periodic=tuple(periodic))
    # boundary tags by geometric side
    for e in range(mesh.n_edges):
        if mesh.edge_cells[e, 1] >= 0:
            continue
        m = mesh.edge_coords[e].mean(axis=0)
        if abs(m[0] - xlo) < tol:
            tag = "xmin"
        elif abs(m[0] - xhi) < tol:
            tag = "xmax"
        elif abs(m[1] - ylo) < tol:
            tag = "ymin"
        elif abs(m[1] - yhi) < tol:
            tag = "ymax"
        elif hole_center is not None and abs(
                np.hypot(*(m - np.asarray(hole_center))) - hole_radius) < 0.3 * hole_radius:
            tag = "hole"
        else:
            raise MeshError(f"boundary edge {e} lies on no tagged boundary")
        mesh.boundary_tags[int(e)] = tag
    return mesh


def generate_voronoi(box, n_seeds: int, lloyd_iters: int = 20, seed: int = 0,
                     periodic=(False, False), density=None,
                     hole_center=None, hole_radius: float = 0.0) -> PolyMesh:
    """Clipped (optionally periodic) Lloyd-relaxed Voronoi tessellation of a box.

    Deterministic for a fixed rng seed.  `density` is an optional callable
    rho(x, y) weighting the Lloyd centroids (graded meshes).  `hole_*` carves
    a chord-polygon approximation of a circular obstacle.
    """
    if n_seeds < 4:
        raise MeshError("need at least 4 seeds")
    xlo, xhi, ylo, yhi = box
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
        polys = _voronoi_polygons(pts, box, periodic, hole_center, hole_radius)
        _, new = polygon_areas_centroids(polys)
        if density is not None:
            new = np.array([_weighted_centroid(p, c, density) for p, c in zip(polys, new)])
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
    polys = _voronoi_polygons(pts, box, periodic, hole_center, hole_radius)
    return _assemble_mesh(polys, box, periodic, max(xhi - xlo, yhi - ylo),
                          hole_center, hole_radius)


def generate_rect(box, nx: int, ny: int, periodic=(False, False)) -> PolyMesh:
    """Structured quadrilateral mesh of a box (optionally periodic)."""
    xlo, xhi, ylo, yhi = box
    xs = np.linspace(xlo, xhi, nx + 1)
    ys = np.linspace(ylo, yhi, ny + 1)
    polys = []
    for j in range(ny):
        for i in range(nx):
            polys.append(np.array([[xs[i], ys[j]], [xs[i + 1], ys[j]],
                                   [xs[i + 1], ys[j + 1]], [xs[i], ys[j + 1]]]))
    return _assemble_mesh(polys, box, periodic, max(xhi - xlo, yhi - ylo))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

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
        for loop in mesh.cells:
            f.write(str(len(loop)) + " " + " ".join(str(int(v)) for v in loop) + "\n")
        tags = sorted(mesh.boundary_tags.items())
        f.write(f"{len(tags)}\n")
        for e, tag in tags:
            a, b = mesh.edges[e]
            f.write(f"{a} {b} {tag}\n")


def read_mesh(path: str) -> PolyMesh:
    """Inverse of write_mesh; parse errors carry 1-based line numbers."""
    with open(path) as f:
        lines = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshError(f"{path}:{lineno}: {msg}")

    if not lines:
        fail(1, "empty file")
    head = lines[0].split()
    if len(head) != 2:
        fail(1, "expected 'NV NP'")
    try:
        nv, nc = int(head[0]), int(head[1])
    except ValueError:
        nv = nc = 0
        fail(1, "expected integer counts")
    if len(lines) < 1 + nv + nc:
        fail(len(lines), "file truncated")
    verts = np.empty((nv, 2))
    for i in range(nv):
        parts = lines[1 + i].split()
        if len(parts) != 2:
            fail(2 + i, "expected 'x y'")
        verts[i] = [float(parts[0]), float(parts[1])]
    cells = []
    for c in range(nc):
        lineno = 1 + nv + c
        parts = lines[lineno].split()
        if not parts:
            fail(lineno + 1, "empty cell line")
        n = int(parts[0])
        if len(parts) != n + 1:
            fail(lineno + 1, f"expected {n} vertex indices")
        loop = np.array([int(p) for p in parts[1:]], dtype=np.int64)
        if np.any(loop < 0) or np.any(loop >= nv):
            fail(lineno + 1, "vertex index out of range")
        if _signed_area(verts[loop]) <= 0.0:
            fail(lineno + 1, "cell loop is not counter-clockwise")
        cells.append(loop)
    mesh = PolyMesh(verts, cells)
    pos = 1 + nv + nc
    if pos < len(lines) and lines[pos].strip():
        nb = int(lines[pos])
        lookup = {}
        for e, (a, b) in enumerate(mesh.edges):
            lookup[(min(a, b), max(a, b))] = e
        for t in range(nb):
            lineno = pos + 1 + t
            parts = lines[lineno].split()
            if len(parts) != 3:
                fail(lineno + 1, "expected 'vertexA vertexB tag'")
            a, b = int(parts[0]), int(parts[1])
            key = (min(a, b), max(a, b))
            if key not in lookup:
                fail(lineno + 1, f"no edge between vertices {a} and {b}")
            mesh.boundary_tags[lookup[key]] = parts[2]
    return mesh
