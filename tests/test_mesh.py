import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import Delaunay, Voronoi
from scipy.special import roots_legendre

from fvvem import mesh as fm
from fvvem.harness import cases

MESHES = Path(__file__).parent / "meshes"


def unit_square():
    return fm.PolyMesh.from_loops(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                                  [np.array([0, 1, 2, 3])],
                                  boundary_tags={0: "ymin", 1: "xmax", 2: "ymax", 3: "xmin"})


def regular_polygon(n, radius=1.0, center=(0.0, 0.0)):
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang)])


class TestGeometry:
    def test_unit_square(self):
        m = unit_square()
        g = fm.build_geometry(m)
        assert g.area[0] == pytest.approx(1.0, abs=0.0)
        assert np.allclose(g.barycenter[0], [0.5, 0.5])
        assert g.h[0] == 1.0

    def test_regular_hexagon_area(self):
        pts = regular_polygon(6)
        m = fm.PolyMesh.from_loops(pts, [np.arange(6)],
                                   boundary_tags={e: "outer" for e in range(6)})
        g = fm.build_geometry(m)
        assert g.area[0] == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-14)

    def test_random_convex_pentagon_shoelace(self):
        rng = np.random.default_rng(7)
        ang = np.sort(rng.uniform(0, 2 * np.pi, 5))
        r = rng.uniform(0.5, 1.5, 5)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        m = fm.PolyMesh.from_loops(pts, [np.arange(5)],
                                   boundary_tags={e: "outer" for e in range(5)})
        g = fm.build_geometry(m)
        # independent shoelace evaluation
        x, y = pts[:, 0], pts[:, 1]
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert g.area[0] == pytest.approx(shoelace, rel=1e-14)

    def test_degenerate_cell_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        m = fm.PolyMesh.from_loops(pts, [np.arange(3)])
        with pytest.raises(fm.MeshError):
            fm.build_geometry(m)

    def test_normals_closed(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 30, lloyd_iters=5, seed=3)
        g = fm.build_geometry(m)
        for ci in range(m.n_cells):
            acc = np.zeros(2)
            for e, s in zip(fm.ragged_rows(m.cell_ptr, m.loop_edges, ci),
                            fm.ragged_rows(m.cell_ptr, m.loop_signs, ci)):
                acc += s * g.edge_length[e] * g.edge_normal[e]
            assert np.abs(acc).max() < 1e-13


def edge_gauss_lobatto(va: np.ndarray, vb: np.ndarray, k: int) -> fm.QuadRule:
    """Gauss-Lobatto rule along segment va->vb: endpoints plus k-1 interior points."""
    t, w = fm.gauss_lobatto_reference(k)
    nodes = va[None, :] + 0.5 * (t[:, None] + 1.0) * (vb - va)[None, :]
    length = float(np.hypot(*(vb - va)))
    return fm.QuadRule(nodes, 0.5 * length * w, 2 * k - 1)


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


@st.composite
def star_polygons(draw):
    """Simple polygon with 3-12 vertices: sorted angles about a centre, either
    orientation."""
    n = draw(st.integers(min_value=3, max_value=12))
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    cx, cy = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    ang = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    pts = np.column_stack([cx + radii * np.cos(ang), cy + radii * np.sin(ang)])
    return pts[::-1] if draw(st.booleans()) else pts


class TestGroupedShoelace:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(star_polygons(), min_size=1, max_size=20))
    def test_equals_the_per_polygon_formula_bitwise(self, polys):
        area, centroid = fm.polygon_areas_centroids(np.concatenate(polys),
                                                    [len(p) for p in polys])
        for i, pts in enumerate(polys):
            x, y = pts[:, 0], pts[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            a = 0.5 * np.sum(cross)
            c = np.array([np.sum((x + xn) * cross), np.sum((y + yn) * cross)]) / (6.0 * a)
            assert area[i] == a
            assert np.array_equal(centroid[i], c)


def is_simple(pts) -> bool:
    """Per-polygon reference: no two non-adjacent sides cross (brute force)."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    n = len(pts)
    for a in range(n):
        for b in range(a + 2, n):
            if (b + 1) % n == a:
                continue
            p1, p2, q1, q2 = pts[a], pts[(a + 1) % n], pts[b], pts[(b + 1) % n]
            if ((orient(q1, q2, p1) > 0) != (orient(q1, q2, p2) > 0)
                    and (orient(p1, p2, q1) > 0) != (orient(p1, p2, q2) > 0)):
                return False
    return n >= 3


class TestRegularity:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(3, 9), min_size=1, max_size=12), st.integers(0, 10 ** 6))
    def test_self_crossing_equals_the_per_polygon_test(self, sizes, seed):
        # random vertex orders: many of the loops cross themselves
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (sum(sizes), 2))
        start = np.cumsum([0] + sizes)
        want = [not is_simple(pts[a:b]) for a, b in zip(start[:-1], start[1:])]
        assert list(fm._self_crossing(pts, np.array(sizes))) == want

    @pytest.mark.parametrize("periodic", [(False, False), (True, True)])
    def test_report_equals_the_per_cell_loop(self, periodic):
        m = fm.generate_voronoi((0, 1, 0, 1), 60, lloyd_iters=2, seed=3, periodic=periodic)
        g = fm.build_geometry(m)
        rep = fm.validate_regularity(m, g, 0.1)
        for ci in range(m.n_cells):
            pts = m.cell_coords(ci)
            d = np.roll(pts, -1, axis=0) - pts
            rel = g.barycenter[ci] - pts
            assert rep.min_edge_ratio[ci] == np.hypot(d[:, 0], d[:, 1]).min() / g.h[ci]
            assert rep.star_shaped[ci] == np.all(d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0] > 0)

    def test_square_passes(self):
        m = unit_square()
        g = fm.build_geometry(m)
        rep = fm.validate_regularity(m, g, 0.1)
        assert rep.all_passed

    def test_short_edge_fails(self):
        eps = 1e-9
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0 - eps], [1.0 - eps, 1.0], [0.0, 1.0]])
        m = fm.PolyMesh.from_loops(pts, [np.arange(5)],
                                   boundary_tags={e: "outer" for e in range(5)})
        g = fm.build_geometry(m)
        rep = fm.validate_regularity(m, g, 0.1)
        assert not rep.all_passed
        assert rep.worst_edge_ratio < 1e-8

    def test_lloyd_mesh_passes(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 100, lloyd_iters=25, seed=11)
        g = fm.build_geometry(m)
        rep = fm.validate_regularity(m, g, 0.05)
        assert rep.all_passed


class TestInteriorQuadrature:
    def test_x2_on_unit_square(self):
        m = unit_square()
        g = fm.build_geometry(m)
        rule = fm.polygon_quadrature(m.cell_coords(0), g.barycenter[0], 2)
        val = np.sum(rule.weights * rule.nodes[:, 0] ** 2)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_weights_sum_to_area(self):
        m = fm.generate_voronoi((0, 2, 0, 1), 40, lloyd_iters=5, seed=1)
        g = fm.build_geometry(m)
        for ci in range(m.n_cells):
            rule = fm.polygon_quadrature(m.cell_coords(ci), g.barycenter[ci], 3)
            assert np.sum(rule.weights) == pytest.approx(g.area[ci], rel=1e-14)

    def test_x3y2_on_hexagon_vs_refined_oracle(self):
        pts = regular_polygon(6)
        m = fm.PolyMesh.from_loops(pts, [np.arange(6)],
                                   boundary_tags={e: "outer" for e in range(6)})
        g = fm.build_geometry(m)
        rule = fm.polygon_quadrature(m.cell_coords(0), g.barycenter[0], 5)
        val = np.sum(rule.weights * rule.nodes[:, 0] ** 3 * rule.nodes[:, 1] ** 2)
        oracle = fm.polygon_quadrature(pts, g.barycenter[0], 12)
        ref = np.sum(oracle.weights * oracle.nodes[:, 0] ** 3 * oracle.nodes[:, 1] ** 2)
        assert val == pytest.approx(ref, abs=1e-13)

    def test_monomial_exactness_vs_greens_oracle(self):
        rng = np.random.default_rng(5)
        ang = np.sort(rng.uniform(0, 2 * np.pi, 7))
        r = rng.uniform(0.85, 1.15, 7)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        m = fm.PolyMesh.from_loops(pts, [np.arange(7)],
                                   boundary_tags={e: "outer" for e in range(7)})
        g = fm.build_geometry(m)
        for d in range(0, 9):
            rule = fm.polygon_quadrature(m.cell_coords(0), g.barycenter[0], d)
            for p in range(d + 1):
                for q in range(d + 1 - p):
                    val = np.sum(rule.weights * rule.nodes[:, 0] ** p * rule.nodes[:, 1] ** q)
                    ref = monomial_integral_greens(pts, p, q)
                    assert val == pytest.approx(ref, rel=1e-13, abs=1e-14), (d, p, q)

    @settings(max_examples=50, deadline=None)
    @given(star_polygons(), st.integers(min_value=0, max_value=6))
    def test_fan_rule_equals_triangle_by_triangle_bitwise(self, pts, degree):
        v0 = fm.polygon_areas_centroids(pts, [len(pts)])[1][0]
        ref_pts, ref_w = fm.triangle_rule(degree)
        nodes, weights = [], []
        for a in range(len(pts)):
            v1, v2 = pts[a], pts[(a + 1) % len(pts)]
            j = (v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0]
            nodes.append(v0 + ref_pts[:, :1] * (v1 - v0) + ref_pts[:, 1:] * (v2 - v0))
            weights.append(ref_w * j)
        if min(w[0] for w in weights) <= 0.0:
            with pytest.raises(fm.MeshError, match="star-shaped"):
                fm.polygon_quadrature(pts, v0, degree)
            return
        rule = fm.polygon_quadrature(pts, v0, degree)
        assert np.array_equal(rule.nodes, np.vstack(nodes))
        assert np.array_equal(rule.weights, np.concatenate(weights))

    def test_triangle_rule_is_memoized_read_only(self):
        pts, w = fm.triangle_rule(4)
        again = fm.triangle_rule(4)
        assert again[0] is pts and again[1] is w
        assert not pts.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_degree_cap(self):
        m = unit_square()
        g = fm.build_geometry(m)
        with pytest.raises(fm.MeshError):
            fm.polygon_quadrature(m.cell_coords(0), g.barycenter[0], 99)


class TestEdgeGaussLobatto:
    def test_k1_trapezoid(self):
        rule = edge_gauss_lobatto(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 1)
        assert np.allclose(rule.nodes, [[0, 0], [2, 0]])
        assert np.allclose(rule.weights, [1.0, 1.0])

    def test_k2_simpson(self):
        rule = edge_gauss_lobatto(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 2)
        assert np.allclose(rule.nodes[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(rule.weights, [1 / 6, 4 / 6, 1 / 6])

    def test_k3_degree5_exact(self):
        # nodes at +-1, +-1/sqrt(5) on the reference edge; integral of t^5 on
        # a generic segment matches the closed form
        va, vb = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
        rule = edge_gauss_lobatto(va, vb, 3)
        assert np.allclose(np.sort(rule.nodes[:, 0]),
                           [-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0])
        for p in range(6):
            val = np.sum(rule.weights * rule.nodes[:, 0] ** p)
            exact = (1.0 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            assert val == pytest.approx(exact, abs=1e-14)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            fm.gauss_lobatto_reference(0)


def full_image_polygons(seeds, box, periodic, hole_center, hole_radius):
    """Oracle for fm._voronoi_polygons: the diagram of the seeds with every
    periodic tile, every mirror across a non-periodic side (corners included)
    and the hole mirrors, its base regions oriented and clipped."""
    xlo, xhi, ylo, yhi = box
    lx, ly = xhi - xlo, yhi - ylo
    sx = (-lx, 0.0, lx) if periodic[0] else (0.0,)
    sy = (-ly, 0.0, ly) if periodic[1] else (0.0,)
    pts = np.vstack([seeds] + [seeds + [dx, dy] for dx in sx for dy in sy if dx or dy])
    for axis, (lo, hi) in enumerate(((xlo, xhi), (ylo, yhi))):
        if not periodic[axis]:
            low, high = pts.copy(), pts.copy()
            low[:, axis] = 2.0 * lo - pts[:, axis]
            high[:, axis] = 2.0 * hi - pts[:, axis]
            pts = np.vstack([pts, low, high])
    if hole_center is not None:
        r = np.hypot(*(seeds - hole_center).T)
        near = (r < 2.5 * hole_radius) & (r > hole_radius)
        scale = 2.0 * hole_radius / r[near] - 1.0
        pts = np.vstack([pts, hole_center + (seeds[near] - hole_center) * scale[:, None]])
    vor = Voronoi(pts)
    sides = [(np.array(nrm), c) for nrm, c, axis in (
        ([-1.0, 0.0], -xlo, 0), ([1.0, 0.0], xhi, 0), ([0.0, -1.0], -ylo, 1),
        ([0.0, 1.0], yhi, 1)) if not periodic[axis]]
    polys = []
    for i in range(len(seeds)):
        region = vor.regions[vor.point_region[i]]
        if -1 in region:
            raise fm.MeshError("unbounded Voronoi cell")
        poly = vor.vertices[region]
        if fm.polygon_areas_centroids(poly, [len(poly)])[0][0] < 0.0:
            poly = poly[::-1]
        for nrm, c in sides:
            poly = fm._clip_to_halfplane(poly, nrm, c)
        if hole_center is not None:
            poly = fm._clip_cell_outside_circle(poly, np.asarray(hole_center), hole_radius)
        polys.append(poly)
    return polys


def assert_same_cells(polys, oracle, tol=1e-12):
    """Per-cell areas and centroids of the concatenated polygons (points,
    loop sizes) agree with those of the oracle's polygon list to tol."""
    area, centroid = fm.polygon_areas_centroids(*polys)
    ref_area, ref_centroid = fm.polygon_areas_centroids(np.concatenate(oracle),
                                                        [len(p) for p in oracle])
    assert np.abs(area - ref_area).max() <= tol
    assert np.abs(centroid - ref_centroid).max() <= tol


def spurious_side_vertices(m, box) -> list:
    """Vertices on the box sides, corners aside, whose two side edges lie in one
    cell: points that split a side without a neighbouring cell's edge there."""
    xlo, xhi, ylo, yhi = box
    cells = {}
    for e, tag in m.boundary_tags.items():
        for v in m.edges[e] if tag != "hole" else ():
            cells.setdefault(int(v), []).append(int(m.edge_cells[e, 0]))
    return [v for v, c in cells.items() if len(c) == 2 and c[0] == c[1]
            and not (m.vertices[v, 0] in (xlo, xhi) and m.vertices[v, 1] in (ylo, yhi))]


DOMAINS = {
    "box": dict(box=(0.0, 3.0, 0.0, 2.0)),
    "torus": dict(box=(0.0, 1.0, 0.0, 1.0), periodic=(True, True)),
    "one_axis": dict(box=(0.0, 2.0, 0.0, 1.0), periodic=(False, True)),
    "hole": dict(box=(-4.0, 4.0, -4.0, 4.0), hole_center=(0.0, 0.0), hole_radius=1.0),
}


def graded_density(x, y):
    return 1.0 / np.clip(0.05 + 0.45 * (np.hypot(x, y) - 1.0) / 15.0, 0.05, 0.5) ** 2


# name -> (generate_voronoi arguments, edge count of the generator before its
# diagrams took band-limited images, spurious side vertices that generator
# left in the mesh: each split a boundary side into one boundary edge more)
GOLDEN_MESHES = {
    "box": (dict(box=(0, 3, 0, 2), n_seeds=77, lloyd_iters=4, seed=9), 229, 1),
    "torus": (dict(box=(0, 1, 0, 1), n_seeds=40, lloyd_iters=8, seed=6,
                   periodic=(True, True)), 118, 0),
    "one_axis": (dict(box=(0, 2, 0, 1), n_seeds=30, lloyd_iters=6, seed=8,
                      periodic=(False, True)), 89, 0),
    "hole": (dict(box=(-4, 4, -4, 4), n_seeds=150, lloyd_iters=5, seed=12,
                  hole_center=(0.0, 0.0), hole_radius=1.0), 449, 0),
    "density": (dict(box=(-16, 16, -16, 16), n_seeds=200, lloyd_iters=4, seed=1,
                     hole_center=(0.0, 0.0), hole_radius=1.0, density=graded_density),
                589, 0),
}


class TestVoronoi:
    def test_four_symmetric_seeds(self):
        # Lloyd-converged 4-seed square mesh: 4 congruent quads
        m = fm.generate_voronoi((0, 1, 0, 1), 4, lloyd_iters=60, seed=2)
        g = fm.build_geometry(m)
        assert m.n_cells == 4
        assert np.allclose(g.area, 0.25, atol=1e-3)

    def test_partition_of_box(self):
        m = fm.generate_voronoi((0, 3, 0, 2), 77, lloyd_iters=4, seed=9)
        g = fm.build_geometry(m)
        assert np.sum(g.area) == pytest.approx(6.0, rel=1e-12)
        m.validate(domain_area=6.0)

    def test_lloyd_uniformity(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 100, lloyd_iters=50, seed=4)
        g = fm.build_geometry(m)
        assert g.h.max() / g.h.min() <= 3.0

    def test_periodic_partition_and_edges(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 40, lloyd_iters=8, seed=6, periodic=(True, True))
        g = fm.build_geometry(m)
        assert np.sum(g.area) == pytest.approx(1.0, rel=1e-12)
        assert not m.boundary_tags          # no boundary on a torus
        assert np.all(m.edge_cells[:, 1] >= 0)
        shifted = np.abs(m.edge_shift).max(axis=1) > 0
        assert shifted.any()
        # every cell's discrete divergence of a constant closes despite shifts
        for ci in range(m.n_cells):
            acc = np.zeros(2)
            for e, s in zip(fm.ragged_rows(m.cell_ptr, m.loop_edges, ci),
                            fm.ragged_rows(m.cell_ptr, m.loop_signs, ci)):
                acc += s * g.edge_length[e] * g.edge_normal[e]
            assert np.abs(acc).max() < 1e-12

    def test_periodic_one_axis(self):
        m = fm.generate_voronoi((0, 2, 0, 1), 30, lloyd_iters=6, seed=8, periodic=(False, True))
        g = fm.build_geometry(m)
        assert np.sum(g.area) == pytest.approx(2.0, rel=1e-12)
        tags = set(m.boundary_tags.values())
        assert tags == {"xmin", "xmax"}

    def test_hole_mesh(self):
        m = fm.generate_voronoi((-4, 4, -4, 4), 300, lloyd_iters=10, seed=12,
                                hole_center=(0.0, 0.0), hole_radius=1.0)
        g = fm.build_geometry(m)
        assert "hole" in set(m.boundary_tags.values())
        # tangent-chord hole slightly circumscribes the unit disc
        assert 64.0 - 1.1 * np.pi < np.sum(g.area) < 64.0 - 0.95 * np.pi

    @pytest.mark.parametrize("n", [6, 9, 12, 30, 60])
    @pytest.mark.parametrize("radius", ["spacing", 0.03], ids=["spacing", "tiny"])
    def test_small_hole_builds_or_names_the_hole(self, n, radius):
        # a hole below about one seed spacing used to fail on an edge beyond
        # 0.3 r of the circle, or to vanish without an error
        r = 0.7 / np.sqrt(n) if radius == "spacing" else radius
        for seed in range(4):
            try:
                m = fm.generate_voronoi((0, 1, 0, 1), n, lloyd_iters=3, seed=seed,
                                        hole_center=(0.5, 0.5), hole_radius=r)
            except fm.MeshError as exc:
                assert str(exc).startswith(f"the hole (radius {r:g} at (0.5, 0.5))"), seed
                continue
            m.validate()
            assert "hole" in m.boundary_tags.values(), seed

    @pytest.mark.parametrize("name, seed", [("swe_cylinder", 5), ("ins_cylinder", 0)])
    def test_cylinder_hole_edges_lie_near_the_circle(self, name, seed):
        # every boundary edge off the box sides is tagged `hole`: on these
        # meshes, the edges whose midpoint lies within 0.3 r of the circle
        m = cases.get_case(name, seed=seed, n_cells=400).make_mesh()
        mid = m.edge_coords.mean(axis=1)
        near = (np.abs(np.hypot(mid[:, 0], mid[:, 1]) - 1.0) < 0.3) & (m.edge_cells[:, 1] < 0)
        assert sorted(e for e, tag in m.boundary_tags.items() if tag == "hole") == \
            np.flatnonzero(near).tolist()

    @pytest.mark.parametrize("radius, covers", [(0.82, True), (0.68, True), (0.6, False)])
    def test_hole_that_covers_the_box_raises(self, radius, covers):
        # seeds are resampled until they lie 1.05 r from the centre; at
        # r >= 0.68 no point of the unit box does, and sampling never ended
        def expired(*_):
            raise TimeoutError("generate_voronoi still sampling after 20 s")
        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(20)
        try:
            make = lambda: fm.generate_voronoi((0, 1, 0, 1), 6, lloyd_iters=3, seed=0,
                                               hole_center=(0.5, 0.5), hole_radius=radius)
            if covers:
                with pytest.raises(fm.MeshError, match="covers the box"):
                    make()
            else:
                assert make().n_cells == 6
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_voronoi_invariants_property(self, seed):
        m = fm.generate_voronoi((0, 1, 0, 1), 24, lloyd_iters=3, seed=seed)
        m.validate(domain_area=1.0)

    # cell count, per-cell areas and centroids (meshes/voronoi_goldens.npz)
    # and edge counts of the generator before its diagrams took band-limited
    # images; those do not depend on how vertices and edges are numbered
    @pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
    def test_golden_fingerprint(self, name):
        kwargs, parent_edges, spurious = GOLDEN_MESHES[name]
        m = fm.generate_voronoi(**kwargs)
        golden = np.load(MESHES / "voronoi_goldens.npz")
        area, centroid = fm.polygon_areas_centroids(m.loop_coords, m.cell_sizes)
        assert m.n_cells == len(golden[f"{name}_area"])
        assert np.abs(area - golden[f"{name}_area"]).max() <= 1e-12
        assert np.abs(centroid - golden[f"{name}_centroid"]).max() <= 1e-12
        assert not spurious_side_vertices(m, kwargs["box"])
        assert m.n_edges == parent_edges - spurious

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(DOMAINS)), st.integers(min_value=8, max_value=80),
           st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10_000))
    def test_polygons_equal_the_full_image_oracle(self, domain, n, lloyd, seed):
        args = DOMAINS[domain]
        box, periodic = args["box"], args.get("periodic", (False, False))
        hole = args.get("hole_center"), args.get("hole_radius", 0.0)
        n += 60 if hole[0] is not None else 0
        calls = []
        real = fm._voronoi_polygons

        def recording(seeds, *rest):
            calls.append(seeds.copy())
            return real(seeds, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "_voronoi_polygons", recording)
            try:
                fm.generate_voronoi(n_seeds=n, lloyd_iters=lloyd, seed=seed, **args)
            except fm.MeshError:
                pass      # each call up to the failing one is still compared
        assert calls
        for seeds in calls:
            try:
                oracle = full_image_polygons(seeds, box, periodic, *hole)
            except fm.MeshError:
                with pytest.raises(fm.MeshError):
                    real(seeds, box, periodic, *hole)
                continue
            assert_same_cells(real(seeds, box, periodic, *hole), oracle)

    @pytest.mark.parametrize("periodic, low, high", [
        ((False, False), 0.4, 0.6),   # no image in the band: unbounded regions
        ((True, True), 0.0, 0.25),    # bounded regions that a left-out image cuts
    ], ids=["centre_cluster_box", "corner_cluster_torus"])
    def test_clustered_seeds_fall_back_to_every_image(self, monkeypatch, periodic, low, high):
        # most seeds packed in a small square, four spread over the box: the
        # band of 2.5 mean spacings is too narrow for the sparse cells
        rng = np.random.default_rng(0)
        seeds = np.vstack([rng.uniform(low, high, (36, 2)), rng.uniform(0.0, 1.0, (4, 2))])
        built = []

        def counting(points):
            built.append(len(points))
            return Delaunay(points)

        monkeypatch.setattr(fm, "Delaunay", counting)
        polys = fm._voronoi_polygons(seeds, (0, 1, 0, 1), periodic, None, 0.0)
        assert len(built) == 2 and built[1] == 9 * len(seeds) > built[0]
        assert_same_cells(polys, full_image_polygons(seeds, (0, 1, 0, 1), periodic, None, 0.0))
        # relaxed seeds take the band images alone
        built.clear()
        grid = (np.arange(7) + 0.5) / 7
        relaxed = np.column_stack([np.repeat(grid, 7), np.tile(grid, 7)])
        relaxed += rng.uniform(-0.02, 0.02, relaxed.shape)
        polys = fm._voronoi_polygons(relaxed, (0, 1, 0, 1), periodic, None, 0.0)
        assert len(built) == 1 and built[0] < 9 * len(relaxed)
        assert_same_cells(polys, full_image_polygons(relaxed, (0, 1, 0, 1), periodic, None, 0.0))

    # vertex and edge counts of a 6 x 6 lattice mesh on each domain
    LATTICE = {"box": (49, 84), "torus": (36, 72), "one_axis": (42, 78)}

    @pytest.mark.parametrize("domain", sorted(LATTICE))
    def test_lattice_seeds_give_the_oracle_cells(self, domain):
        # each lattice cell's corner is equidistant from four seeds, and the
        # mirror images repeat that at the sides: the triangulation gives
        # each Voronoi vertex as two circumcentres equal only to roundoff
        box, periodic = DOMAINS[domain]["box"], DOMAINS[domain].get("periodic", (False, False))
        xlo, xhi, ylo, yhi = box
        gx = xlo + (np.arange(6) + 0.5) * (xhi - xlo) / 6
        gy = ylo + (np.arange(6) + 0.5) * (yhi - ylo) / 6
        seeds = np.column_stack([np.repeat(gx, 6), np.tile(gy, 6)])
        polys = fm._voronoi_polygons(seeds, box, periodic, None, 0.0)
        assert_same_cells(polys, full_image_polygons(seeds, box, periodic, None, 0.0))
        m = fm._assemble_mesh(*polys, box, periodic, max(xhi - xlo, yhi - ylo))
        m.validate(domain_area=(xhi - xlo) * (yhi - ylo))
        assert m.n_cells == 36 and np.all(m.cell_sizes == 4)
        assert (m.n_vertices, m.n_edges) == self.LATTICE[domain]
        if not any(periodic):
            assert_same_edge_tables(m, oracle_edge_tables(m.vertices, vertex_loops(m)))

    @pytest.mark.parametrize("periodic", [(False, False), (True, True)], ids=["box", "torus"])
    def test_seed_within_roundoff_of_another_raises(self, periodic):
        # qhull keeps one of two points within roundoff as coplanar, not as
        # a vertex of the triangulation
        seeds = np.random.default_rng(5).uniform(0.1, 0.9, (30, 2))
        seeds[7] = np.nextafter(seeds[3], 1.0)
        with pytest.raises(fm.MeshError, match="seed [37] is no vertex of the Delaunay"):
            fm._voronoi_polygons(seeds, (0, 1, 0, 1), periodic, None, 0.0)

    @pytest.mark.parametrize("name, params, seed", [
        ("swe_smooth_wave", dict(h=0.12), 29),
        ("ins_tgv", dict(h=0.45), 13005),
    ], ids=["wave_29", "tgv_13005"])
    def test_collapse_does_not_depend_on_loop_starts(self, name, params, seed):
        # polygons with chains of short edges, whose merged vertex used to
        # land on the midpoint of the chain's last edge in loop order
        real, calls = fm._assemble_mesh, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "_assemble_mesh", lambda *args: calls.append(args) or real(*args))
            cases.get_case(name, seed=seed, **params).make_mesh()
        pts, sizes, *rest = calls[-1]
        start = np.cumsum(sizes) - sizes
        meshes = []
        for k in (0, 1, 2):
            pos = np.concatenate([a + np.roll(np.arange(n), -k) for a, n in zip(start, sizes)])
            meshes.append(real(pts[pos], sizes, *rest))
        ref = meshes[0]
        for m in meshes[1:]:
            assert (m.n_vertices, m.n_edges) == (ref.n_vertices, ref.n_edges)
            assert np.array_equal(m.cell_sizes, ref.cell_sizes)
            assert np.abs(fm.build_geometry(m).barycenter
                          - fm.build_geometry(ref).barycenter).max() <= 1e-12

    def test_boundary_vertices_lie_on_their_side(self):
        # a vertex within roundoff of a side used to be clipped as outside it,
        # and the clip then split the cell's side at a spurious vertex
        sides = {"xmin": (0, 0.0), "xmax": (0, 1.0), "ymin": (1, 0.0), "ymax": (1, 1.0)}
        for seed in range(40):
            m = fm.generate_voronoi((0, 1, 0, 1), 40, lloyd_iters=5, seed=seed)
            assert not spurious_side_vertices(m, (0, 1, 0, 1)), seed
            for e, tag in m.boundary_tags.items():
                axis, value = sides[tag]
                assert np.all(m.vertices[m.edges[e], axis] == value), seed
                assert np.all(m.edge_coords[e][:, axis] == value), seed

    @pytest.mark.parametrize("make", [
        *(lambda s=s: cases.get_case("ins_cylinder", seed=s, n_cells=400).make_mesh()
          for s in range(8)),
        lambda: cases.get_case("ins_cylinder", seed=0, n_cells=1500).make_mesh(),
        lambda: cases.get_case("swe_cylinder", seed=5, n_cells=400).make_mesh(),
        lambda: fm.generate_voronoi((0, 1, 0, 1), 120, lloyd_iters=5, seed=2,
                                    density=lambda x, y: 1 + 4 * x),
    ], ids=[*(f"ins_cylinder_400_seed{s}" for s in range(8)), "ins_cylinder_1500_seed0",
            "swe_cylinder_400_seed5", "box_density_seed2"])
    def test_graded_mesh_builds(self, make):
        # the box clip repeats vertices on the clip lines; the density
        # centroids used to fail on their zero-length fan triangles
        m = make()
        m.validate()
        assert fm.validate_regularity(m, fm.build_geometry(m), 0.05).all_passed

    def test_weighted_centroid_ignores_repeated_vertex(self):
        pts = regular_polygon(6, radius=2.0, center=(1.0, -1.0))
        repeated = np.insert(pts, 2, pts[2] + [1e-17, 0.0], axis=0)
        dens = lambda x, y: 1.0 + x * x
        c = np.array([1.0, -1.0])
        assert np.array_equal(fm._weighted_centroid(repeated, c, dens),
                              fm._weighted_centroid(pts, c, dens))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(fm.MeshError):
            fm.generate_voronoi((0, 1, 0, 1), 3, lloyd_iters=0, seed=0)


class TestRect:
    def test_rect_counts(self):
        m = fm.generate_rect((0, 1, 0, 1), 4, 3)
        assert m.n_cells == 12
        assert m.n_vertices == 20
        m.validate(domain_area=1.0)

    def test_rect_periodic_y(self):
        m = fm.generate_rect((0, 1, 0, 1), 5, 4, periodic=(False, True))
        g = fm.build_geometry(m)
        assert np.sum(g.area) == pytest.approx(1.0, rel=1e-13)
        assert set(m.boundary_tags.values()) == {"xmin", "xmax"}


    def test_rect_torus_two_by_two(self):
        # each pair of neighbours meets across two edges that join the same
        # two vertices, told apart by their midpoints
        m = fm.generate_rect((0, 1, 0, 1), 2, 2, periodic=(True, True))
        g = fm.build_geometry(m)
        assert m.n_vertices == 4 and m.n_edges == 8 and not m.boundary_tags
        assert all(len(set(fm.ragged_rows(m.cell_ptr, m.loop_edges, ci).tolist())) == 4
                   for ci in range(m.n_cells))
        pairs = {}
        for e, (a, b) in enumerate(m.edge_cells):
            pairs.setdefault((int(a), int(b)), []).append(e)
        assert sorted(len(es) for es in pairs.values()) == [2, 2, 2, 2]
        for es in pairs.values():
            shift = np.abs(m.edge_shift[es]).max(axis=1)
            assert sorted(shift) == [0.0, 1.0]
        for ci in range(m.n_cells):
            acc = sum(s * g.edge_length[e] * g.edge_normal[e]
                      for e, s in zip(fm.ragged_rows(m.cell_ptr, m.loop_edges, ci),
                                      fm.ragged_rows(m.cell_ptr, m.loop_signs, ci)))
            assert np.abs(acc).max() < 1e-15


    def test_rect_one_axis_two_rows(self):
        # both xmin edges join the same two vertices, one of them across the
        # seam: two boundary edges, not one edge shared by the two cells
        m = fm.generate_rect((0, 1, 0, 1), 1, 2, periodic=(False, True))
        assert m.n_vertices == 4 and m.n_edges == 6
        assert sorted(m.boundary_tags.values()) == ["xmax", "xmax", "xmin", "xmin"]
        assert np.all(m.edge_cells[[e for e in range(6) if e not in m.boundary_tags], 1] >= 0)


def oracle_edge_tables(vertices, cells) -> dict:
    """The edge tables of a mesh built from vertex loops, by a dict over the
    half-edges in cell order: an edge is numbered, directed and given its
    left cell by its first half-edge; the second one gets sign -1."""
    edge_ids, edges, edge_cells, loop_edges, loop_signs = {}, [], [], [], []
    for ci, loop in enumerate(cells):
        for a in range(len(loop)):
            va, vb = int(loop[a]), int(loop[(a + 1) % len(loop)])
            key = (min(va, vb), max(va, vb))
            if key not in edge_ids:
                edge_ids[key] = len(edges)
                edges.append((va, vb))
                edge_cells.append([ci, -1])
                loop_edges.append(edge_ids[key])
                loop_signs.append(1)
            else:
                e = edge_ids[key]
                if edge_cells[e][1] != -1:
                    raise fm.MeshError(f"edge {key} shared by more than two cells")
                edge_cells[e][1] = ci
                loop_edges.append(e)
                loop_signs.append(-1)
    edges = np.asarray(edges, dtype=np.int64)
    return dict(edges=edges, edge_coords=np.asarray(vertices, dtype=float)[edges],
                edge_cells=np.asarray(edge_cells, dtype=np.int64),
                edge_shift=np.zeros((len(edges), 2)),
                loop_edges=np.asarray(loop_edges, dtype=np.int64),
                loop_signs=np.asarray(loop_signs, dtype=np.int64))


def assert_same_edge_tables(m, tables):
    """Bitwise equal edge tables, dtypes included."""
    for name, want in tables.items():
        got = getattr(m, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def vertex_loops(m) -> list:
    """The vertex loop of each cell of a mesh."""
    return [fm.ragged_rows(m.cell_ptr, m.loop_vertices, ci) for ci in range(m.n_cells)]


NON_PERIODIC_MESHES = {
    **{f"voronoi_{n}": (lambda n=n: fm.generate_voronoi((0, 1, 0, 1), n, lloyd_iters=5,
                                                        seed=n))
       for n in (10, 60, 400)},
    **{name: (lambda args=args: fm.generate_voronoi(**args))
       for name, (args, _, _) in GOLDEN_MESHES.items() if not args.get("periodic")},
    "rect": lambda: fm.generate_rect((0, 2, 0, 1), 7, 5),
    "swe_cylinder": lambda: cases.get_case("swe_cylinder", seed=5, n_cells=400).make_mesh(),
    "swe_smooth_wave": lambda: cases.get_case("swe_smooth_wave", h=0.12, seed=3).make_mesh(),
}


class TestEdgeTables:
    @pytest.mark.parametrize("name", sorted(NON_PERIODIC_MESHES))
    def test_generated_and_loop_built_tables_equal_the_oracle(self, name):
        m = NON_PERIODIC_MESHES[name]()
        loop_built = fm.PolyMesh.from_loops(m.vertices, vertex_loops(m))
        tables = oracle_edge_tables(m.vertices, vertex_loops(m))
        assert_same_edge_tables(loop_built, tables)
        assert_same_edge_tables(m, tables)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(2, 7), st.integers(0, 10 ** 6))
    def test_relabelled_grid_equals_the_oracle(self, nx, ny, seed):
        # vertex ids, cell order and each loop's first vertex shuffled
        rng = np.random.default_rng(seed)
        xs, ys = np.meshgrid(np.arange(nx + 1.0), np.arange(ny + 1.0), indexing="ij")
        perm = rng.permutation((nx + 1) * (ny + 1))
        vid = perm.reshape(nx + 1, ny + 1)
        vertices = np.empty(((nx + 1) * (ny + 1), 2))
        vertices[vid.ravel()] = np.column_stack([xs.ravel(), ys.ravel()])
        cells = [np.roll([vid[i, j], vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1]],
                         rng.integers(4))
                 for i in range(nx) for j in range(ny)]
        cells = [cells[c] for c in rng.permutation(len(cells))]
        assert_same_edge_tables(fm.PolyMesh.from_loops(vertices, cells),
                                oracle_edge_tables(vertices, cells))

    def test_edge_of_three_cells_raises(self):
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]]
        cells = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
        with pytest.raises(fm.MeshError, match=r"edge \(0, 1\) shared by more than two"):
            fm.PolyMesh.from_loops(vertices, cells)


class TestMeshIO:
    def test_round_trip_single_cell(self, tmp_path):
        m = unit_square()
        path = tmp_path / "square.msh"
        fm.write_mesh(m, str(path))
        m2 = fm.read_mesh(str(path))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.cell_ptr, m2.cell_ptr)
        assert np.array_equal(m.loop_vertices, m2.loop_vertices)
        assert m2.boundary_tags == m.boundary_tags

    def test_bad_vertex_index(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("2 1\n0 0\n1 0\n3 0 1 2\n")
        with pytest.raises(fm.MeshError, match="out of range"):
            fm.read_mesh(str(path))

    def test_no_cells_rejected(self, tmp_path):
        path = tmp_path / "empty.msh"
        path.write_text("3 0\n0 0\n1 0\n0 1\n")
        with pytest.raises(fm.MeshError, match="at least one cell"):
            fm.read_mesh(str(path))

    def test_non_ccw_rejected(self, tmp_path):
        path = tmp_path / "cw.msh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n3 0 2 1\n0\n")
        with pytest.raises(fm.MeshError, match="counter-clockwise"):
            fm.read_mesh(str(path))

    def test_missing_boundary_tags_rejected(self, tmp_path):
        path = tmp_path / "untagged.msh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n3 0 1 2\n")
        with pytest.raises(fm.MeshError, match="boundary edge 0 carries no tag"):
            fm.read_mesh(str(path))

    def test_tagged_interior_edge_rejected(self, tmp_path):
        # a tag on the edge the two squares share would make its dofs Dirichlet
        path = tmp_path / "two.msh"
        path.write_text("6 2\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n4 0 1 4 3\n4 1 2 5 4\n"
                        "7\n0 1 w\n1 2 w\n2 5 w\n5 4 w\n4 3 w\n3 0 w\n1 4 w\n")
        with pytest.raises(fm.MeshError, match="interior edge 1 carries a boundary tag"):
            fm.read_mesh(str(path))

    def test_bow_tie_rejected(self, tmp_path):
        # the loop crosses itself at (2, 2); its lobes' signed areas, 4 and
        # -1, sum to a positive 3
        path = tmp_path / "bowtie.msh"
        path.write_text("4 1\n0 0\n4 0\n1 3\n3 3\n4 0 1 2 3\n"
                        "4\n0 1 s\n1 2 s\n2 3 s\n3 0 s\n")
        with pytest.raises(fm.MeshError, match="cell 0 vertex loop self-intersects"):
            fm.read_mesh(str(path))

    @pytest.mark.parametrize("text, line, what", [
        ("3 1\n0 0\n1 x\n0 1\n3 0 1 2\n", 3, "coordinate 'x' is not a number"),
        ("3 1\n0 0\n1 0\n0 1\nthree 0 1 2\n", 5, "vertex count 'three' is not an integer"),
        ("3 1\n0 0\n1 0\n0 1\n3 0 1 2.5\n", 5, "vertex index '2.5' is not an integer"),
        ("3 1\n0 0\n1 0\n0 1\n3 0 1 2\n3\n0 1 s\n1 b s\n2 0 s\n", 8,
         "vertex index 'b' is not an integer"),
        ("3 1\n0 0\n1 0\n0 1\n3 0 1 2\nthree\n", 6, "tag count 'three' is not an integer"),
        ("3 1\n0 0\n1 0\n0 1\n3 0 1 2\n5\n0 1 s\n1 2 s\n", 8,
         "5 boundary tags announced, 2 lines left"),
    ], ids=["vertex_token", "cell_count_token", "cell_vertex_token", "tag_vertex_token",
            "tag_count_token", "tag_count_past_the_end"])
    def test_malformed_input_names_path_and_line(self, tmp_path, text, line, what):
        path = tmp_path / "bad.msh"
        path.write_text(text)
        with pytest.raises(fm.MeshError) as info:
            fm.read_mesh(str(path))
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert what in str(info.value)

    def test_voronoi_round_trip_hash(self, tmp_path):
        m = fm.generate_voronoi((0, 1, 0, 1), 600, lloyd_iters=3, seed=21)
        path = tmp_path / "vor.msh"
        fm.write_mesh(m, str(path))
        m2 = fm.read_mesh(str(path))
        assert np.array_equal(m.cell_ptr, m2.cell_ptr)
        assert np.array_equal(m.loop_vertices, m2.loop_vertices)
        assert np.array_equal(m.vertices, m2.vertices)
