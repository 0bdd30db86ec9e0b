import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvvem import mesh as fm
from fvvem.harness import cases


def unit_square():
    return fm.PolyMesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
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
        m = fm.PolyMesh(pts, [np.arange(6)],
                        boundary_tags={e: "outer" for e in range(6)})
        g = fm.build_geometry(m)
        assert g.area[0] == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-14)

    def test_random_convex_pentagon_shoelace(self):
        rng = np.random.default_rng(7)
        ang = np.sort(rng.uniform(0, 2 * np.pi, 5))
        r = rng.uniform(0.5, 1.5, 5)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        m = fm.PolyMesh(pts, [np.arange(5)],
                        boundary_tags={e: "outer" for e in range(5)})
        g = fm.build_geometry(m)
        # independent shoelace evaluation
        x, y = pts[:, 0], pts[:, 1]
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert g.area[0] == pytest.approx(shoelace, rel=1e-14)

    def test_degenerate_cell_raises(self):
        m = fm.PolyMesh.__new__(fm.PolyMesh)  # bypass validation in __post_init__
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        m.vertices = pts
        m.cells = [np.array([0, 1, 2])]
        m.cell_coords = [pts]
        m.edges = np.array([[0, 1], [1, 2], [2, 0]])
        m.edge_coords = pts[m.edges]
        m.edge_cells = np.array([[0, -1]] * 3)
        m.edge_shift = np.zeros((3, 2))
        m.periodic = (False, False)
        with pytest.raises(fm.MeshError):
            fm.build_geometry(m)

    def test_normals_closed(self):
        m = fm.generate_voronoi((0, 1, 0, 1), 30, lloyd_iters=5, seed=3)
        g = fm.build_geometry(m)
        for ci in range(m.n_cells):
            acc = np.zeros(2)
            for e, s in zip(m.cell_edges[ci], m.cell_edge_sign[ci]):
                acc += s * g.edge_length[e] * g.edge_normal[e]
            assert np.abs(acc).max() < 1e-13


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
        area, centroid = fm.polygon_areas_centroids(polys)
        for i, pts in enumerate(polys):
            x, y = pts[:, 0], pts[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            a = fm._signed_area(pts)
            c = np.array([np.sum((x + xn) * cross), np.sum((y + yn) * cross)]) / (6.0 * a)
            assert area[i] == a
            assert np.array_equal(centroid[i], c)


class TestRegularity:
    def test_square_passes(self):
        m = unit_square()
        g = fm.build_geometry(m)
        rep = fm.validate_regularity(m, g, 0.1)
        assert rep.all_passed

    def test_short_edge_fails(self):
        eps = 1e-9
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0 - eps], [1.0 - eps, 1.0], [0.0, 1.0]])
        m = fm.PolyMesh(pts, [np.arange(5)],
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
        rule = fm.interior_quadrature(m, g, 0, 2)
        val = np.sum(rule.weights * rule.nodes[:, 0] ** 2)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_weights_sum_to_area(self):
        m = fm.generate_voronoi((0, 2, 0, 1), 40, lloyd_iters=5, seed=1)
        g = fm.build_geometry(m)
        for ci in range(m.n_cells):
            rule = fm.interior_quadrature(m, g, ci, 3)
            assert np.sum(rule.weights) == pytest.approx(g.area[ci], rel=1e-14)

    def test_x3y2_on_hexagon_vs_refined_oracle(self):
        pts = regular_polygon(6)
        m = fm.PolyMesh(pts, [np.arange(6)],
                        boundary_tags={e: "outer" for e in range(6)})
        g = fm.build_geometry(m)
        rule = fm.interior_quadrature(m, g, 0, 5)
        val = np.sum(rule.weights * rule.nodes[:, 0] ** 3 * rule.nodes[:, 1] ** 2)
        oracle = fm.polygon_quadrature(pts, g.barycenter[0], 12)
        ref = np.sum(oracle.weights * oracle.nodes[:, 0] ** 3 * oracle.nodes[:, 1] ** 2)
        assert val == pytest.approx(ref, abs=1e-13)

    def test_monomial_exactness_vs_greens_oracle(self):
        rng = np.random.default_rng(5)
        ang = np.sort(rng.uniform(0, 2 * np.pi, 7))
        r = rng.uniform(0.85, 1.15, 7)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        m = fm.PolyMesh(pts, [np.arange(7)],
                        boundary_tags={e: "outer" for e in range(7)})
        g = fm.build_geometry(m)
        for d in range(0, 9):
            rule = fm.interior_quadrature(m, g, 0, d)
            for p in range(d + 1):
                for q in range(d + 1 - p):
                    val = np.sum(rule.weights * rule.nodes[:, 0] ** p * rule.nodes[:, 1] ** q)
                    ref = fm.monomial_integral_greens(pts, p, q)
                    assert val == pytest.approx(ref, rel=1e-13, abs=1e-14), (d, p, q)

    @settings(max_examples=50, deadline=None)
    @given(star_polygons(), st.integers(min_value=0, max_value=6))
    def test_fan_rule_equals_triangle_by_triangle_bitwise(self, pts, degree):
        v0 = fm.polygon_areas_centroids([pts])[1][0]
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
            fm.interior_quadrature(m, g, 0, 99)


class TestEdgeGaussLobatto:
    def test_k1_trapezoid(self):
        rule = fm.edge_gauss_lobatto(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 1)
        assert np.allclose(rule.nodes, [[0, 0], [2, 0]])
        assert np.allclose(rule.weights, [1.0, 1.0])

    def test_k2_simpson(self):
        rule = fm.edge_gauss_lobatto(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 2)
        assert np.allclose(rule.nodes[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(rule.weights, [1 / 6, 4 / 6, 1 / 6])

    def test_k3_degree5_exact(self):
        # nodes at +-1, +-1/sqrt(5) on the reference edge; integral of t^5 on
        # a generic segment matches the closed form
        va, vb = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
        rule = fm.edge_gauss_lobatto(va, vb, 3)
        assert np.allclose(np.sort(rule.nodes[:, 0]),
                           [-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0])
        for p in range(6):
            val = np.sum(rule.weights * rule.nodes[:, 0] ** p)
            exact = (1.0 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            assert val == pytest.approx(exact, abs=1e-14)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            fm.gauss_lobatto_reference(0)


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
            for e, s in zip(m.cell_edges[ci], m.cell_edge_sign[ci]):
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

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_voronoi_invariants_property(self, seed):
        m = fm.generate_voronoi((0, 1, 0, 1), 24, lloyd_iters=3, seed=seed)
        m.validate(domain_area=1.0)

    # recorded before the Lloyd loop was vectorized: connectivity_hash, edge
    # count and the float.hex of the sum of every cell coordinate
    @pytest.mark.parametrize("kwargs, golden", [
        (dict(box=(0, 3, 0, 2), n_seeds=77, lloyd_iters=4, seed=9),
         (-954481171058398105, 229, "0x1.114babe4d679cp+10")),
        (dict(box=(0, 1, 0, 1), n_seeds=40, lloyd_iters=8, seed=6, periodic=(True, True)),
         (-5738978768466291501, 118, "0x1.ed0c5dc17132fp+7")),
        (dict(box=(0, 2, 0, 1), n_seeds=30, lloyd_iters=6, seed=8, periodic=(False, True)),
         (6435408977088644933, 89, "0x1.dfe1e54dd99eep+7")),
        (dict(box=(-4, 4, -4, 4), n_seeds=150, lloyd_iters=5, seed=12,
              hole_center=(0.0, 0.0), hole_radius=1.0),
         (-388066279371428011, 449, "0x1.10c78bfbb4ecfp+8")),
        (dict(box=(-16, 16, -16, 16), n_seeds=200, lloyd_iters=4, seed=1,
              hole_center=(0.0, 0.0), hole_radius=1.0,
              density=lambda x, y: 1.0 / np.clip(
                  0.05 + 0.45 * (np.hypot(x, y) - 1.0) / 15.0, 0.05, 0.5) ** 2),
         (-4120039959164601083, 589, "-0x1.1c82a66d785b0p+7")),
    ], ids=["box", "torus", "one_axis", "hole", "density"])
    def test_golden_fingerprint(self, kwargs, golden):
        m = fm.generate_voronoi(**kwargs)
        coord_sum = float(np.concatenate(m.cell_coords).sum()).hex()
        assert (m.connectivity_hash(), m.n_edges, coord_sum) == golden

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


class TestMeshIO:
    def test_round_trip_single_cell(self, tmp_path):
        m = unit_square()
        path = tmp_path / "square.msh"
        fm.write_mesh(m, str(path))
        m2 = fm.read_mesh(str(path))
        assert np.array_equal(m.vertices, m2.vertices)
        assert all(np.array_equal(a, b) for a, b in zip(m.cells, m2.cells))
        assert m2.boundary_tags == m.boundary_tags

    def test_bad_vertex_index(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("2 1\n0 0\n1 0\n3 0 1 2\n")
        with pytest.raises(fm.MeshError, match="out of range"):
            fm.read_mesh(str(path))

    def test_non_ccw_rejected(self, tmp_path):
        path = tmp_path / "cw.msh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n3 0 2 1\n0\n")
        with pytest.raises(fm.MeshError, match="counter-clockwise"):
            fm.read_mesh(str(path))

    def test_voronoi_round_trip_hash(self, tmp_path):
        m = fm.generate_voronoi((0, 1, 0, 1), 600, lloyd_iters=3, seed=21)
        path = tmp_path / "vor.msh"
        fm.write_mesh(m, str(path))
        m2 = fm.read_mesh(str(path))
        assert m.connectivity_hash() == m2.connectivity_hash()
        assert np.array_equal(m.vertices, m2.vertices)
