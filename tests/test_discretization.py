"""Discretization set-up: golden fingerprints, batched-versus-per-cell
oracles, and the errors of degenerate cells inside healthy groups."""

import copy
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import roots_legendre

from fvvem import fv as fvmod
from fvvem import mesh as fm
from fvvem import vem
from fvvem.models import Discretization

# name -> (generate_voronoi arguments, order k).  Each mesh is frozen, with
# every PolyMesh field, in meshes/<name>.npz as that generator made it before
# its Voronoi diagrams took band-limited images: the goldens below fingerprint
# the set-up on a fixed mesh, not the mesh generator.
FINGERPRINT_MESHES = {
    "k1_periodic": (dict(box=(0, 1, 0, 1), n_seeds=30, lloyd_iters=5, seed=7,
                         periodic=(True, True)), 1),
    "k2_dirichlet": (dict(box=(0, 1, 0, 1), n_seeds=40, lloyd_iters=5, seed=8), 2),
    "k3_strip": (dict(box=(0, 2, 0, 1), n_seeds=60, lloyd_iters=5, seed=9,
                      periodic=(False, True)), 3),
}


def load_mesh(name) -> fm.PolyMesh:
    """The frozen mesh meshes/<name>.npz."""
    f = np.load(Path(__file__).parent / "meshes" / f"{name}.npz")
    edges, names = f["tag_edges"].astype(np.int64), f["tag_names"]
    return fm.PolyMesh(f["vertices"], np.concatenate([[0], np.cumsum(f["cell_sizes"])]),
                       f["cells"], f["cell_coords"],
                       edges=f["edges"], edge_coords=f["edge_coords"],
                       edge_cells=f["edge_cells"], edge_shift=f["edge_shift"],
                       loop_edges=f["cell_edges"], loop_signs=f["cell_edge_sign"],
                       boundary_tags={str(tag): np.sort(edges[names == tag])
                                      for tag in np.unique(names)},
                       periodic=tuple(f["periodic"].tolist()))


def _fingerprint(a) -> tuple:
    """(2-norm, 1-norm, weighted checksum) of an array."""
    a = np.asarray(a, dtype=float).ravel()
    w = np.cos(0.7 * np.arange(a.size))
    return (float(np.linalg.norm(a)), float(np.abs(a).sum()), float(a @ w))


def fingerprints(name) -> dict:
    m = load_mesh(name)
    k = FINGERPRINT_MESHES[name][1]
    disc = Discretization(m, fm.build_geometry(m), k=k)
    fv = disc.fvops
    arrays = {"M": disc.M.to_scipy().toarray(), "K": disc.K.to_scipy().toarray(),
              "corrections": fv.taylor.corrections,
              "basis_L": fv.basis_L, "basis_R": fv.basis_R}
    for op in ("_Vglob", "_Cglob", "_CTglob", "_DIVglob"):
        arrays[op] = getattr(disc, op).toarray()
    for kind in ("central", "sector"):
        grp = getattr(fv, kind)
        nst = grp.members.shape[1]
        arrays.update({f"{kind}.cells": grp.cells, f"{kind}.members": grp.members,
                       f"{kind}.pinv": grp.op[:, :-nst], f"{kind}.res_q": grp.op[:, -nst:]})
    return {key: _fingerprint(a) for key, a in arrays.items()}


# recorded on the per-cell set-up code that the grouped build replaced
GOLDEN = {
    'k1_periodic': {
        'M': (0.5510948320970399, 9.095006371142361, 0.14509011424556495),
        'K': (21.327485128016516, 313.2833421562992, 10.01749615458873),
        'corrections': (1.1788969098184874e-14, 5.4052668842916286e-14, -3.303732832194798e-15),
        'basis_L': (15.573478651526258, 316.95853878201336, 2.0922227889808873),
        'basis_R': (15.596488921669051, 316.92626334400705, -7.249561634198189),
        '_Vglob': (5.346788095989941, 111.35765866092092, 2.491469032126673),
        '_Cglob': (7.836231474929828, 155.53280145478556, 2.1278026699882333),
        '_CTglob': (0.07829465528685743, 1.3412911246860393, -0.005128773476971659),
        '_DIVglob': (0.461956548652965, 15.808873745369556, -0.3216993519478379),
        'central.cells': (92.49324299644812, 435.0, 39.30553228129523),
        'central.members': (227.7081465385022, 2799.0, -25.12162685067966),
        'central.pinv': (4.192971044000378, 70.37489445270693, -1.9288890140538815),
        'central.res_q': (10.954451150103322, 290.8459294743044, 4.573743740260088),
        'sector.cells': (225.42404485768594, 2604.0, -1.5278878786576446),
        'sector.members': (390.44589894119775, 7812.0, -162.36796989607112),
        'sector.pinv': (14.82035899562418, 434.12065312598077, 7.110855804211474),
        'sector.res_q': (13.416407864998737, 524.4567335984027, -125.68283417410937),
    },
    'k2_dirichlet': {
        'M': (1.4784540397494403, 46.14772105716335, -0.3636748303780705),
        'K': (214.72355746615804, 4827.196075177535, -59.34717308547623),
        'corrections': (0.782333559575585, 7.228972957927754, -0.06895486515025556),
        'basis_L': (22.85611550423179, 777.4696985773292, 4.784855519094356),
        'basis_R': (20.201355192854482, 609.683192021448, 3.259739130909558),
        '_Vglob': (13.925559942938891, 473.9718739411603, -5.360571913674004),
        '_Cglob': (65.80192503366787, 1574.6898632258071, -71.011002814716),
        '_CTglob': (0.16773096013631988, 1.5703754154555698, 0.0012338396196678904),
        '_DIVglob': (1.8740939414378452, 84.0880158558995, -1.6035551019939471),
        'central.cells': (143.31782861877304, 780.0, 29.922156505189538),
        'central.members': (542.3430648583975, 12376.0, 94.65369154458463),
        'central.pinv': (7.465931579648337, 232.01282333035758, 2.5245412916080836),
        'central.res_q': (17.804493814764857, 909.2266727080226, -8.640877697950089),
        'sector.cells': (309.127805284481, 3710.0, -25.056397201467366),
        'sector.members': (618.255610568962, 14840.0, 121.25172267181559),
        'sector.pinv': (16.884130257092707, 472.34845465125863, -10.269977957094262),
        'sector.res_q': (12.884098726725126, 470.34651291582577, -4.1354867843361),
    },
    'k3_strip': {
        'M': (141.44238982647192, 2692.158168165311, -22.693021692425134),
        'K': (12797.91823267385, 208851.38929880777, -5268.351508132455),
        'corrections': (0.9683299104588758, 11.674022668451965, -0.062025832113714624),
        'basis_L': (32.691237546016005, 1755.070055298709, 5.978801204949221),
        'basis_R': (31.509560000683784, 1631.1866804145707, -3.9952357938802456),
        '_Vglob': (19.984064455163875, 1231.8993691925903, 5.06766725947557),
        '_Cglob': (2528.4889860796, 60384.20960516679, -980.5960190107703),
        '_CTglob': (0.46556414331643037, 7.592898725125683, 0.18318527072364996),
        '_DIVglob': (39.890053759303676, 1745.1230467390133, -2.048575022504175),
        'central.cells': (264.9716966017314, 1770.0, -66.30179146834553),
        'central.members': (1189.0437334261512, 37131.0, 42.33531881841388),
        'central.pinv': (10.404148824768113, 620.2829451127357, -0.9426575402104382),
        'central.res_q': (24.1039415863879, 2197.8423482018125, 10.861078497636367),
        'sector.cells': (638.6853685501179, 10081.0, 105.91811601256668),
        'sector.members': (1277.3707371002358, 40324.0, -207.25025229708567),
        'sector.pinv': (20.896911882272853, 812.3575385192062, -19.778160532905886),
        'sector.res_q': (18.110770276274835, 934.7319421978214, 4.3961927044036715),
    },
}


@pytest.mark.parametrize("name", sorted(FINGERPRINT_MESHES))
def test_golden_fingerprints(name):
    got = fingerprints(name)
    assert got.keys() == GOLDEN[name].keys()
    for key, (l2, l1, checksum) in GOLDEN[name].items():
        g2, g1, gc = got[key]
        # a correction is the mean of a scaled monomial, O(1) by construction;
        # at k=1 all of them are roundoff, so they are compared on that scale
        floor = 1.0 if key == "corrections" else 0.0
        assert abs(g2 - l2) <= 1e-12 * max(l2, floor), key
        assert abs(g1 - l1) <= 1e-12 * max(l1, floor), key
        assert abs(gc - checksum) <= 1e-12 * max(l1, floor), key


# ---------------------------------------------------------------------------
# batched VEM elements against the element of one cell
# ---------------------------------------------------------------------------

@st.composite
def convex_polygons(draw):
    """CCW convex polygon of 3-8 vertices on a circle of random size/place."""
    n = draw(st.integers(min_value=3, max_value=8))
    gaps = np.array(draw(st.lists(st.floats(0.4, 1.0), min_size=n, max_size=n)))
    ang = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum() + draw(st.floats(0.0, 6.3))
    radius = draw(st.floats(0.05, 3.0))
    cx, cy = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    return np.column_stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)])


def disjoint_cells_mesh(polys):
    """One mesh whose cells are the given polygons, sharing no vertex."""
    start = np.cumsum([0] + [len(p) for p in polys])
    cells = [np.arange(a, b) for a, b in zip(start[:-1], start[1:])]
    m = fm.PolyMesh.from_loops(np.vstack(polys), cells)
    m.boundary_tags = {"outer": np.arange(m.n_edges)}
    return m


ELEMENT_ARRAYS = [f.name for f in fields(vem.ElementVem)
                  if f.name not in ("k", "cells", "basis", "area")]


class TestBatchedElements:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(convex_polygons(), min_size=2, max_size=16),
           st.integers(min_value=1, max_value=4))
    def test_group_build_equals_cell_build(self, polys, k):
        m = disjoint_cells_mesh(polys)
        g = fm.build_geometry(m)
        for idx in m.vertex_count_groups:
            group = vem.build_element(m, g, idx, k)
            assert np.array_equal(group.cells, idx)
            for i, ci in enumerate(idx):
                one = vem.build_element(m, g, idx[i:i + 1], k)
                assert group.area[i] == one.area[0]
                for name in ELEMENT_ARRAYS:
                    a, b = getattr(group, name)[i], getattr(one, name)[0]
                    assert a.shape == b.shape, name
                    assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), (name, ci)


class TestOneRulePerGroup:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_each_group_reads_its_elements_rule(self, monkeypatch, k):
        # a group's nodes, weights and monomial values are its element's
        # arrays, the degree-(2k + 2) fan rule, and no second rule is built
        built = []
        real = vem.build_element

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(vem, "build_element", recording)
        m, g, _, _ = voronoi_group()
        disc = Discretization(m, g, k)
        assert len(built) == len(disc.groups)
        for grp, elem in zip(disc.groups, built):
            assert grp.qnodes is elem.qnodes and grp.qw is elem.qw
            assert grp.qmono is elem.qmono and grp.Hm is elem.H
            rule = fm.polygon_quadrature(m.cell_coords(grp.idx), g.barycenter[grp.idx],
                                         2 * k + 2)
            assert np.array_equal(grp.qnodes, rule.nodes)
            assert np.array_equal(grp.qw, rule.weights)


def lagrange_product_oracle(k):
    """The Lagrange basis of the k + 1 Gauss-Lobatto nodes at the k + 1
    Gauss points, (ng, k + 1), by the product formula."""
    tgl, _ = fm.gauss_lobatto_reference(k)
    tq, _ = roots_legendre(k + 1)
    L = np.ones((k + 1, k + 1))
    for j in range(k + 1):
        for m in range(k + 1):
            if m != j:
                L[:, j] *= (tq - tgl[m]) / (tgl[j] - tgl[m])
    return L


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_edge_lagrange_equals_the_product_formula(k):
    m, g, _, _ = voronoi_group()
    disc = Discretization(m, g, k)
    assert np.abs(disc.edge_lagrange - lagrange_product_oracle(k)).max() <= 1e-15


# ---------------------------------------------------------------------------
# batched stencil fits against a per-cell oracle
# ---------------------------------------------------------------------------

def oracle_adjacency(mesh):
    """Per-cell (neighbour, shift) lists in edge order, and per vertex the
    (cell, coordinates) of every incidence in cell order."""
    neighbors = [[] for _ in range(mesh.n_cells)]
    for e in range(mesh.n_edges):
        L, R = mesh.edge_cells[e]
        if R < 0:
            continue
        s = mesh.edge_shift[e]
        neighbors[L].append((int(R), s.copy()))
        neighbors[R].append((int(L), -s))
    vert_cells = {}
    cell_of = np.repeat(np.arange(mesh.n_cells), mesh.cell_sizes)
    for ci, v, pt in zip(cell_of, mesh.loop_vertices, mesh.loop_coords):
        vert_cells.setdefault(int(v), []).append((int(ci), pt))
    return neighbors, vert_cells


def oracle_grow_stencil(neighbors, ci, target):
    """Breadth-first (cell, shift) stencil around ci, whole layers."""
    seen = {(ci, (0.0, 0.0))}
    out = []
    frontier = [(ci, np.zeros(2))]
    while len(out) + 1 < target and frontier:
        nxt = []
        for c, s in frontier:
            for nb, ds in neighbors[c]:
                key = (nb, (round(float(s[0] + ds[0]), 9), round(float(s[1] + ds[1]), 9)))
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((nb, s + ds))
        nxt.sort(key=lambda p: (p[0], p[1][0], p[1][1]))
        out.extend(nxt)
        frontier = nxt
    return out


def oracle_shift_of(vert_cells, ci, cj, shared_vertex):
    """Frame shift s of cj relative to ci (x_in_cj = x_in_ci + s)."""
    pi = pj = None
    for c, pt in vert_cells.get(shared_vertex, ()):
        if c == ci and pi is None:
            pi = pt
        if c == cj and pj is None:
            pj = pt
    if pi is None or pj is None:
        return None
    return pj - pi


def oracle_sector_members(mesh, neighbors, vert_cells, ci):
    """(members, fell back) per neighbour of ci: the (cell, shift) member
    list is the neighbour, then the cells sharing a vertex with both, else
    a second neighbour."""
    loop = set(int(v) for v in fm.ragged_rows(mesh.cell_ptr, mesh.loop_vertices, ci))
    sectors = []
    for nb, s in sorted(neighbors[ci], key=lambda p: (p[0], p[1][0], p[1][1])):
        members = [(nb, s)]
        wedge = set(int(v) for v in fm.ragged_rows(mesh.cell_ptr, mesh.loop_vertices, nb))
        for v in sorted(loop):
            for cj, _pt in vert_cells.get(v, ()):
                if cj == ci or cj == nb:
                    continue
                if v in wedge:
                    cand = oracle_shift_of(vert_cells, ci, cj, v)
                    if cand is not None and not any(
                            m[0] == cj and np.allclose(m[1], cand) for m in members):
                        members.append((cj, cand))
        fell_back = len(members) < 2
        if fell_back:
            for nb2, s2 in sorted(neighbors[nb], key=lambda p: p[0]):
                if nb2 != ci and not any(m[0] == nb2 for m in members):
                    members.append((nb2, s + s2))
                if len(members) >= 2:
                    break
        sectors.append((members, fell_back))
    return sectors


def oracle_stencils(mesh, k):
    """The per-cell central stencils and the (owner, members, fell back)
    sectors, ordered by size as the fits take them."""
    neighbors, vert_cells = oracle_adjacency(mesh)
    nk = vem.n_poly(k)
    target = max(int(np.ceil(fvmod.GROWTH * nk)), nk + 2)
    central = [oracle_grow_stencil(neighbors, ci, target) for ci in range(mesh.n_cells)]
    sectors = [(ci, members, fell_back) for ci in range(mesh.n_cells)
               for members, fell_back in oracle_sector_members(mesh, neighbors, vert_cells, ci)]
    sectors.sort(key=lambda p: len(p[1]))
    return central, sectors


def oracle_rows(ops, ci, members, ncols):
    """Per-member quadrature of ci's Taylor basis over each shifted member."""
    rows = np.empty((len(members), ncols))
    for r, (cj, s) in enumerate(members):
        rule = fm.polygon_quadrature(ops.mesh.cell_coords(cj),
                                     ops.geom.barycenter[cj], max(ops.k, 1))
        vals = ops.taylor.values(ci, rule.nodes, shift=-s)
        rows[r] = (rule.weights @ vals[:, 1:1 + ncols]) / ops.geom.area[cj]
    return rows


def oracle_fit(ops, ci, members, ncols):
    """Per-cell least-squares fit: rows, pinv and residual factor."""
    rows = oracle_rows(ops, ci, members, ncols)
    P = np.linalg.pinv(rows, rcond=1e-10)
    return P, rows @ P - np.eye(len(members))


def assert_group_row(grp, row, ci, members, P, R):
    n, nst = len(members), grp.members.shape[1]
    pinv, res_q = grp.op[row, :-nst], grp.op[row, -nst:]
    assert grp.cells[row] == ci
    assert np.array_equal(grp.members[row, :n], [c for c, _ in members])
    assert np.all(grp.members[row, n:] == members[0][0])
    assert np.abs(pinv[:, :n] - P).max() <= 1e-13 * np.abs(P).max()
    assert np.abs(res_q[:n, :n] - R).max() <= 1e-13 * max(1.0, np.abs(R).max())
    assert not pinv[:, n:].any() and not res_q[n:].any()
    assert not res_q[:, n:].any()


@pytest.mark.parametrize("k, periodic", [(1, (True, True)), (2, (True, False)),
                                         (3, (False, False))])
def test_stencil_fits_equal_the_per_cell_oracle(k, periodic):
    m = fm.generate_voronoi((0, 1, 0, 1), 45, lloyd_iters=5, seed=11, periodic=periodic)
    ops = fvmod.FvOperators(m, fm.build_geometry(m), k)
    central, sectors = oracle_stencils(m, k)
    for ci, members in enumerate(central):
        assert_group_row(ops.central, ci, ci, members,
                         *oracle_fit(ops, ci, members, ops.nk - 1))
    sector = ops.sector
    assert len(sector.cells) == len(sectors)
    for row, (ci, members, _) in enumerate(sectors):
        assert_group_row(sector, row, ci, members, *oracle_fit(ops, ci, members, 2))


class RecordedFits(fvmod.FvOperators):
    """FvOperators that keeps the flat (cells, sizes, members, shifts)
    arrays of each fit: the central stencils first, then the sectors."""

    def _fit(self, cells, sizes, members, shifts, ncols):
        self.fits = getattr(self, "fits", []) + [(cells, sizes, members, shifts)]
        return super()._fit(cells, sizes, members, shifts, ncols)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [{}, {"periodic": (True, True)},
                                  {"hole_center": (0.5, 0.5), "hole_radius": 0.2}],
                         ids=["box", "torus", "hole"])
def test_fit_rows_equal_the_member_quadrature(k, kind):
    # the rows come from the members' own monomial means; each must match
    # the quadrature of the owner's basis over the shifted member, at k = 4
    # too, where the pinv comparison above sits at its roundoff floor
    m = fm.generate_voronoi((0, 1, 0, 1), 40, lloyd_iters=5, seed=12, **kind)
    ops = RecordedFits(m, fm.build_geometry(m), k)
    for cells, sizes, members, shifts in ops.fits:
        owners = np.repeat(cells, sizes)
        rows = ops._fit_rows(owners, members, shifts, ops.nk - 1)
        for i in range(len(members)):
            want = oracle_rows(ops, owners[i], [(members[i], shifts[i])], ops.nk - 1)[0]
            assert np.abs(rows[i] - want).max() <= 1e-13 * np.abs(want).max()


def assert_stencils_equal(fit, owners, stencils):
    """Owners, sizes, members in order and shifts bit for bit."""
    cells, sizes, members, shifts = fit
    assert np.array_equal(cells, owners)
    assert np.array_equal(sizes, [len(st) for st in stencils])
    assert np.array_equal(members, [c for st in stencils for c, _ in st])
    expected = np.array([sh for st in stencils for _, sh in st]).reshape(-1, 2)
    assert np.array_equal(shifts.view(np.int64), expected.view(np.int64))


def assert_stencils_equal_the_oracle(m, k):
    """The array stencils of m equal the per-cell loops bitwise, or both
    find the same first cell whose stencil is too small; returns the
    number of sectors that took the second-neighbour fallback."""
    central, sectors = oracle_stencils(m, k)
    small = [ci for ci, st in enumerate(central) if len(st) < vem.n_poly(k) - 1]
    if small:
        ci = small[0]
        with pytest.raises(fvmod.FvError, match=f"^cell {ci}: stencil of "
                                                f"{len(central[ci])} cells "):
            RecordedFits(m, fm.build_geometry(m), k)
        return 0
    ops = RecordedFits(m, fm.build_geometry(m), k)
    assert_stencils_equal(ops.fits[0], np.arange(m.n_cells), central)
    assert_stencils_equal(ops.fits[1], [ci for ci, _, _ in sectors],
                          [members for _, members, _ in sectors])
    return sum(fell_back for _, _, fell_back in sectors)


@st.composite
def stencil_meshes(draw):
    """Voronoi meshes of 6-60 cells: a box, a torus, periodic in x only,
    or a box with a hole of one seed spacing."""
    kind = draw(st.sampled_from(["box", "torus", "one-axis", "hole"]))
    n = draw(st.integers(min_value=6, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    args = {"box": {}, "torus": {"periodic": (True, True)},
            "one-axis": {"periodic": (True, False)},
            "hole": {"hole_center": (0.5, 0.5), "hole_radius": n ** -0.5}}[kind]
    try:
        return fm.generate_voronoi((0, 1, 0, 1), n, lloyd_iters=3, seed=seed, **args)
    except fm.MeshError:
        # hole meshes: the generator rejects some hole boundaries
        assume(False)


@settings(max_examples=40, deadline=None)
@given(stencil_meshes(), st.integers(min_value=1, max_value=3))
def test_array_stencils_equal_the_per_cell_loops(m, k):
    assert_stencils_equal_the_oracle(m, k)


@pytest.mark.parametrize("box, nx, n_sectors", [((0, 3, 0, 1), 3, 6), ((0, 4, 0, 1), 4, 8)])
@pytest.mark.parametrize("k", [1, 2])
def test_strip_sectors_take_the_second_neighbour(box, nx, n_sectors, k):
    # one row of cells, periodic in x: two cells of a sector share only
    # their own edge, so every sector falls back to a second neighbour
    m = fm.generate_rect(box, nx, 1, periodic=(True, False))
    assert assert_stencils_equal_the_oracle(m, k) == n_sectors


# ---------------------------------------------------------------------------
# a degenerate cell inside a group of healthy cells is named by its error
# ---------------------------------------------------------------------------

def voronoi_group(seed=4):
    """A Voronoi mesh, its geometry, and a vertex-count group of >= 3 cells
    with the id of a cell in its middle."""
    m = fm.generate_voronoi((0, 1, 0, 1), 40, lloyd_iters=5, seed=seed)
    idx = max(m.vertex_count_groups, key=len)
    assert len(idx) >= 3
    return m, fm.build_geometry(m), idx, int(idx[len(idx) // 2])


class TestDegenerateCellErrors:
    def test_singular_g_names_the_cell(self):
        m, g, idx, bad = voronoi_group()
        g = copy.deepcopy(g)
        g.h[bad] = np.inf          # every scaled monomial is constant on it
        with pytest.raises(vem.VemError, match=f"^cell {bad}: singular G matrix$"):
            vem.build_element(m, g, idx, 2)

    def test_singular_h_names_the_cell(self, monkeypatch):
        m, g, idx, bad = voronoi_group()
        pos = int(np.flatnonzero(idx == bad)[0])
        real = vem.polygon_quadrature

        def collapsed(vertices, barycenter, degree):
            # the bad cell's rule puts all its weight on its barycenter
            rule = real(vertices, barycenter, degree)
            rule.nodes[pos] = barycenter[pos]
            return rule

        monkeypatch.setattr(vem, "polygon_quadrature", collapsed)
        with pytest.raises(vem.VemError, match=f"^cell {bad}: singular H matrix$"):
            vem.build_element(m, g, idx, 1)

    def test_isolated_cell_stencil_names_the_cell(self):
        # a 3 x 3 grid of unit squares with a detached square as cell 4
        grid = fm.generate_rect((0, 3, 0, 3), 3, 3)
        far = np.array([[10.0, 10.0], [11.0, 10.0], [11.0, 11.0], [10.0, 11.0]])
        nv = grid.n_vertices
        loops = [fm.ragged_rows(grid.cell_ptr, grid.loop_vertices, ci)
                 for ci in range(grid.n_cells)]
        m = fm.PolyMesh.from_loops(np.vstack([grid.vertices, far]),
                                   loops[:4] + [np.arange(nv, nv + 4)] + loops[4:])
        m.boundary_tags = {"outer": np.flatnonzero(m.edge_cells[:, 1] < 0)}
        assert len(m.vertex_count_groups) == 1
        with pytest.raises(fvmod.FvError, match="^cell 4: stencil of 0 cells"):
            fvmod.FvOperators(m, fm.build_geometry(m), 1)
