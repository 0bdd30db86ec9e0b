"""The grouped sampler: `Discretization.cell_means`, `interpolate_dofs`,
`project_field` and `harness.errors.error_norms` call an analytic function
once per vertex-count group; each must equal a per-cell loop that calls it
once per cell, for the functions of every registered case, and the cell
means of a function of stacked rows must be those of each row."""

import numpy as np
import pytest

from element_blocks import taylor_to_monomial
from fvvem import mesh as fm
from fvvem.harness import cases
from fvvem.harness.errors import error_norms
from fvvem.models import Discretization

# a mesh of at most about 200 cells for every case
SMALL = {"swe_vortex": dict(h=1.4), "swe_wellbalance": dict(n_cells=80),
         "swe_rp1": dict(h=0.045), "swe_rp2": dict(h=1.3), "swe_rp3": dict(h=0.45),
         "swe_rp4": dict(h=0.45), "swe_circular_dam": dict(h=0.55),
         "swe_smooth_wave": dict(h=0.28), "swe_cylinder": dict(n_cells=80),
         "ins_poiseuille": dict(n_cells=80), "ins_tgv": dict(h=0.8),
         "ins_stokes1": dict(), "ins_womersley": dict(h=0.14),
         "ins_double_shear": dict(h=0.14), "ins_cavity": dict(h=0.14),
         "ins_cylinder": dict(n_cells=80)}
T = 0.3                          # sampling time of the time-dependent functions
REL = 1e-14


def case_functions(case):
    """name -> pointwise function of (n, 2) points: every row of the exact
    (and initial) state, the pressure and the bathymetry."""
    funcs = {}
    for kind in ("exact", "initial"):
        state = getattr(case, kind, None)
        if state is None:
            continue
        for i in range(len(state(np.full((1, 2), 0.3), T))):
            funcs[f"{kind}[{i}]"] = lambda p, state=state, i=i: state(p, T)[i]
    pressure = case.pressure_exact()
    if pressure is not None:
        funcs["pressure"] = lambda p: pressure(p, T)
    if case.bathymetry() is not None:
        funcs["bathymetry"] = case.bathymetry()
    return funcs


# The oracles below are the per-cell loops the grouped sampler replaced:
# the function is called once per cell, and the values go through the same
# group arithmetic, so any difference comes from the sampling alone.

def per_cell(f, nodes):
    """(g, nq) values of f at stacked (g, nq, 2) nodes, one call per cell."""
    return np.stack([f(nodes[i]) for i in range(len(nodes))])


def oracle_cell_means(disc, f):
    out = np.empty(disc.mesh.n_cells)
    for grp in disc.groups:
        out[grp.idx] = np.einsum("gq,gq->g", per_cell(f, grp.qnodes), grp.qw) / grp.area
    return out


def oracle_moments(disc, f):
    """The moment dofs of interpolate_dofs, in cell order."""
    nkm2 = disc.nkm2
    out = np.empty((disc.mesh.n_cells, nkm2))
    for grp in disc.groups:
        out[grp.idx] = np.einsum("gq,gqa,g->ga", per_cell(f, grp.qnodes) * grp.qw,
                                 grp.qmono[:, :, :nkm2], 1.0 / grp.area)
    return out.ravel()


def oracle_projection(disc, f, degree):
    out = np.empty((disc.mesh.n_cells, disc.nk))
    for grp in disc.groups:
        rule = fm.polygon_quadrature(disc.mesh.cell_coords(grp.idx), grp.basis.center, degree)
        mom = np.einsum("gq,gqa->ga", per_cell(f, rule.nodes) * rule.weights,
                        grp.basis.values(rule.nodes))
        monoc = np.linalg.solve(grp.Hm, mom[:, :, None])[:, :, 0]
        T = taylor_to_monomial(disc.fvops.taylor, grp.idx)
        out[grp.idx] = np.linalg.solve(T, monoc[:, :, None])[:, :, 0]
    return out


def oracle_errors(disc, values, f):
    """L2 and Linf of (q_h - f) for per-cell Taylor coefficients or cell
    values, and the L2 and Linf of f as their scale."""
    tot = worst = tot_f = worst_f = 0.0
    for grp in disc.groups:
        if values.ndim == 1:
            vals = np.repeat(values[grp.idx][:, None], grp.qw.shape[1], axis=1)
        else:
            T = taylor_to_monomial(disc.fvops.taylor, grp.idx)
            mono = np.einsum("gab,gb->ga", T, values[grp.idx])
            vals = np.einsum("gqa,ga->gq", grp.qmono, mono)
        ex = per_cell(f, grp.qnodes)
        diff = vals - ex
        tot += float(np.sum(grp.qw * diff * diff))
        worst = max(worst, float(np.abs(diff).max()))
        tot_f += float(np.sum(grp.qw * ex * ex))
        worst_f = max(worst_f, float(np.abs(ex).max()))
    return (np.sqrt(tot), worst), (np.sqrt(tot_f), worst_f)


def assert_close(got, want, scale, what):
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale, what


@pytest.mark.parametrize("name", cases.case_names())
def test_grouped_sampler_equals_the_per_cell_loop(name):
    case = cases.get_case(name, **SMALL[name])
    mesh = case.make_mesh()
    assert mesh.n_cells <= 200
    disc = Discretization(mesh, fm.build_geometry(mesh), case.k)
    nb = disc.layout.moment_base
    row_means = {}
    for fname, f in case_functions(case).items():
        what = f"{name} {fname}"
        means = row_means[fname] = disc.cell_means(f)
        scale = np.abs(means).max()
        assert_close(means, oracle_cell_means(disc, f), scale, what)
        # cell_means passes `time` on to a function of (p, t)
        assert np.array_equal(disc.cell_means(lambda p, t: f(p), time=T), means), what

        dofs = disc.interpolate_dofs(f)
        assert np.array_equal(dofs[:nb], f(disc.layout.dof_coords[:nb])), what
        assert_close(dofs[nb:], oracle_moments(disc, f), scale, what)

        # the degree of the Discretization's own rule, and evaluate_bathymetry's
        for degree in (2 * case.k + 2, 2 * case.k + 8):
            coeffs = disc.project_field(f, degree=degree)
            want = oracle_projection(disc, f, degree)
            assert_close(coeffs, want, np.abs(want).max(), f"{what} degree {degree}")

        for values in (coeffs, means):
            report = error_norms(disc, {fname: values}, {fname: lambda p, t: f(p)}, T, 1.0)
            (l2, linf), (l2_f, linf_f) = oracle_errors(disc, values, f)
            assert abs(report.l2(fname) - l2) <= REL * l2_f, what
            assert abs(report.linf(fname) - linf) <= REL * linf_f, what

    # a function of stacked rows, sampled once per group: each row of its
    # cell means is bitwise that row's own
    for kind in ("exact", "initial"):
        state = getattr(case, kind, None)
        if state is not None:
            rows = disc.cell_means(lambda p: state(p, T))
            assert all(np.array_equal(row, row_means[f"{kind}[{i}]"])
                       for i, row in enumerate(rows)), f"{name} stacked {kind}"
