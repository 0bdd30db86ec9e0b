"""Two steps of every registered case on a small mesh: each case builds its
mesh, discretization, driver and initial state, and steps to a finite state.

The small meshes cover every mesh path of the generators: box, periodic
(ins_tgv, ins_double_shear), one-axis periodic (the Riemann problems,
swe_wellbalance), a hole with density grading (the cylinders) and the
structured rectangle (ins_stokes1).  The registry holds every case and no
base class, each case reads the mesh size it always read and generates its
Voronoi mesh with one `generate_voronoi` call, and `get_case` names a
parameter the case does not have, a value of another type or a shared
parameter out of its bounds."""

import re
import time

import numpy as np
import pytest

from fvvem.harness import cases, runner
from fvvem.harness.cases import CaseBase, InsCase, SweCase, case_names, get_case
from fvvem.mesh import build_geometry, generate_voronoi
from fvvem.models import Discretization, DryStateError

# case parameters of the small meshes; ins_tgv and swe_vortex get a later end
# time, as one CFL step on their small meshes passes their own
SMALL = {
    "ins_cavity": dict(h=0.2),
    "ins_cylinder": dict(n_cells=300),
    "ins_double_shear": dict(h=0.2),
    "ins_poiseuille": dict(n_cells=100),
    "ins_stokes1": dict(),                    # a 100 x 2 rectangle grid
    "ins_tgv": dict(h=0.9, t_end=2.0),
    "ins_womersley": dict(h=0.2),
    "swe_circular_dam": dict(h=0.5),
    "swe_cylinder": dict(n_cells=300),
    "swe_rp1": dict(h=0.045),
    "swe_rp2": dict(h=1.3),
    "swe_rp3": dict(h=0.45),
    "swe_rp4": dict(h=0.45),
    "swe_smooth_wave": dict(h=0.25),
    "swe_vortex": dict(h=1.5, t_end=2.0),
    "swe_wellbalance": dict(n_cells=100),
}

# the depth goes negative in the first step, at every size and seed tried
DRIES = {"swe_rp2", "swe_rp4"}


# the mesh size each case reads, as it read it when each case named its own
MESH_PARAM = {
    **dict.fromkeys(["swe_vortex", "swe_rp1", "swe_rp2", "swe_rp3", "swe_rp4",
                     "swe_circular_dam", "swe_smooth_wave", "ins_tgv", "ins_womersley",
                     "ins_double_shear", "ins_cavity"], "h"),
    **dict.fromkeys(["swe_wellbalance", "swe_cylinder", "ins_poiseuille", "ins_cylinder"],
                    "n_cells"),
    "ins_stokes1": None,
}


def test_every_case_has_a_small_mesh():
    assert sorted(SMALL) == case_names()


def test_the_registry_holds_the_cases_and_no_base():
    assert len(case_names()) == 16
    assert not {"CaseBase", "SweCase", "InsCase"} & {type(get_case(n)).__name__
                                                    for n in case_names()}
    for base in (CaseBase, SweCase, InsCase):
        assert "name" not in vars(base)


def test_each_case_reads_its_mesh_size():
    assert {name: get_case(name).mesh_param for name in case_names()} == MESH_PARAM


@pytest.mark.parametrize("name", [name for name in sorted(SMALL) if MESH_PARAM[name]])
def test_each_generated_mesh_takes_one_generate_voronoi_call(monkeypatch, name):
    seeds = []

    def counted(box, n_seeds, **kwargs):
        seeds.append(n_seeds)
        return generate_voronoi(box, n_seeds, **kwargs)

    monkeypatch.setattr(cases, "generate_voronoi", counted)
    mesh = get_case(name, seed=0, **SMALL[name]).make_mesh()
    assert len(seeds) == 1 and mesh.n_cells == seeds[0]


def test_a_parameter_the_case_does_not_have_raises():
    for name in ("ins_cavity", "swe_vortex", "swe_cylinder"):
        with pytest.raises(ValueError, match=f"case '{name}' has no parameter 'mass_update'"):
            get_case(name, mass_update="transfer")


@pytest.mark.parametrize("name, key, value, kind", [
    ("ins_tgv", "k", "two", "int"),
    ("ins_tgv", "k", 2.0, "int"),
    ("ins_tgv", "seed", 1.5, "int"),
    ("ins_tgv", "k", True, "int"),
    ("swe_vortex", "H0", "deep", "float"),
    ("swe_vortex", "H0", False, "float"),
    ("ins_tgv", "scheme", 2, "str"),
    ("ins_womersley", "dt", None, "float"),
])
def test_a_value_of_another_type_raises(name, key, value, kind):
    with pytest.raises(ValueError, match=f"case '{name}': parameter '{key}' of type {kind} "
                                         f"cannot take {value!r}"):
        get_case(name, **{key: value})


def test_values_of_the_declared_type_pass():
    # numpy scalars, an int for a float, and None where the default is None
    case = get_case("swe_vortex", k=np.int64(2), seed=np.int32(3), H0=1000,
                    cfl=np.float64(0.5), t_end=np.float32(0.25), scheme=np.str_("SP111"),
                    dt=np.float64(0.02))
    assert (case.k, case.seed, case.H0, case.cfl, case.scheme, case.dt) == (
        2, 3, 1000, 0.5, "SP111", 0.02)
    assert case.t_end == np.float32(0.25)
    assert get_case("ins_tgv", dt=None).dt is None


@pytest.mark.parametrize("name, key, value, bound", [
    ("ins_poiseuille", "t_end", 0.0, "must be positive"),
    ("ins_poiseuille", "t_end", -1.0, "must be positive"),
    ("ins_tgv", "h", -1.0, "must be positive"),
    ("ins_tgv", "h", 0.0, "must be positive"),
    ("ins_poiseuille", "dt", 0.0, "must be positive"),
    ("ins_poiseuille", "dt", -0.1, "must be positive"),
    ("ins_poiseuille", "cfl", 1.5, "must lie in (0, 1]"),
    ("swe_vortex", "cfl", 0.0, "must lie in (0, 1]"),
    ("ins_poiseuille", "seed", -1, "must be nonnegative"),
    ("swe_vortex", "t_end", float("nan"), "must be positive"),
    ("ins_poiseuille", "t_end", float("inf"), "must be finite"),
    ("ins_tgv", "h", float("inf"), "must be finite"),
    ("ins_poiseuille", "dt", float("inf"), "must be finite"),
    ("ins_tgv", "k", 0, "must lie in 1..4"),
    ("swe_vortex", "k", 5, "must lie in 1..4"),
    ("ins_poiseuille", "n_cells", 3, "must be at least 4"),
    ("swe_wellbalance", "n_cells", -5, "must be at least 4"),
])
def test_a_shared_parameter_out_of_bounds_raises(name, key, value, bound):
    message = f"case '{name}': parameter '{key}' {bound}, not {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        get_case(name, **{key: value})


def test_every_default_is_within_bounds():
    # the bounds hold at the edges and None passes where the default is None
    for name in case_names():
        get_case(name)
    case = get_case("ins_tgv", cfl=1.0, seed=0, dt=None)
    assert (case.cfl, case.seed, case.dt) == (1.0, 0, None)


def test_tgv_viscosity_is_the_inverse_reynolds_number():
    assert get_case("ins_tgv").nu == 0.01
    assert get_case("ins_tgv", reynolds=10.0).nu == 0.1


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=DryStateError))
    if name in DRIES else name for name in sorted(SMALL)])
def test_two_steps(name):
    case = get_case(name, seed=0, **SMALL[name])
    mesh = case.make_mesh()
    disc = Discretization(mesh, build_geometry(mesh), k=case.k)
    driver = runner.build_driver(case, disc)
    state = runner.initial_state(case, driver)
    t0 = state.time
    for _ in range(2):
        state = driver.step(state, runner.next_dt(case, driver, state))
    assert state.time > t0
    assert np.all(np.isfinite(state.Q))
    assert all(np.all(np.isfinite(v)) for v in state.aux.values()
               if isinstance(v, np.ndarray))


@pytest.mark.parametrize("seed", [0, 1])
def test_swe_vortex_defaults_take_ten_steps(seed):
    # one CFL step of the default mesh passes t_end; the dt cap keeps the
    # case from reporting the errors of a single step
    res = runner.run_case(get_case("swe_vortex", seed=seed), quiet=True)
    assert res.ledger["steps"] >= 10
    assert res.state.time == pytest.approx(res.case.t_end, abs=1e-13)
