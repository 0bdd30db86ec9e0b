"""Two steps of every registered case on a small mesh: each case builds its
mesh, discretization, driver and initial state, and steps to a finite state.

The small meshes cover every mesh path of the generators: box, periodic
(ins_tgv, ins_double_shear), one-axis periodic (the Riemann problems,
swe_wellbalance), a hole with density grading (the cylinders) and the
structured rectangle (ins_stokes1)."""

import time

import numpy as np
import pytest

from fvvem.harness import runner
from fvvem.harness.cases import case_names, get_case
from fvvem.mesh import build_geometry
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


def test_every_case_has_a_small_mesh():
    assert sorted(SMALL) == case_names()


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
