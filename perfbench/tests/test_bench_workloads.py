"""Failure counting, correctness checks and a traced run on tiny meshes."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fvvem.models
from fvvem.models import DryStateError
from perfbench import calibration
from perfbench import workloads as wlmod
from perfbench.layers import SolveMonitor

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeDriver:
    """dt 0.1; raises at step `fail_at`; reports a plateau at `plateau_at`."""

    def __init__(self, monitor, fail_at=None, plateau_at=()):
        self.monitor = monitor
        self.fail_at = fail_at
        self.plateau_at = plateau_at
        self.n = 0

    def compute_dt(self, state):
        return 0.1

    def step(self, state, dt):
        if self.n == self.fail_at:
            raise DryStateError("dry")
        if self.n in self.plateau_at:
            self.monitor.plateaus += 1
        self.n += 1
        return SimpleNamespace(time=state.time + dt)


def _solve(fail_at=None, plateau_at=(), max_steps=None, dt=None):
    mon = SolveMonitor()
    case = SimpleNamespace(t_end=1.0, dt=dt)
    start = SimpleNamespace(time=0.0)
    return wlmod.solve_to_end(case, FakeDriver(mon, fail_at, plateau_at), start,
                              mon, max_steps=max_steps)


def test_clean_pass_counts_every_step():
    state, times, attempted, failed, error = _solve()
    assert (len(times), attempted, failed, error) == (10, 10, 0, None)
    assert state.time == pytest.approx(1.0)


def test_plateau_steps_fail():
    _, times, attempted, failed, error = _solve(plateau_at=(2, 5))
    assert (len(times), attempted, failed, error) == (10, 10, 2, None)


def test_raising_step_fails_with_the_steps_it_did_not_reach():
    state, times, attempted, failed, error = _solve(fail_at=4, plateau_at=(1,))
    assert len(times) == 4 and state.time == pytest.approx(0.4)
    assert attempted == 4 + 6 and failed == 1 + 6
    assert error.startswith("DryStateError")


def test_first_step_raising_uses_prescribed_dt():
    _, _, attempted, failed, _ = _solve(fail_at=0, dt=0.25)
    assert attempted == failed == 4


def test_step_limit_fails_the_rest():
    _, times, attempted, failed, error = _solve(max_steps=3)
    assert len(times) == 3 and attempted == 10 and failed == 7
    assert "step limit" in error


TINY = {
    "swe_smooth_wave": wlmod.Workload("tiny_wave", "", "swe_smooth_wave",
                                      {"h": 0.5, "t_end": 0.002, "sigma": 0.4}, 10,
                                      momentum_err_bound=0.5,
                                      mass_drift_bound=1e-4),
    "ins_tgv": wlmod.Workload("tiny_tgv", "", "ins_tgv",
                              {"h": 0.7, "t_end": 5.0, "reynolds": 10.0}, 50,
                              error_var="u", err_share=0.6),
}


def _final(wl, seed=0):
    from fvvem.harness import cases, runner
    from fvvem.mesh import build_geometry
    case = cases.get_case(wl.case, seed=seed, **wl.params)
    mesh = case.make_mesh()
    disc = fvvem.models.Discretization(mesh, build_geometry(mesh), k=case.k)
    driver = runner.build_driver(case, disc)
    state0 = runner.initial_state(case, driver)
    state, *_ = wlmod.solve_to_end(case, driver, state0, SolveMonitor(),
                                   max_steps=wl.max_steps)
    return case, disc, driver, state0, state


@pytest.fixture(scope="module")
def tgv():
    return _final(TINY["ins_tgv"])


def test_error_bound_is_enforced(tgv):
    case, disc, driver, state0, state = tgv
    wl = TINY["ins_tgv"]
    values, failures = wlmod.check(wl, case, disc, driver, state0, state)
    trivial = min(values["err_l2_initial"], values["err_l2_zero"])
    assert failures == [] and 0.0 < values["err_l2"] <= wl.err_share * trivial
    strict = dataclasses.replace(wl, err_share=0.5 * values["err_l2"] / trivial)
    _, failures = wlmod.check(strict, case, disc, driver, state0, state)
    assert any(f.startswith("err_l2(u)") for f in failures)


def test_unchanged_field_fails_the_error_check(tgv):
    case, disc, driver, state0, state = tgv
    frozen = state0.copy()
    frozen.time = state.time
    values, failures = wlmod.check(TINY["ins_tgv"], case, disc, driver, state0,
                                   frozen)
    assert values["err_l2"] == pytest.approx(values["err_l2_initial"])
    assert any(f.startswith("err_l2(u)") for f in failures)


def test_check_catches_nonfinite_and_early_stop(tgv):
    case, disc, driver, state0, state = tgv
    wl = TINY["ins_tgv"]
    bad = state.copy()
    bad.aux = dict(bad.aux, p_dofs=np.full_like(bad.aux["p_dofs"], np.nan))
    assert wlmod.check(wl, case, disc, driver, state0, bad)[1] == ["state is not finite"]
    early = state.copy()
    early.time = 0.5 * case.t_end
    _, failures = wlmod.check(wl, case, disc, driver, state0, early)
    assert any(f.startswith("stopped at") for f in failures)


def test_wave_checks_depth_mass_and_motion():
    wl = TINY["swe_smooth_wave"]
    case, disc, driver, state0, state = _final(wl)
    values, failures = wlmod.check(wl, case, disc, driver, state0, state)
    assert failures == [] and values["min_depth"] > 0.0
    assert values["momentum_err"] <= wl.momentum_err_bound
    frozen = state0.copy()
    frozen.time = state.time
    values, failures = wlmod.check(wl, case, disc, driver, state0, frozen)
    assert values["momentum_err"] == pytest.approx(1.0)
    assert any(f.startswith("momentum off") for f in failures)
    bad = state.copy()
    bad.Q[0, 0] = -1.0
    _, failures = wlmod.check(wl, case, disc, driver, state0, bad)
    assert any(f.startswith("depth not positive") for f in failures)
    assert any(f.startswith("mass drift") for f in failures)


def _rep(mesh_seed, setup_s, steps, traced=False, kernel_s=None):
    kernel_s = kernel_s or [calibration.REFERENCE_S] * 3
    return wlmod.Rep(traced, mesh_seed, setup_s,
                     [wlmod.Pass(sum(steps), steps, len(steps), 0, {}, [])],
                     kernel_s)


def test_end_to_end_takes_medians_of_untraced_repetitions():
    reps = [_rep(0, 2.0, [0.3, 0.1]), _rep(1, 5.0, [1.0]),
            _rep(2, 3.0, [0.5, 0.2]), _rep(0, 0.1, [0.01], traced=True)]
    values, steps = wlmod.end_to_end(reps)
    assert values["setup_s"][0] == pytest.approx(3.0)      # of 2, 5, 3
    assert values["run_s"][0] == pytest.approx(3.7)        # of 2.4, 6, 3.7
    assert values["step_s"][0] == pytest.approx(0.3)       # of all 5 steps
    assert steps["step_time"]["n"] == 5
    assert steps["wall"]["step_s"] == pytest.approx(0.3)


def test_times_are_scaled_by_the_kernel_beside_them():
    ref = calibration.REFERENCE_S
    # the kernel ran at reference speed around the set-up, at half speed
    # (twice its reference time) after the pass
    rep = _rep(0, 2.0, [0.3, 0.6], kernel_s=[ref, ref, 3.0 * ref])
    assert rep.scale(0) == pytest.approx(1.0) and rep.scale(1) == pytest.approx(0.5)
    values, details = wlmod.end_to_end([rep])
    assert values["setup_s"][0] == pytest.approx(2.0)
    assert values["step_s"][0] == pytest.approx(0.225)     # of 0.15, 0.3
    assert values["run_s"][0] == pytest.approx(2.45)
    assert details["wall"]["run_s"] == pytest.approx(2.9)


def test_runs_with_different_seeds_share_no_mesh():
    reps = 2 * wlmod.MIN_REPS
    seeds = [{wlmod.mesh_seed(s, i) for i in range(reps)} for s in (3, 4)]
    assert len(seeds[0]) == reps and seeds[0].isdisjoint(seeds[1])


def test_traced_run_reports_every_layer_metric():
    wl = TINY["ins_tgv"]
    reps, tracer = wlmod.run_reps(wl, 0, 0.0, trace=True)
    assert [r.traced for r in reps] == [False, True] * wlmod.MIN_REPS
    assert [r.mesh_seed for r in reps] == [
        wlmod.mesh_seed(0, i) for i in range(wlmod.MIN_REPS) for _ in (0, 1)]
    assert all(len(r.passes) == wlmod.PASSES for r in reps)
    assert all(p.failures == [] and p.failed == 0 for r in reps for p in r.passes)
    metrics = wlmod.per_layer(reps, tracer)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    layers = {name: value for name, (value, _) in metrics.items()}
    steps = layers["timeint.steps"]
    # LSDIRK222: two stages per step, each reconstructing its explicit and
    # implicit inputs, with two viscous solves and one pressure projection
    assert layers["fv.reconstruct_calls"] == 4 * steps
    assert layers["linalg.solves.viscous"] == 4 * steps
    # stages that never called the pressure solve count as skipped, as do
    # calls that needed no iteration
    skipped_min = 2 * steps - layers["linalg.solves.pressure"]
    assert skipped_min <= layers["linalg.skipped.pressure"] <= 2 * steps
    assert layers["mesh.generate_calls"] >= 1 and layers["vem.elements_calls"] > 0
    assert layers["linalg.solve_s.free_surface"] == 0.0
    assert fvvem.models.solve_implicit.__name__ == "solve_implicit"
    assert not hasattr(fvvem.models.solve_implicit, "__wrapped__")



def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in wlmod.WORKLOADS.values()]
    values, _ = wlmod.end_to_end([_rep(0, 1.0, [0.1, 0.2])])
    assert {name: unit for name, (_, unit) in values.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
