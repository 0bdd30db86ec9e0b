"""Benchmark workloads: time-to-solution repetitions, their correctness
checks, and the reduction of repetitions to metrics.

A repetition is what a user of the solver waits for: build the case's mesh,
geometry, discretization, driver and initial state (set-up), then step to the
workload's end time with the same dt rule as ``runner.run_case`` (a pass).
Each repetition solves PASSES passes on its set-up, each from a fresh driver
and initial state.  Each repetition builds a new mesh from the run's seed,
so that a run's medians cover several meshes and one mesh that happens to
be cheap (generated once instead of twice, or with fewer cells) does not
decide the run.
One time step is one operation.  A step fails when it raises one of the
solver's errors or when any implicit solve in it was accepted on a plateau;
a pass that stops early counts the steps it did not reach as failed.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import fvvem.mesh
from fvvem.fv import FvError
from fvvem.harness import cases, runner
from fvvem.harness.errors import error_norms
from fvvem.linalg import SolverError
from fvvem.models import Discretization, InsDriver, ModelError
from fvvem.timeint import TimeIntError

from . import calibration
from .layers import SYSTEMS, SolveMonitor, installed
from .spans import Tracer, timing_summary

STEP_ERRORS = (ModelError, SolverError, TimeIntError, FvError)
END_TIME_TOL = 1e-13          # as run_case's loop condition
MIN_REPS = 4                  # untraced (and traced) repetitions a run makes
PASSES = 2                    # passes solved on each set-up
MESH_SEED_STRIDE = 1000       # more than the repetitions of any run
GRAD_EPS = 1e-6               # central-difference step for the wave's gradient


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    case: str
    params: dict                  # case overrides: mesh size, end time, physics
    max_steps: int                # a pass that needs more steps fails
    # tgv: the L2 error of state row `error_var` against case.exact must stay
    # below err_share times the error of a solver that left the initial
    # field unchanged, and of one that returned zero
    error_var: str | None = None
    err_share: float | None = None
    # wave: relative L2 distance of the momentum from the short-time response
    # -g t H0 grad(eta0) of a fluid at rest, and the relative mass drift
    momentum_err_bound: float | None = None
    mass_drift_bound: float | None = None


# Two workloads that between them reach every layer: tgv the INS solves on
# fixed matrices, wave the SWE convective, assembly, Dirichlet and free-surface
# work on a matrix that changes every stage.  The meshes are small enough that
# the whole benchmark, 4 + 22 * len(WORKLOADS) runs, fits in an hour.
# tgv runs at Re = 10 rather than the case's Re = 100: over t = 5 the exact
# flow then keeps e^-1 of its amplitude, so a solver that stops evolving the
# field is far outside the error bound, where at Re = 100 the coarse mesh's
# own error exceeds that of leaving the field unchanged.
WORKLOADS = {w.name: w for w in (
    Workload("tgv",
             "INS Taylor-Green vortex, periodic: time goes to the pure-Neumann "
             "pressure and viscous solves, and the pressure matrix never changes",
             "ins_tgv", {"h": 0.45, "t_end": 5.0, "reynolds": 10.0},
             max_steps=200, error_var="u", err_share=0.3),
    Workload("wave",
             "SWE smooth wave, k=2, SADIRK343: the free-surface matrix is "
             "reassembled and solved in each of 4 stages, with Dirichlet eta, so "
             "the solved matrix changes",
             "swe_smooth_wave", {"h": 0.12, "t_end": 0.004}, max_steps=4,
             momentum_err_bound=0.5, mass_drift_bound=1e-8),
)}


@dataclass
class Pass:
    """One solve from the initial state to the end time."""

    seconds: float
    step_times: list
    attempted: int
    failed: int
    checks: dict
    failures: list


@dataclass
class Rep:
    """One set-up from scratch and the passes solved on it."""

    traced: bool
    mesh_seed: int
    setup_s: float
    passes: list
    # calibration kernel times: before the set-up, after it, after each pass
    kernel_s: list

    @property
    def run_s(self) -> float:
        """Time to solution: the set-up and its first pass."""
        return self.setup_s + self.passes[0].seconds

    def scale(self, i: int) -> float:
        """Reference-seconds factor of stretch i: 0 the set-up, i the i-th pass."""
        return calibration.scale(self.kernel_s[i], self.kernel_s[i + 1])

    @property
    def setup_ref_s(self) -> float:
        return self.setup_s * self.scale(0)

    @property
    def run_ref_s(self) -> float:
        return self.setup_ref_s + self.passes[0].seconds * self.scale(1)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def solve_to_end(case, driver, state, monitor, tracer=None, max_steps=None):
    """Step to case.t_end with run_case's dt rule (a prescribed case.dt
    replaces the CFL step; its swe_rp special case is not a workload here).

    Returns (state, step durations, attempted, failed, error message).
    """
    t_end = case.t_end
    times = []
    failed = 0
    last_dt = None
    while state.time < t_end - END_TIME_TOL:
        if max_steps is not None and len(times) == max_steps:
            missing = math.ceil((t_end - state.time) / last_dt)
            return (state, times, len(times) + missing, failed + missing,
                    f"step limit {max_steps} reached at t={state.time:.6g}")
        plateaus = monitor.plateaus
        t0 = time.perf_counter()
        try:
            with _span(tracer, "timeint.dt"):
                dt = driver.compute_dt(state)
            if case.dt is not None:
                dt = case.dt
            dt = min(dt, t_end - state.time)
            with _span(tracer, "models.stage_other"):
                new = driver.step(state, dt)
        except STEP_ERRORS as exc:
            step = last_dt or case.dt
            missing = max(1, math.ceil((t_end - state.time) / step)) if step else 1
            return (state, times, len(times) + missing, failed + missing,
                    f"{type(exc).__name__} at t={state.time:.6g}: {exc}")
        times.append(time.perf_counter() - t0)
        state, last_dt = new, dt
        failed += monitor.plateaus > plateaus
    return state, times, len(times), failed, None


def l2_errors(case, disc, driver, state0, state, name):
    """L2 error of field `name` at the end time, with the fields and exact
    solutions ``runner.run_case`` uses, and the errors of two answers a broken
    solver gives: the initial field left unchanged, and zero."""
    fields_of = (runner._swe_error_fields if case.model == "swe"
                 else runner._ins_error_fields)
    fields, exacts = fields_of(case, disc, driver, state)
    initial = fields_of(case, disc, driver, state0)[0][name]
    h = float(disc.geom.h.max())

    def l2(field):
        report = error_norms(disc, {name: field}, {name: exacts[name]},
                             state.time, h)
        return float(report.l2(name))

    return l2(fields[name]), l2(initial), l2(np.zeros_like(initial))


def linear_momentum(case, disc, t):
    """Cell means of -g t H0 grad(eta0): the momentum a fluid at rest gains
    over a short time t (its leading Taylor term)."""
    def component(axis):
        step = np.zeros(2)
        step[axis] = GRAD_EPS

        def f(p, _t):
            e0 = case.exact(p, 0.0)
            grad = (case.exact(p + step, 0.0)[0]
                    - case.exact(p - step, 0.0)[0]) / (2.0 * GRAD_EPS)
            return -case.g0 * t * (e0[0] - e0[3]) * grad
        return disc.cell_means(f, time=t)
    return np.stack([component(0), component(1)])


def check(wl, case, disc, driver, state0, state) -> tuple[dict, list]:
    """Correctness values and the list of failed checks for a final state."""
    values, failures = {}, []
    arrays = [state.Q] + [v for v in state.aux.values() if isinstance(v, np.ndarray)]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        failures.append("state is not finite")
        return values, failures
    if abs(state.time - case.t_end) > END_TIME_TOL:
        failures.append(f"stopped at t={state.time:.6g}, end time {case.t_end}")
    if wl.err_share is not None:
        err, err_initial, err_zero = l2_errors(case, disc, driver, state0, state,
                                               wl.error_var)
        values.update(err_l2=err, err_l2_initial=err_initial, err_l2_zero=err_zero)
        limit = wl.err_share * min(err_initial, err_zero)
        if not err <= limit:
            failures.append(f"err_l2({wl.error_var}) = {err:.3e} above {limit:.3e}")
    if case.model == "swe":
        area = disc.geom.area
        b = driver.b_coeffs[:, 0]
        depth = state.Q[0] - b
        values["min_depth"] = float(depth.min())
        if not values["min_depth"] > 0.0:
            failures.append(f"depth not positive: min {values['min_depth']:.3e}")
        if wl.momentum_err_bound is not None:
            expected = linear_momentum(case, disc, state.time)
            dist = math.sqrt(area @ ((state.Q[1:3] - expected) ** 2).sum(axis=0))
            values["momentum_err"] = dist / math.sqrt(area @ (expected ** 2).sum(axis=0))
            if not values["momentum_err"] <= wl.momentum_err_bound:
                failures.append(f"momentum off the linear response by "
                                f"{values['momentum_err']:.3e}, above "
                                f"{wl.momentum_err_bound:g}")
        if wl.mass_drift_bound is not None:
            m0 = float(area @ (state0.Q[0] - b))
            drift = abs(float(area @ depth) - m0) / abs(m0)
            values["mass_drift"] = drift
            if not drift <= wl.mass_drift_bound:
                failures.append(f"mass drift {drift:.3e} above {wl.mass_drift_bound:g}")
    return values, failures


def run_rep(wl, mesh_seed, tracer=None) -> Rep:
    """Set up from scratch, then solve to the end time PASSES times."""
    monitor = SolveMonitor(tracer)
    passes = []
    kernel_s = [calibration.kernel_s()]
    with installed(monitor, tracer):
        t0 = time.perf_counter()
        with _span(tracer, "setup"):
            case = cases.get_case(wl.case, seed=mesh_seed, **wl.params)
            mesh = case.make_mesh()
            geom = fvvem.mesh.build_geometry(mesh)
            disc = Discretization(mesh, geom, k=case.k)
            with _span(tracer, "models.driver"):
                driver = runner.build_driver(case, disc)
            with _span(tracer, "models.initial_state"):
                state0 = runner.initial_state(case, driver)
        setup_s = time.perf_counter() - t0
        kernel_s.append(calibration.kernel_s())
        for i in range(PASSES):
            if i:
                # a fresh driver drops the caches the previous pass filled
                with _span(tracer, "rebuild"):
                    driver = runner.build_driver(case, disc)
                    state0 = runner.initial_state(case, driver)
            t1 = time.perf_counter()
            with _span(tracer, "pass"):
                state, times, attempted, failed, error = solve_to_end(
                    case, driver, state0, monitor, tracer, wl.max_steps)
                if tracer is not None and isinstance(driver, InsDriver):
                    tracer.count("ins.stages", len(times) * driver.pair.stages)
            seconds = time.perf_counter() - t1
            kernel_s.append(calibration.kernel_s())
            checks, failures = check(wl, case, disc, driver, state0, state)
            if error is not None:
                failures.insert(0, error)
            passes.append(Pass(seconds, times, attempted, failed, checks, failures))
    return Rep(tracer is not None, mesh_seed, setup_s, passes, kernel_s)


def mesh_seed(seed: int, i: int) -> int:
    """Mesh seed of the i-th mesh of a run with this seed."""
    return seed * MESH_SEED_STRIDE + i


def run_reps(wl, seed, seconds, trace):
    """Repeat until `seconds` have passed and MIN_REPS repetitions are done.
    A traced run alternates an untraced and a traced repetition of each
    mesh, so both see the same meshes and the same machine.
    """
    tracer = Tracer() if trace else None
    kinds = (False, True) if trace else (False,)
    reps = []
    start = time.perf_counter()
    while True:
        i, kind = divmod(len(reps), len(kinds))
        traced = kinds[kind]
        reps.append(run_rep(wl, mesh_seed(seed, i), tracer if traced else None))
        gc.collect()        # the last repetition's garbage, outside any timing
        if (i + 1 >= MIN_REPS and kind == len(kinds) - 1
                and time.perf_counter() - start >= seconds):
            return reps, tracer


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps) -> tuple[dict, dict]:
    """Metrics a user of the solver sees, as (value, unit), from untraced
    repetitions, and the details: the summary (median, tail percentile,
    sample count) of their step times, and the same medians in wall seconds.

    Each time metric is a median over every sample of the run, in reference
    seconds (see calibration.py).  On a shared machine the fastest sample
    depends on whether a quiet moment fell in the run, and spreads the
    run-to-run figures more than the median does.
    """
    plain = [r for r in reps if not r.traced]
    steps = [t * r.scale(i + 1) for r in plain for i, p in enumerate(r.passes)
             for t in p.step_times]
    wall = {
        "setup_s": statistics.median(r.setup_s for r in plain),
        "step_s": statistics.median(t for r in plain for p in r.passes
                                    for t in p.step_times),
        "run_s": statistics.median(r.run_s for r in plain),
        "kernel_s": statistics.median(k for r in plain for k in r.kernel_s),
    }
    return {
        "setup_s": (statistics.median(r.setup_ref_s for r in plain), "s"),
        "step_s": (statistics.median(steps), "s"),
        "run_s": (statistics.median(r.run_ref_s for r in plain), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"step_time": timing_summary(steps), "wall": wall}


SETUP_LAYERS = ("mesh.generate", "mesh.geometry", "fv.setup", "vem.elements",
                "vem.scatter", "transfer.setup", "models.groups",
                "models.disc_other", "models.bathymetry", "models.driver",
                "models.initial_state")
SETUP_COUNTED = ("mesh.generate", "vem.elements")
STEP_LAYERS = {name: f"{name}_s" for name in (
    "fv.reconstruct", "fv.flux", "models.convective", "models.assembly",
    "linalg.dirichlet", "transfer.fv_to_vem", "transfer.vem_to_fv",
    "timeint.dt", "models.stage_other")}
STEP_LAYERS.update({f"linalg.solve.{s}": f"linalg.solve_s.{s}"
                    for s in SYSTEMS.values()})
STEP_COUNTED = ("fv.reconstruct",)
SOLVE_COUNTS = ("solves", "iters", "skipped", "plateau")


def per_layer(reps, tracer) -> dict:
    """Per-layer self times and counts, as (value, unit), from the traced
    repetitions.

    A set-up layer's time is its median over the traced set-ups; a step
    layer's time is its total over the traced passes divided by their steps.
    A count is its median over the set-ups or passes of the first MIN_REPS
    traced repetitions, so that it does not depend on how many repetitions
    the machine's speed allowed.
    """
    phases = tracer.phases()
    setups = [p for p in phases if p.name == "setup"]
    passes = [p for p in phases if p.name == "pass"]
    first_setups, first_passes = setups[:MIN_REPS], passes[:MIN_REPS * PASSES]
    steps = sum(p.calls["models.stage_other"] for p in passes)
    out = {}
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = (statistics.median(p.self_s.get(name, 0.0) for p in setups),
                            "s")
    for name in SETUP_COUNTED:
        out[f"{name}_calls"] = (statistics.median(p.calls[name] for p in first_setups),
                                "count")
    out["setup.untraced_s"] = (statistics.median(p.self_s["setup"] for p in setups),
                               "s")
    for name, key in STEP_LAYERS.items():
        out[key] = (sum(p.self_s.get(name, 0.0) for p in passes) / steps, "s/step")
    out["steps.untraced_s"] = (sum(p.self_s["pass"] for p in passes) / steps, "s/step")
    for name in STEP_COUNTED:
        out[f"{name}_calls"] = (statistics.median(p.calls[name] for p in first_passes),
                                "count")
    for system in SYSTEMS.values():
        for what in SOLVE_COUNTS:
            key = f"linalg.{what}.{system}"
            vals = []
            for p in first_passes:
                n = p.counts[key]
                if key == "linalg.skipped.pressure":
                    # INS stages that skip the pressure solve never call it
                    n += p.counts["ins.stages"] - p.counts["linalg.solves.pressure"]
                vals.append(n)
            out[key] = (statistics.median(vals), "count")
    out["timeint.steps"] = (statistics.median(
        p.calls["models.stage_other"] for p in first_passes), "count")
    plain, traced = (statistics.median(r.run_s for r in reps if r.traced == kind)
                     for kind in (False, True))
    out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return out
