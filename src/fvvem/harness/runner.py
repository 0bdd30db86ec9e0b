"""Case runner: deterministic benchmark execution, error reports, ledger."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..linalg import DEFAULT_TOL
from ..mesh import build_geometry, read_mesh
from ..models import Discretization, InsConfig, InsDriver, SweConfig, SweDriver
from ..timeint import TimeIntError
from .errors import ErrorReport, error_norms, observed_orders
from .output import write_error_csv, write_ledger, write_vtk


@dataclass
class RunResult:
    case: object
    report: ErrorReport
    state: object
    driver: object
    disc: Discretization
    ledger: dict
    gate_passed: bool = True
    gate_message: str = ""
    outputs: list = field(default_factory=list)


def design_ledger(case, disc, driver, extra=None) -> dict:
    """Every tunable/design parameter in effect for auditability."""
    cfg = disc.cweno_cfg
    led = {
        "case": case.name,
        "order_k": disc.k,
        "scheme": driver.pair.name,
        "cfl": driver.cfl,
        "mesh_cells": disc.mesh.n_cells,
        "mesh_h_max": float(disc.geom.h.max()),
        "mesh_h_min": float(disc.geom.h.min()),
        "cweno_lambda_central": cfg.lambda_central,
        "cweno_lambda_sector": cfg.lambda_sector,
        "cweno_eps": cfg.eps,
        "cweno_power": cfg.power,
        "cweno_stencil_target": f"max({cfg.growth}*nk, nk+2)",
        "cweno_central_indicator": "stencil-fit residual (exact polynomial reproduction)",
        "edge_flux_gauss_points": disc.k + 1,
        "interior_quadrature_degree": 2 * disc.k,
        "coefficient_quadrature_degree": 2 * disc.k + 2,
        "solver": "preconditioned conjugate gradients, increment form",
        "solver_tol": driver.tol,
        "stiffness_stabilization": "dimensionless dof-dof (|P| factor dropped; mass keeps |P|)",
        "swe_wave_equation_form": "SPD (M + dt^2 g K), printed signs treated as typos",
        "ins_helmholtz_viscosity": "nu restored in (M + dt nu K)",
        "tgv_pressure_sign": "momentum-consistent (+) orientation",
    }
    for system, precond in driver.preconditioners.items():
        led[f"solver_preconditioner_{system.replace('-', '_')}"] = precond
    if isinstance(driver, SweDriver):
        led["swe_mass_update"] = driver.mass_update
        led["gravity"] = driver.config.g
    else:
        led["viscosity"] = driver.config.nu
    if extra:
        led.update(extra)
    return led


def build_driver(case, disc):
    if case.model == "swe":
        cfg = SweConfig(g=case.g0)
        return SweDriver(disc, cfg, case.bcs(), scheme=case.scheme, cfl=case.cfl,
                         bathymetry=case.bathymetry(), tol=DEFAULT_TOL,
                         mass_update=case.mass_update)
    cfg = InsConfig(nu=case.nu, body_force=case.body_force())
    return InsDriver(disc, cfg, case.bcs(), scheme=case.scheme, cfl=case.cfl,
                     tol=DEFAULT_TOL)


def initial_state(case, driver):
    init = getattr(case, "initial", None) or case.exact
    if case.model == "swe":
        return driver.initial_state(init)
    pexact = case.pressure_exact() or (lambda p, t: np.zeros(len(p)))
    return driver.initial_state(init, pexact)


def _swe_error_fields(case, disc, driver, state):
    coeffs = disc.fvops.reconstruct(state.Q)
    fields, exacts = {}, {}
    names = case.error_variables()
    if not names:
        return fields, exacts
    b0 = driver.b_coeffs[:, 0]
    for name in names:
        if name == "eta":
            fields[name] = coeffs[0]
            exacts[name] = lambda p, t: case.exact(p, t)[0]
        elif name == "u":
            fields[name] = state.Q[1] / (state.Q[0] - b0)
            exacts[name] = lambda p, t: (case.exact(p, t)[1]
                                         / (case.exact(p, t)[0] - case.exact(p, t)[3]))
        elif name == "Hu":
            fields[name] = coeffs[1]
            exacts[name] = lambda p, t: case.exact(p, t)[1]
    return fields, exacts


def _ins_error_fields(case, disc, driver, state):
    coeffs = disc.fvops.reconstruct(state.Q)
    fields, exacts = {}, {}
    for name in case.error_variables():
        if name == "u":
            fields[name] = coeffs[0]
            exacts[name] = lambda p, t: case.exact(p, t)[0]
        elif name == "v":
            fields[name] = coeffs[1]
            exacts[name] = lambda p, t: case.exact(p, t)[1]
        elif name == "p" and case.pressure_exact() is not None:
            pc = state.aux["p_coeffs"].copy()
            pex_fun = case.pressure_exact()
            # compare up to the gauge: align means
            pex_mean = float(np.sum(disc.geom.area * disc.cell_means(
                pex_fun, time=state.time))) / disc.area_total
            ph_mean = float(np.sum(disc.geom.area * pc[:, 0])) / disc.area_total
            pc[:, 0] += pex_mean - ph_mean
            fields[name] = pc
            exacts[name] = pex_fun
    return fields, exacts


def run_case(case, out_prefix: str | None = None, quiet: bool = False,
             mesh_file: str | None = None, max_steps: int = 100_000) -> RunResult:
    """Deterministic single-case run with error report and design ledger.

    Raises TimeIntError when `max_steps` steps do not reach the end time.
    """
    t0 = time.time()
    if mesh_file:
        mesh = read_mesh(mesh_file)
    else:
        mesh = case.make_mesh()
    geom = build_geometry(mesh)
    disc = Discretization(mesh, geom, k=case.k)
    driver = build_driver(case, disc)
    state = initial_state(case, driver)
    t1 = time.time()
    t_end = case.t_end
    steps = 0
    while state.time < t_end - 1e-13:
        if steps == max_steps:
            raise TimeIntError(f"{case.name}: step limit {max_steps} reached at "
                               f"t = {state.time:.6g}, before the end time {t_end:g}")
        dt = driver.compute_dt(state)
        if case.dt is not None:
            dt = min(case.dt, dt) if case.model == "swe" and case.name.startswith(
                "swe_rp") else case.dt
        dt = min(dt, t_end - state.time)
        state = driver.step(state, dt)
        steps += 1
        if not quiet and steps % 50 == 0:
            print(f"  [{case.name}] step {steps}  t = {state.time:.5f}")
    setup_s, steps_s = t1 - t0, time.time() - t1
    if case.model == "swe":
        fields, exacts = _swe_error_fields(case, disc, driver, state)
    else:
        fields, exacts = _ins_error_fields(case, disc, driver, state)
    if fields:
        report = error_norms(disc, fields, exacts, state.time, float(geom.h.max()))
    else:
        report = ErrorReport(float(geom.h.max()), {})
    report.runtime = setup_s + steps_s
    report.steps = steps
    report.solver_iterations = driver.stats.iterations
    ledger = design_ledger(case, disc, driver, extra={
        "steps": steps, "setup_s": round(setup_s, 3), "steps_s": round(steps_s, 3),
        "solver_iterations_total": driver.stats.iterations,
        "solver_last_residual": driver.stats.last_residual,
    })
    result = RunResult(case, report, state, driver, disc, ledger)
    gate = getattr(case, "gate", None)
    if gate is not None and fields:
        result.gate_passed, result.gate_message = gate(report)
    if out_prefix:
        data = {}
        if case.model == "swe":
            b0 = driver.b_coeffs[:, 0]
            data = {"eta": state.Q[0], "qx": state.Q[1], "qy": state.Q[2],
                    "b": b0, "u": state.Q[1] / (state.Q[0] - b0),
                    "v": state.Q[2] / (state.Q[0] - b0)}
        else:
            data = {"u": state.Q[0], "v": state.Q[1],
                    "p": state.aux["p_coeffs"][:, 0]}
        vtk = f"{out_prefix}_{case.name}.vtk"
        write_vtk(vtk, mesh, data, title=case.name)
        lpath = f"{out_prefix}_{case.name}_ledger.txt"
        write_ledger(lpath, ledger)
        result.outputs = [vtk, lpath]
    if not quiet:
        print(f"[{case.name}] steps={steps} setup={setup_s:.1f}s stepping={steps_s:.1f}s "
              f"iters={driver.stats.iterations}")
        for name, (l2, linf) in report.errors.items():
            print(f"  L2({name}) = {l2:.6e}   Linf({name}) = {linf:.6e}")
        if gate is not None and fields:
            print(f"  gate: {'PASS' if result.gate_passed else 'FAIL'} "
                  f"({result.gate_message})")
    return result


def convergence_study(case_factory, hs, out_prefix: str | None = None,
                      quiet: bool = False) -> list:
    """Run the case on a mesh sequence; report errors and observed orders."""
    reports = []
    for h in hs:
        case = case_factory(h)
        res = run_case(case, quiet=quiet)
        reports.append(res.report)
    observed_orders(reports)
    if reports and out_prefix:
        case = case_factory(hs[0])
        write_error_csv(f"{out_prefix}_{case.name}_convergence.csv", reports,
                        case.error_variables())
    if not quiet:
        for rep in reports:
            cols = "  ".join(
                f"L2({n})={rep.l2(n):.4e} O={rep.orders.get(n, float('nan')):.2f}"
                for n in rep.errors)
            print(f"h={rep.h:.4f}  {cols}")
    return reports
