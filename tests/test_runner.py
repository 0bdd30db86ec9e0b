from types import SimpleNamespace

import numpy as np
import pytest

from fvvem import models
from fvvem.harness import cases, cli, runner
from fvvem.harness.cases import case_names, get_case
from fvvem.timeint import TimeIntError

# the CWENO constants the ledger reports, as recorded before they became
# module constants of fvvem.fv
CWENO_LEDGER = {
    "cweno_lambda_central": 1e5,
    "cweno_lambda_sector": 1.0,
    "cweno_eps": 1e-14,
    "cweno_power": 4,
    "cweno_stencil_target": "max(1.5*nk, nk+2)",
    "cweno_central_indicator": "stencil-fit residual (exact polynomial reproduction)",
}


def tiny_tgv(t_end):
    return get_case("ins_tgv", h=0.9, t_end=t_end)


def test_ledger_records_solver_and_phase_times():
    res = runner.run_case(tiny_tgv(0.1), quiet=True)
    led = res.ledger
    assert res.state.time == pytest.approx(0.1)
    assert led["solver_tol"] == 1e-12
    assert led["solver_preconditioner_viscous"] == models.FROZEN_FACTOR
    assert f"more than {models.REFACTOR_ITERATIONS} CG iterations" in models.FROZEN_FACTOR
    assert "factored once" in led["solver_preconditioner_pressure"]
    assert led["solver_iterations_total"] == res.driver.stats.iterations > 0
    assert led["setup_s"] > 0.0 and led["steps_s"] > 0.0
    assert "runtime_s" not in led
    assert {key: v for key, v in led.items() if key.startswith("cweno_")} == CWENO_LEDGER


def test_step_limit_raises():
    with pytest.raises(TimeIntError, match="step limit 1 reached"):
        runner.run_case(tiny_tgv(1.0), quiet=True, max_steps=1)


def test_cli_exits_1_at_step_limit(monkeypatch, capsys):
    real = runner.run_case
    monkeypatch.setattr(cli, "run_case",
                        lambda case, **kw: real(case, max_steps=1, **kw))
    code = cli.main(["run", "--case", "ins_tgv", "--mesh", "gen:h=0.9",
                     "--tend", "1", "--quiet"])
    assert code == 1
    assert "step limit" in capsys.readouterr().err


def record_dt(monkeypatch):
    """Make run_case's drivers record, per step, the CFL dt and the dt taken."""
    steps = []
    build = runner.build_driver

    def recording_driver(case, disc):
        driver = build(case, disc)
        compute_dt, step = driver.compute_dt, driver.step

        def cfl_dt(state):
            steps.append([compute_dt(state)])
            return steps[-1][0]

        def take(state, dt):
            steps[-1].append(dt)
            return step(state, dt)

        driver.compute_dt, driver.step = cfl_dt, take
        return driver

    monkeypatch.setattr(runner, "build_driver", recording_driver)
    return steps


def test_given_dt_replaces_the_cfl_step(monkeypatch):
    steps = record_dt(monkeypatch)
    case = get_case("ins_tgv", h=0.9, t_end=0.05, dt=0.05, cfl=0.01)
    assert not case.dt_caps_cfl
    runner.run_case(case, quiet=True)
    ((cfl_dt, taken),) = steps
    assert cfl_dt < taken == case.dt


def test_dt_caps_cfl_takes_the_smaller_step(monkeypatch):
    steps = record_dt(monkeypatch)
    case = get_case("ins_tgv", h=0.9, t_end=0.05, dt=0.05, cfl=0.01)
    monkeypatch.setattr(type(case), "dt_caps_cfl", True)
    runner.run_case(case, quiet=True)
    assert len(steps) > 1
    for cfl_dt, taken in steps[:-1]:
        assert taken == cfl_dt < case.dt


def test_only_the_riemann_cases_cap_dt():
    for name in case_names():
        assert get_case(name).dt_caps_cfl == name.startswith("swe_rp"), name


def read_vtk_cell_data(path: str) -> dict:
    """The CELL_DATA scalars of a legacy VTK file that write_vtk wrote."""
    out = {}
    with open(path) as f:
        lines = f.read().splitlines()
    i = 0
    ncells = None
    while i < len(lines):
        parts = lines[i].split()
        if parts[:1] == ["CELL_DATA"]:
            ncells = int(parts[1])
        elif parts[:1] == ["SCALARS"] and ncells is not None:
            out[parts[1]] = np.array([float(lines[i + 2 + j]) for j in range(ncells)])
            i += 1 + ncells
        i += 1
    return out


def test_vtk_round_trip(tmp_path):
    res = runner.run_case(get_case("ins_tgv", h=0.9, t_end=0.1, dt=0.05), quiet=True,
                          out_prefix=str(tmp_path / "run"))
    assert res.report.steps == 2
    data = read_vtk_cell_data(res.outputs[0])
    assert sorted(data) == ["p", "u", "v"]
    for name, written in (("u", res.state.Q[0]), ("v", res.state.Q[1]),
                          ("p", res.state.aux["p_coeffs"][:, 0])):
        assert np.array_equal(data[name], written), name


def cli_cases(monkeypatch) -> list:
    """Make `cli.main` record the cases it would run instead of running them."""
    seen = []

    def record(case, **_):
        seen.append(case)
        return SimpleNamespace(gate_passed=True)

    monkeypatch.setattr(cli, "run_case", record)
    return seen


def test_config_file_param_is_applied(tmp_path, monkeypatch):
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text("param = nu=0.05\ntend = 0.3\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 0
    (case,) = seen
    assert case.nu == 0.05 and case.t_end == 0.3


def test_param_flag_beats_the_config_file(tmp_path, monkeypatch):
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text("param = nu=0.05\ntend = 0.3\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet",
                     "--param", "nu=0.02", "--tend", "0.4"]) == 0
    (case,) = seen
    assert case.nu == 0.02 and case.t_end == 0.4


def test_config_file_unknown_key_exits_1(tmp_path, monkeypatch, capsys):
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text("ordr = 2\ntend = 0.3\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 1
    assert "unknown key 'ordr'" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("mesh, key", [("gen:hh=0.2", "hh"), ("gen:h=0.5,sed=3", "sed"),
                                       ("gen:h", "h")])
def test_mesh_gen_unknown_key_exits_1(monkeypatch, capsys, mesh, key):
    seen = cli_cases(monkeypatch)
    assert cli.main(["run", "--case", "ins_tgv", "--mesh", mesh, "--quiet"]) == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert seen == []


def test_mesh_gen_keys_set_the_case(monkeypatch):
    seen = cli_cases(monkeypatch)
    assert cli.main(["run", "--case", "ins_tgv", "--mesh", "gen:h=0.5,seed=3", "--quiet"]) == 0
    assert cli.main(["run", "--case", "ins_poiseuille", "--mesh", "gen:n=40,seed=3",
                     "--quiet"]) == 0
    assert [(case.h, case.seed, case.n_cells) for case in seen] == [(0.5, 3, None),
                                                                    (None, 3, 40)]


@pytest.mark.parametrize("case, flags, key", [
    ("swe_vortex", ["--mesh", "gen:n=50"], "n_cells"),
    ("ins_tgv", ["--mesh", "gen:h=0.5,n=40"], "n_cells"),
    ("ins_poiseuille", ["--mesh", "gen:h=0.05"], "h"),
    ("swe_cylinder", ["--param", "h=0.3"], "h"),
    ("swe_smooth_wave", ["--param", "n_cells=300"], "n_cells"),
    ("ins_stokes1", ["--mesh", "gen:h=0.1"], "h"),
], ids=["gen_n_on_h_case", "gen_h_and_n", "gen_h_on_n_case", "param_h_on_n_case",
        "param_n_on_h_case", "fixed_mesh"])
def test_mesh_size_the_case_does_not_read_exits_1(monkeypatch, capsys, case, flags, key):
    seen = cli_cases(monkeypatch)
    assert cli.main(["run", "--case", case, *flags, "--quiet"]) == 1
    assert f"would ignore '{key}'" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("name", [n for n in case_names() if get_case(n).mesh_param])
def test_each_case_reads_the_mesh_size_it_names(monkeypatch, name):
    # the generators record the size they are asked for instead of meshing
    asked = []

    class Asked(Exception):
        pass

    def record(box, size, *args, **kwargs):
        asked.append(size)
        raise Asked

    for fn in ("mesh_for_target_h", "generate_voronoi"):
        monkeypatch.setattr(cases, fn, record)
    param = get_case(name).mesh_param
    size = {"h": 0.123, "n_cells": 321}[param]
    with pytest.raises(Asked):
        get_case(name, **{param: size}).make_mesh()
    assert asked == [size]


def test_cli_exits_2_on_a_failed_gate(capsys):
    # k = 1 cannot hold the quadratic Poiseuille profile: Linf(u) is far
    # above the 1e-10 gate
    code = cli.main(["run", "--case", "ins_poiseuille", "--mesh", "gen:n=60",
                     "--order", "1", "--tend", "0.05"])
    assert code == 2
    assert "gate: FAIL" in capsys.readouterr().out


def test_cli_rejects_a_misspelt_mass_update(capsys):
    code = cli.main(["run", "--case", "swe_vortex", "--mesh", "gen:h=0.9", "--tend", "0.01",
                     "--quiet", "--param", "mass_update=divergnce"])
    assert code == 1
    assert "unknown mass_update 'divergnce'" in capsys.readouterr().err


def test_config_file_keeps_every_param_line(tmp_path, monkeypatch, capsys):
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text("param = nu=0.05\nparam = seed=4\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 0
    (case,) = seen
    assert case.nu == 0.05 and case.seed == 4
    cfg.write_text("tend = 0.3\ntend = 0.4\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 1
    assert "key 'tend' given twice" in capsys.readouterr().err
