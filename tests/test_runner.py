from types import SimpleNamespace

import numpy as np
import pytest

from fvvem import models, vem
from fvvem.harness import cases, cli, runner
from fvvem.harness.cases import case_names, get_case
from fvvem.mesh import write_mesh
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


@pytest.mark.parametrize("name, kw", [("swe_smooth_wave", dict(h=0.6)),
                                      ("ins_tgv", dict(h=0.9))])
def test_ledger_states_the_stopping_rule_of_each_preconditioned_system(name, kw):
    led = runner.run_case(get_case(name, t_end=1e-3, **kw), quiet=True).ledger
    systems = [key.removeprefix("solver_preconditioner_") for key in led
               if key.startswith("solver_preconditioner_")]
    assert systems
    assert sorted(key for key in led if key.startswith("solver_atol_")) == sorted(
        f"solver_atol_{system}" for system in systems)


@pytest.mark.parametrize("k", [1, 3])
def test_ledger_reports_the_cell_rule_the_discretization_builds(monkeypatch, k):
    # the VEM element integrates its cells with one rule, whose degree the
    # ledger reports under one key
    degrees = []
    real = vem.polygon_quadrature

    def spy(vertices, barycenter, degree):
        degrees.append(degree)
        return real(vertices, barycenter, degree)

    monkeypatch.setattr(vem, "polygon_quadrature", spy)
    case = get_case("ins_tgv", h=0.9, t_end=0.05, k=k)
    led = runner.run_case(case, quiet=True).ledger
    assert degrees and set(degrees) == {led["cell_quadrature_degree"]}
    assert not {"interior_quadrature_degree", "coefficient_quadrature_degree"} & set(led)


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


def test_the_riemann_cases_and_swe_vortex_cap_dt():
    for name in case_names():
        assert get_case(name).dt_caps_cfl == (name.startswith("swe_rp")
                                              or name == "swe_vortex"), name


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
    data = read_vtk_cell_data(tmp_path / "run_ins_tgv.vtk")
    assert sorted(data) == ["p", "u", "v"]
    for name, written in (("u", res.state.Q[0]), ("v", res.state.Q[1]),
                          ("p", res.disc.vem_to_fv(res.state.aux["p_dofs"])[:, 0])):
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
    cfg.write_text("param = reynolds=20\ntend = 0.3\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 0
    (case,) = seen
    assert case.reynolds == 20 and case.t_end == 0.3


def test_param_flag_beats_the_config_file(tmp_path, monkeypatch):
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text("param = reynolds=20\ntend = 0.3\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet",
                     "--param", "reynolds=50", "--tend", "0.4"]) == 0
    (case,) = seen
    assert case.reynolds == 50 and case.t_end == 0.4


def test_config_file_case_line_exits_1(tmp_path, monkeypatch, capsys):
    # the required --case used to win silently over the file's case
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "vortex.cfg"
    cfg.write_text("case = swe_vortex\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 1
    assert "a config file cannot set the case; --case does" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("line, flags, read, from_file, from_flag", [
    ("tend = 0.3", ["--tend", "0.4"], lambda case, kw: case.t_end, 0.3, 0.4),
    ("order = 1", ["--order", "3"], lambda case, kw: case.k, 1, 3),
    ("scheme = SP111", ["--scheme", "SADIRK343"], lambda case, kw: case.scheme,
     "SP111", "SADIRK343"),
    ("cfl = 0.5", ["--cfl", "0.7"], lambda case, kw: case.cfl, 0.5, 0.7),
    ("dt = 0.01", ["--dt", "0.02"], lambda case, kw: case.dt, 0.01, 0.02),
    ("mesh = gen:h=0.8,seed=2", ["--mesh", "gen:h=0.6"], lambda case, kw: (case.h, case.seed),
     (0.8, 2), (0.6, 0)),
    ("mesh = box.msh", ["--mesh", "gen:h=0.6"], lambda case, kw: kw["mesh_file"], "box.msh",
     None),
    ("out = from_file", ["--out", "from_flag"], lambda case, kw: kw["out_prefix"],
     "from_file", "from_flag"),
], ids=["tend", "order", "scheme", "cfl", "dt", "mesh_gen", "mesh_file", "out"])
def test_a_flag_beats_the_config_file(tmp_path, monkeypatch, line, flags, read, from_file,
                                      from_flag):
    # a file key applies where its flag is not given
    seen = []
    monkeypatch.setattr(cli, "run_case", lambda case, **kw: seen.append(read(case, kw))
                        or SimpleNamespace(gate_passed=True))
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text(line + "\n")
    command = ["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]
    assert cli.main(command) == 0
    assert cli.main([*command, *flags]) == 0
    assert seen == [from_file, from_flag]


def test_quiet_flag_beats_the_config_file(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_case", lambda case, **kw: seen.append(kw["quiet"])
                        or SimpleNamespace(gate_passed=True))
    cfg = tmp_path / "tgv.cfg"
    command = ["run", "--case", "ins_tgv", "--config", str(cfg)]
    for line, flags in (("quiet = true", []), ("quiet = false", []),
                        ("quiet = false", ["--quiet"])):
        cfg.write_text(line + "\n")
        assert cli.main([*command, *flags]) == 0
    assert seen == [True, False, True]


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
    # the generator records the seed count it is asked for instead of meshing
    asked = []

    class Asked(Exception):
        pass

    def record(box, n_seeds, **kwargs):
        asked.append(n_seeds)
        raise Asked

    monkeypatch.setattr(cases, "generate_voronoi", record)
    case = get_case(name)
    x0, x1, y0, y1 = case.box
    size, n_seeds = {"h": (0.123, round(1.55 * ((x1 - x0) * (y1 - y0)) / 0.123 ** 2)),
                     "n_cells": (321, 321)}[case.mesh_param]
    with pytest.raises(Asked):
        get_case(name, **{case.mesh_param: size}).make_mesh()
    assert asked == [n_seeds]


def test_cli_exits_2_on_a_failed_gate(capsys):
    # k = 1 cannot hold the quadratic Poiseuille profile: Linf(u) is far
    # above the 1e-10 gate
    code = cli.main(["run", "--case", "ins_poiseuille", "--mesh", "gen:n=60",
                     "--order", "1", "--tend", "0.05"])
    assert code == 2
    assert "gate: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["run", "--case", "bogus"], "argument --case: invalid choice: 'bogus'"),
    (["run"], "the following arguments are required: --case"),
    (["run", "--case", "ins_tgv", "--cfl", "abc"], "argument --cfl: invalid float value: 'abc'"),
    (["study", "--case", "ins_tgv"], "the following arguments are required: --meshes"),
    ([], "the following arguments are required: command"),
], ids=["unknown_case", "no_case", "word_for_cfl", "study_without_meshes", "no_command"])
def test_cli_exits_1_on_a_usage_error(monkeypatch, capsys, argv, message):
    # 2 is the code of a failed gate, so a typo must not exit with it
    seen = cli_cases(monkeypatch)
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["fvvem", "run"])
def test_cli_help_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert "usage: fvvem" in capsys.readouterr().out


def test_cli_rejects_a_parameter_the_case_does_not_have(monkeypatch, capsys):
    seen = cli_cases(monkeypatch)
    assert cli.main(["run", "--case", "ins_tgv", "--param", "nu=0.05", "--quiet"]) == 1
    assert "case 'ins_tgv' has no parameter 'nu'" in capsys.readouterr().err
    assert seen == []


def test_cli_rejects_a_mesh_tag_without_a_condition(tmp_path, capsys):
    # a box mesh has four wall tags; the periodic Taylor-Green vortex has no
    # condition for any of them
    path = str(tmp_path / "box.msh")
    write_mesh(get_case("swe_smooth_wave", h=0.5).make_mesh(), path)
    assert cli.main(["run", "--case", "ins_tgv", "--mesh", path, "--quiet"]) == 1
    assert "boundary tag 'xmax' has no boundary condition" in capsys.readouterr().err


def test_cli_rejects_a_misspelt_mass_update(monkeypatch, capsys):
    # the SWE cases lost the parameter with the second mass update
    seen = cli_cases(monkeypatch)
    code = cli.main(["run", "--case", "swe_vortex", "--mesh", "gen:h=0.9", "--tend", "0.01",
                     "--quiet", "--param", "mass_update=divergnce"])
    assert code == 1
    assert "case 'swe_vortex' has no parameter 'mass_update'" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("case, flags, message", [
    ("ins_tgv", ["--param", "reynolds"], "--param 'reynolds': expected key=value"),
    ("ins_tgv", ["--param", "k=two"],
     "case 'ins_tgv': parameter 'k' of type int cannot take 'two'"),
    ("swe_vortex", ["--param", "H0=deep", "--mesh", "gen:h=1.5", "--tend", "0.01"],
     "case 'swe_vortex': parameter 'H0' of type float cannot take 'deep'"),
    ("ins_tgv", ["--param", "k=2.0"], "case 'ins_tgv': parameter 'k' of type int cannot take 2.0"),
    ("ins_tgv", ["--param", "seed=1.5"],
     "case 'ins_tgv': parameter 'seed' of type int cannot take 1.5"),
], ids=["no_equals", "word_for_int", "word_for_float", "float_for_int", "float_seed"])
def test_cli_names_a_mistyped_parameter(monkeypatch, capsys, case, flags, message):
    # each fails before the case reaches the run, so before any mesh is built
    seen = cli_cases(monkeypatch)
    assert cli.main(["run", "--case", case, *flags, "--quiet"]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("case, flags, message", [
    ("ins_poiseuille", ["--tend", "0", "--mesh", "gen:n=200"],
     "case 'ins_poiseuille': parameter 't_end' must be positive, not 0.0"),
    ("ins_poiseuille", ["--tend", "-1", "--mesh", "gen:n=200"],
     "case 'ins_poiseuille': parameter 't_end' must be positive, not -1.0"),
    ("ins_poiseuille", ["--tend", "inf", "--mesh", "gen:n=200"],
     "case 'ins_poiseuille': parameter 't_end' must be finite, not inf"),
    ("ins_tgv", ["--mesh", "gen:h=-1"], "case 'ins_tgv': parameter 'h' must be positive, not -1.0"),
    ("ins_tgv", ["--mesh", "gen:h=0"], "case 'ins_tgv': parameter 'h' must be positive, not 0.0"),
    ("ins_poiseuille", ["--dt", "0"],
     "case 'ins_poiseuille': parameter 'dt' must be positive, not 0.0"),
    ("ins_poiseuille", ["--dt", "-0.1"],
     "case 'ins_poiseuille': parameter 'dt' must be positive, not -0.1"),
    ("ins_poiseuille", ["--cfl", "1.5"],
     "case 'ins_poiseuille': parameter 'cfl' must lie in (0, 1], not 1.5"),
    ("ins_poiseuille", ["--mesh", "gen:seed=-1"],
     "case 'ins_poiseuille': parameter 'seed' must be nonnegative, not -1"),
    ("ins_poiseuille", ["--order", "0"],
     "case 'ins_poiseuille': parameter 'k' must lie in 1..4, not 0"),
    ("ins_tgv", ["--order", "5"], "case 'ins_tgv': parameter 'k' must lie in 1..4, not 5"),
    ("ins_poiseuille", ["--mesh", "gen:n=3"],
     "case 'ins_poiseuille': parameter 'n_cells' must be at least 4, not 3"),
    ("ins_poiseuille", ["--mesh", "gen:n=0"],
     "case 'ins_poiseuille': parameter 'n_cells' must be at least 4, not 0"),
    ("swe_cylinder", ["--mesh", "gen:n=-5"],
     "case 'swe_cylinder': parameter 'n_cells' must be at least 4, not -5"),
], ids=["tend_zero", "tend_negative", "tend_infinite", "h_negative", "h_zero", "dt_zero", "dt_negative",
        "cfl_above_one", "seed_negative", "order_zero", "order_above_four", "n_three",
        "n_zero", "n_negative"])
def test_cli_names_a_parameter_out_of_bounds(monkeypatch, capsys, case, flags, message):
    # each fails before the case reaches the run, so before any mesh is built
    seen = cli_cases(monkeypatch)
    assert cli.main(["run", "--case", case, *flags, "--quiet"]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("command, message", [
    (["run", "--case", "ins_tgv", "--mesh", "gen:h=abc"],
     "--mesh gen: key 'h' takes float values, not 'abc'"),
    (["run", "--case", "ins_poiseuille", "--mesh", "gen:seed=1.5"],
     "--mesh gen: key 'seed' takes int values, not '1.5'"),
    (["study", "--case", "ins_tgv", "--meshes", "1.0,x"],
     "--mesh gen: key 'h' takes float values, not 'x'"),
], ids=["word_for_h", "float_for_seed", "study_size"])
def test_cli_names_a_mistyped_mesh_gen_value(monkeypatch, capsys, command, message):
    # a study checks every size before its first run
    seen = []
    monkeypatch.setattr(runner, "run_case", lambda case, **kw: seen.append(case))
    monkeypatch.setattr(cli, "run_case", lambda case, **kw: seen.append(case))
    assert cli.main([*command, "--quiet"]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert seen == []


def test_config_file_names_a_mistyped_order(tmp_path, monkeypatch, capsys):
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text("order = two\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 1
    assert "parameter 'k' of type int cannot take 'two'" in capsys.readouterr().err
    assert seen == []


def test_config_file_keeps_every_param_line(tmp_path, monkeypatch, capsys):
    seen = cli_cases(monkeypatch)
    cfg = tmp_path / "tgv.cfg"
    cfg.write_text("param = reynolds=20\nparam = seed=4\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 0
    (case,) = seen
    assert case.reynolds == 20 and case.seed == 4
    cfg.write_text("tend = 0.3\ntend = 0.4\n")
    assert cli.main(["run", "--case", "ins_tgv", "--config", str(cfg), "--quiet"]) == 1
    assert "key 'tend' given twice" in capsys.readouterr().err


@pytest.mark.parametrize("case, meshes, sizes", [
    ("ins_poiseuille", "40,80", [(None, 40), (None, 80)]),
    ("ins_tgv", "0.9,0.7", [(0.9, None), (0.7, None)]),
])
def test_study_sweeps_the_mesh_size_the_case_reads(monkeypatch, case, meshes, sizes):
    ran = []
    real = runner.run_case

    def record(case, **kw):
        ran.append((case.h, case.n_cells))
        return real(case, **kw)

    monkeypatch.setattr(runner, "run_case", record)
    assert cli.main(["study", "--case", case, "--meshes", meshes, "--tend", "0.02",
                     "--quiet"]) == 0
    assert ran == sizes


def test_study_of_a_fixed_mesh_exits_1(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(runner, "run_case", lambda case, **kw: seen.append(case))
    assert cli.main(["study", "--case", "ins_stokes1", "--meshes", "0.1,0.05",
                     "--quiet"]) == 1
    assert "no mesh size to sweep" in capsys.readouterr().err
    assert seen == []


def test_study_keeps_the_other_mesh_gen_keys(monkeypatch):
    # the swept size goes on top of the other --mesh gen: keys
    ran = []
    real = runner.run_case

    def record(case, **kw):
        ran.append((case.h, case.seed))
        return real(case, **kw)

    monkeypatch.setattr(runner, "run_case", record)
    assert cli.main(["study", "--case", "ins_tgv", "--mesh", "gen:seed=3,h=0.5",
                     "--meshes", "0.9,0.7", "--tend", "0.02", "--quiet"]) == 0
    assert ran == [(0.9, 3), (0.7, 3)]


def test_study_of_a_mesh_file_exits_1(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(runner, "run_case", lambda case, **kw: seen.append(case))
    assert cli.main(["study", "--case", "ins_tgv", "--mesh", "tgv.msh", "--meshes", "0.9,0.7",
                     "--quiet"]) == 1
    assert "the mesh file 'tgv.msh' has no size to sweep" in capsys.readouterr().err
    assert seen == []


def test_study_writes_one_csv_row_per_mesh(tmp_path, monkeypatch):
    reports = []
    real = runner.run_case

    def record(case, **kw):
        res = real(case, **kw)
        reports.append(res.report)
        return res

    monkeypatch.setattr(runner, "run_case", record)
    assert cli.main(["study", "--case", "ins_tgv", "--meshes", "0.9,0.7", "--tend", "0.02",
                     "--quiet", "--out", str(tmp_path / "study")]) == 0
    header, *rows = (tmp_path / "study_ins_tgv_convergence.csv").read_text().splitlines()
    assert header == "h,L2_u,order_u,L2_p,order_p"
    assert len(rows) == len(reports) == 2
    for row, rep in zip(rows, reports):
        h, l2_u, _, l2_p, _ = map(float, row.split(","))
        assert (h, l2_u, l2_p) == (rep.h, rep.l2("u"), rep.l2("p"))
    assert rows[0].split(",")[2::2] == ["nan", "nan"]
    assert [float(v) for v in rows[1].split(",")[2::2]] == [reports[1].orders["u"],
                                                             reports[1].orders["p"]]


def test_run_reads_the_mesh_file(tmp_path):
    mesh = get_case("swe_smooth_wave", h=0.5).make_mesh()
    path = str(tmp_path / "wave.msh")
    write_mesh(mesh, path)
    assert cli.main(["run", "--case", "swe_smooth_wave", "--mesh", path, "--tend", "0.002",
                     "--quiet", "--out", str(tmp_path / "run")]) == 0
    ledger = (tmp_path / "run_swe_smooth_wave_ledger.txt").read_text().splitlines()
    assert f"mesh_cells = {mesh.n_cells}" in ledger


def test_swe_run_reports_errors_ledger_and_fields(tmp_path):
    res = runner.run_case(get_case("swe_vortex", h=1.5), quiet=True,
                          out_prefix=str(tmp_path / "run"))
    assert sorted(res.report.errors) == ["eta", "u"]
    assert np.all(np.isfinite(list(res.report.errors.values())))
    assert res.ledger["swe_mass_update"] == "divergence"
    assert res.ledger["gravity"] == 10.0
    Q, b = res.state.Q, res.driver.b_coeffs[:, 0]
    data = read_vtk_cell_data(tmp_path / "run_swe_vortex.vtk")
    assert sorted(data) == ["b", "eta", "qx", "qy", "u", "v"]
    for name, written in (("eta", Q[0]), ("qx", Q[1]), ("qy", Q[2]), ("b", b),
                          ("u", Q[1] / (Q[0] - b)), ("v", Q[2] / (Q[0] - b))):
        assert np.array_equal(data[name], written), name


def test_lake_at_rest_errors_are_roundoff():
    res = runner.run_case(get_case("swe_wellbalance", n_cells=100), quiet=True)
    assert res.report.steps > 0
    assert sorted(res.report.errors) == ["Hu", "eta"]
    for name, (l2, linf) in res.report.errors.items():
        assert l2 <= 1e-10 and linf <= 1e-10, name


@pytest.mark.parametrize("name", [n for n in case_names() if get_case(n).mesh_param])
def test_mesh_size_none_keeps_the_default(name):
    param = get_case(name).mesh_param
    assert getattr(get_case(name, **{param: None}), param) == getattr(get_case(name), param)
