import pytest

from fvvem.harness import cli, runner
from fvvem.harness.cases import get_case
from fvvem.timeint import TimeIntError


def tiny_tgv(t_end):
    return get_case("ins_tgv", h=0.9, t_end=t_end)


def test_ledger_records_solver_and_phase_times():
    res = runner.run_case(tiny_tgv(0.1), quiet=True)
    led = res.ledger
    assert res.state.time == pytest.approx(0.1)
    assert led["solver_tol"] == 1e-12
    assert led["solver_preconditioner_viscous"] == "jacobi"
    assert "factored once" in led["solver_preconditioner_pressure"]
    assert led["solver_iterations_total"] == res.driver.stats.iterations > 0
    assert led["setup_s"] > 0.0 and led["steps_s"] > 0.0
    assert "runtime_s" not in led


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
