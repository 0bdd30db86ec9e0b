import numpy as np
import pytest

from fvvem.models import FlowState
from fvvem.timeint import TimeIntError, compute_dt, imex_advance, tableau


class TestTableaux:
    def test_sp111_constants(self):
        p = tableau("SP111")
        assert p.A_impl[0, 0] == 1.0
        assert p.A_expl[0, 0] == 0.0

    def test_lsdirk222_constants(self):
        p = tableau("LSDIRK222")
        gamma = 1.0 - 1.0 / np.sqrt(2.0)
        beta = 1.0 / (2.0 * gamma)
        assert p.A_impl[0, 0] == pytest.approx(gamma, abs=1e-15)
        assert gamma == pytest.approx(0.29289322, abs=1e-8)
        assert p.A_expl[1, 0] == pytest.approx(beta, abs=1e-15)
        assert p.A_impl[1, 1] == pytest.approx(gamma, abs=1e-15)

    def test_sadirk343_constants(self):
        p = tableau("SADIRK343")
        Ae, Ai = p.A_expl, p.A_impl
        # gamma: the root in (0.4, 0.5) of 6 g^3 - 18 g^2 + 9 g - 1, here by
        # the trigonometric form of the cubic's roots
        gamma = 1.0 + np.sqrt(2.0) * np.cos((np.arccos(2.0 * np.sqrt(2.0) / 3.0)
                                             - 2.0 * np.pi) / 3.0)
        g = Ai[0, 0]
        assert g == pytest.approx(gamma, abs=1e-15)
        assert abs(6.0 * g ** 3 - 18.0 * g ** 2 + 9.0 * g - 1.0) <= 1e-15
        tau2 = 0.5 * (1.0 + g)
        b1 = -(6.0 * g * g - 16.0 * g + 1.0) / 4.0
        b2 = (6.0 * g * g - 20.0 * g + 5.0) / 4.0
        closed = [(np.diag(Ai), g), (Ae[1, 0], g), (Ai[2, 1], tau2 - g),
                  (Ai[3, 1:3], [b1, b2]), (Ae[3, 1], 0.5),
                  (Ae[2, 0] + Ae[2, 1], tau2), (Ae[3, 0] + Ae[3, 2], 0.5),
                  (b2 * Ae[2, 0] + g * Ae[3, 0], -b1 * g),
                  (b2 * g * Ae[2, 1] + g * tau2 * Ae[3, 2], 1.0 / 6.0 - g * g / 2.0)]
        for value, form in closed:
            assert np.abs(np.asarray(value) - form).max() <= 1e-15
        # the printed six-digit constants
        printed = [(g, 0.435866), (Ae[2, 0], 1.437745), (Ae[2, 1], -0.719812),
                   (Ae[3, 0], 0.916993), (Ae[3, 2], -0.416993), (Ai[2, 1], 0.282066),
                   (Ai[3, 1], 1.208496), (Ai[3, 2], -0.644363)]
        for value, six_digits in printed:
            assert value == pytest.approx(six_digits, abs=1e-6)

    @pytest.mark.parametrize("name", ["SP111", "LSDIRK222", "SADIRK343"])
    def test_row_sums_and_weights(self, name):
        p = tableau(name)
        assert np.abs(p.A_impl.sum(axis=1) - p.c_impl).max() < 1e-14
        assert p.A_impl[-1].sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.triu(p.A_expl) == 0.0)       # strictly lower
        assert np.all(np.triu(p.A_impl, 1) == 0.0)    # lower with diagonal

    @pytest.mark.parametrize("name, order", [("SP111", 1), ("LSDIRK222", 2),
                                             ("SADIRK343", 3)])
    def test_order_conditions(self, name, order):
        # b^T Phi(c) = 1/(tree density) for every tree up to `order`, with
        # each node's tableau and abscissae drawn from either partition:
        # the coupling conditions of the pair included; the weights b are
        # the last implicit row
        p = tableau(name)
        parts = [(p.A_expl, p.A_expl.sum(axis=1)), (p.A_impl, p.c_impl)]
        b = p.A_impl[-1]
        assert abs(b.sum() - 1.0) <= 1e-14
        for _, c in parts:
            if order >= 2:
                assert abs(b @ c - 0.5) <= 1e-14
        if order < 3:
            return
        for (_, c), (_, d) in [(x, y) for x in parts for y in parts]:
            assert abs(b @ (c * d) - 1.0 / 3.0) <= 1e-14
        for (A, _), (_, c) in [(x, y) for x in parts for y in parts]:
            assert abs(b @ A @ c - 1.0 / 6.0) <= 1e-14

    @pytest.mark.parametrize("name", ["SP111", "LSDIRK222", "SADIRK343"])
    def test_every_pair_is_stiffly_accurate(self, name):
        # the weights are the last implicit row, so the last stage ends the
        # step: it sits at t + dt
        p = tableau(name)
        assert p.stages == len(p.A_expl) == len(p.c_impl)
        assert p.c_impl[-1] == pytest.approx(1.0, abs=1e-15)

    def test_unknown_name(self):
        with pytest.raises(TimeIntError):
            tableau("ARS222")


class TestComputeDt:
    def test_arithmetic(self):
        h = np.full(10, 0.1)
        lam = np.ones(10)
        assert compute_dt(h, lam, 0.9) == pytest.approx(0.09, abs=1e-15)

    def test_cold_start_uses_full_set(self):
        h = np.full(5, 0.1)
        conv = np.zeros(5)
        full = np.full(5, np.sqrt(9.81 * 1.0))
        dt = compute_dt(h, conv, 0.9, full)
        assert dt == pytest.approx(0.9 * 0.1 / np.sqrt(9.81), rel=1e-13)

    def test_velocity_scaling_monotonicity(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(0.05, 0.2, 30)
        lam = rng.uniform(0.1, 2.0, 30)
        dt1 = compute_dt(h, lam, 0.9)
        dt2 = compute_dt(h, 3.0 * lam, 0.9)
        assert dt2 == pytest.approx(dt1 / 3.0, rel=1e-13)

    def test_bad_cfl(self):
        with pytest.raises(TimeIntError):
            compute_dt(np.ones(3), np.ones(3), 1.5)

    def test_all_zero_raises(self):
        with pytest.raises(TimeIntError):
            compute_dt(np.ones(3), np.zeros(3), 0.9)


def ode_stage_solver(lam_e, lam_i):
    """Stage solver of dQ/dt = lam_e Q_E + lam_i Q_I (exact linear solve)."""

    def solve(QE, QI, tau, t):
        Qnew = (QI.Q + tau * lam_e * QE.Q) / (1.0 - tau * lam_i)
        return FlowState(Qnew, t, dict(QI.aux))

    return solve


def integrate(pair_name, lam_e, lam_i, dt, t_end, q0=1.0):
    pair = tableau(pair_name)
    state = FlowState(np.array([[q0]]), 0.0, {})
    solver = ode_stage_solver(lam_e, lam_i)
    n = int(round(t_end / dt))
    for _ in range(n):
        state = imex_advance(state, pair, solver, dt)
    return state.Q[0, 0]


class TestImexAdvance:
    def test_sp111_backward_euler(self):
        # all-implicit decay: one step gives exactly Q0 / (1 + dt)
        dt = 0.37
        q1 = integrate("SP111", 0.0, -1.0, dt, dt)
        assert q1 == 1.0 / (1.0 + dt)

    def test_sp111_bitwise_matches_direct_stage(self):
        pair = tableau("SP111")
        solver = ode_stage_solver(0.3, -1.2)
        state = FlowState(np.array([[0.8]]), 0.0, {})
        via_imex = imex_advance(state, pair, solver, 0.21)
        direct = solver(state, state, 0.21, 0.0)
        assert via_imex.Q[0, 0] == direct.Q[0, 0]

    def test_lsdirk222_second_order(self):
        exact = np.exp(-1.0)
        errs = []
        for dt in (0.1, 0.05):
            errs.append(abs(integrate("LSDIRK222", 0.0, -1.0, dt, 1.0) - exact))
        ratio = errs[0] / errs[1]
        assert 3.6 <= ratio <= 4.4

    def test_sadirk343_third_order_partitioned(self):
        lam = -1.0
        exact = np.exp(lam)
        errs = []
        for dt in (0.2, 0.1):
            errs.append(abs(integrate("SADIRK343", lam / 2, lam / 2, dt, 1.0) - exact))
        ratio = errs[0] / errs[1]
        assert 7.0 <= ratio <= 9.0

    def test_sadirk343_third_order_at_small_steps(self):
        # the partitioned decay keeps order 3 where the error is 1e-7 to
        # 1e-9, below the size of a six-digit truncation of the constants
        exact = np.exp(-1.0)
        for coarse in (0.05, 0.02):
            errs = [abs(integrate("SADIRK343", -0.5, -0.5, dt, 1.0) - exact)
                    for dt in (coarse, coarse / 2)]
            assert 2.9 <= np.log2(errs[0] / errs[1]) <= 3.1, (coarse, errs)

    def test_lsdirk222_partitioned_also_second_order(self):
        lam = -2.0
        exact = np.exp(lam * 0.5)
        errs = []
        for dt in (0.025, 0.0125):
            errs.append(abs(integrate("LSDIRK222", lam / 2, lam / 2, dt, 0.5) - exact))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("name", ["SP111", "LSDIRK222", "SADIRK343"])
    def test_step_is_the_last_stage(self, name):
        pair = tableau(name)
        dt, lam_e, lam_i = 0.3, 0.4, -1.1
        state = FlowState(np.array([[0.8, -0.2]]), 0.5, {"p": np.zeros(2)})
        exact = ode_stage_solver(lam_e, lam_i)
        calls = []

        def recording(QE, QI, tau, t):
            out = exact(QE, QI, tau, t)
            out.aux = {"stage": len(calls)}
            calls.append((QE, QI, tau, out))
            return out

        new = imex_advance(state, pair, recording, dt)
        assert len(calls) == pair.stages
        # the last stage's state itself, its aux included, at the step's end
        assert new is calls[-1][3] and new.aux == {"stage": pair.stages - 1}
        assert new.time == state.time + dt
        # stage inputs: Q + dt * sum_j a_ij k_j over k_j = (Q_j - Q_I,j) / tau_j
        ks = [(out.Q - QI.Q) / tau for _, QI, tau, out in calls]
        for i, (QE, QI, _, _) in enumerate(calls):
            for A, Q in ((pair.A_expl, QE), (pair.A_impl, QI)):
                want = state.Q + dt * sum(A[i, j] * ks[j] for j in range(i))
                assert np.allclose(Q.Q, want, rtol=1e-15, atol=1e-15)
                assert Q.time == state.time and Q.aux is state.aux
