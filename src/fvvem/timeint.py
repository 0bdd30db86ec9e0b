"""CFL time-step control and the semi-implicit IMEX Runge-Kutta stage loop."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class TimeIntError(Exception):
    pass


@dataclass
class ButcherPair:
    """Explicit/implicit tableau pair sharing the weights, which are the last
    implicit row A_impl[-1]: every pair is stiffly accurate, so a step is its
    last stage."""

    name: str
    A_expl: np.ndarray     # strictly lower triangular
    A_impl: np.ndarray     # lower triangular, nonzero diagonal
    c_impl: np.ndarray     # stage times, the implicit row sums

    @property
    def stages(self) -> int:
        return len(self.A_impl)


_SQRT2 = np.sqrt(2.0)
_GAMMA_222 = 1.0 - 1.0 / _SQRT2
_BETA_222 = 1.0 / (2.0 * _GAMMA_222)


def _sadirk343():
    """gamma, tau2, b1, b2 and the explicit (a31, a32, a41, a43) of SADIRK343.

    gamma is the root in (0.4, 0.5) of 6 g^3 - 18 g^2 + 9 g - 1 (Newton from
    the printed 0.435866), tau2 = (1 + gamma) / 2, and b1, b2 complete the
    stiffly accurate third-order implicit table.  With a42 = 1/2 the
    explicit entries solve a31 + a32 = tau2, a41 + a43 = 1/2, b . Ae[:, 0] = 0
    and b . Ae . c = 1/6.
    """
    g = 0.435866
    for _ in range(4):
        g -= (((6.0 * g - 18.0) * g + 9.0) * g - 1.0) / ((18.0 * g - 36.0) * g + 9.0)
    t2 = 0.5 * (1.0 + g)
    b1 = -(6.0 * g * g - 16.0 * g + 1.0) / 4.0
    b2 = (6.0 * g * g - 20.0 * g + 5.0) / 4.0
    expl = np.linalg.solve([[1.0, 1.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0, 1.0],
                            [b2, 0.0, g, 0.0],
                            [0.0, b2 * g, 0.0, g * t2]],
                           [t2, 0.5, -b1 * g, 1.0 / 6.0 - 0.5 * g * g])
    return g, t2, b1, b2, expl


def tableau(name: str) -> ButcherPair:
    """IMEX pairs: SP111 (order 1), LSDIRK222 (order 2), SADIRK343 (order 3).

    Constants come from closed forms (SADIRK343: `_sadirk343`), and the
    stage times from the implicit row sums.
    """
    if name == "SP111":
        Ae = np.array([[0.0]])
        Ai = np.array([[1.0]])
    elif name == "LSDIRK222":
        g, be = _GAMMA_222, _BETA_222
        Ae = np.array([[0.0, 0.0],
                       [be, 0.0]])
        Ai = np.array([[g, 0.0],
                       [1.0 - g, g]])
    elif name == "SADIRK343":
        g, t2, b1, b2, (a31, a32, a41, a43) = _sadirk343()
        Ae = np.array([[0.0, 0.0, 0.0, 0.0],
                       [g, 0.0, 0.0, 0.0],
                       [a31, a32, 0.0, 0.0],
                       [a41, 0.5, a43, 0.0]])
        Ai = np.array([[g, 0.0, 0.0, 0.0],
                       [0.0, g, 0.0, 0.0],
                       [0.0, t2 - g, g, 0.0],
                       [0.0, b1, b2, g]])
    else:
        raise TimeIntError(f"unknown IMEX scheme '{name}'")
    return ButcherPair(name, Ae, Ai, Ai.sum(axis=1))


def compute_dt(h: np.ndarray, max_eig_conv: np.ndarray, cfl: float,
               max_eig_full: np.ndarray | None = None) -> float:
    """dt = cfl * min(h_P / max|lambda|) over cells, convective eigenvalues only.

    When the convective eigenvalues vanish everywhere (cold start), the full
    eigenvalue set (celerity / viscous scale) is used for this step only.
    """
    if not 0.0 < cfl <= 1.0:
        raise TimeIntError("cfl must lie in (0, 1]")
    lam = np.asarray(max_eig_conv, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise TimeIntError("non-finite eigenvalue in dt computation")
    cold = np.max(lam) <= 0.0
    if max_eig_full is not None and np.max(lam) <= 1e-12 * np.max(max_eig_full):
        cold = True       # velocities at roundoff level count as at-rest
    if cold:
        if max_eig_full is None or np.max(max_eig_full) <= 0.0:
            raise TimeIntError("vanishing eigenvalues: prescribe dt explicitly")
        lam = np.asarray(max_eig_full, dtype=float)
    mask = lam > 0.0
    return float(cfl * np.min(h[mask] / lam[mask]))


def imex_advance(state, pair: ButcherPair, stage_solver, dt: float):
    """One IMEX step: the state of its last stage, at time state.time + dt.

    stage_solver(state_E, state_I, tau, t_stage) must return the stage state
    solving  Q = state_I + tau * H(state_E, Q),  i.e. one semi-implicit update
    with effective step tau = a_ii * dt.  States are dataclasses with the
    fields Q and time.  The stage inputs are `state` with
    Q = state.Q + dt * sum_j a_ij k_j over the earlier stages' fluxes
    k_j = (Q_j - Q_I,j) / tau_j, one set reused by both tableaux.  Every
    pair is stiffly accurate, so the step needs no recombination: the last
    stage is the step, auxiliary fields included.
    """
    if pair.stages == 1:
        # reduces exactly (bitwise) to one first-order semi-implicit stage
        out = stage_solver(state, state, dt * pair.A_impl[0, 0], state.time)
    else:
        ks = []
        for i in range(pair.stages):
            QE, QI = (replace(state, Q=_stage_input(state.Q, dt * A[i, :i], ks))
                      for A in (pair.A_expl, pair.A_impl))
            tau = dt * pair.A_impl[i, i]
            out = stage_solver(QE, QI, tau, state.time + pair.c_impl[i] * dt)
            ks.append((out.Q - QI.Q) / tau)
    out.time = state.time + dt
    return out


def _stage_input(Q: np.ndarray, coeffs, ks) -> np.ndarray:
    for c, k in zip(coeffs, ks):
        Q = Q + c * k
    return Q
