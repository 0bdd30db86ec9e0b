"""The exact flat-bottom Riemann solver: the star state against the jump
conditions of each wave, and the Riemann cases' time-dependent references."""

import numpy as np
import pytest

from fvvem.harness.cases import get_case
from fvvem.harness.riemann import exact_riemann_swe

G = 9.81


def shock_residuals(h1, u1, hs, us, sign):
    """Relative residuals of the two Rankine-Hugoniot conditions (mass,
    momentum) of the shock between (h1, u1) and the star state; sign is -1
    for the left wave and +1 for the right one."""
    S = u1 + sign * np.sqrt(0.5 * G * hs * (hs + h1) / h1)
    mass = (S * hs, S * h1, hs * us, h1 * u1)
    momentum = (S * hs * us, S * h1 * u1, hs * us * us + 0.5 * G * hs * hs,
                h1 * u1 * u1 + 0.5 * G * h1 * h1)
    return [abs(a - b - c + d) / max(map(abs, (a, b, c, d)))
            for a, b, c, d in (mass, momentum)]


@pytest.mark.parametrize("hl, hr", [(1.0, 2.0), (1e3, 1.0)])
def test_star_state_satisfies_the_jump_conditions(hl, hr):
    sol = exact_riemann_swe(hl, 0.0, hr, 0.0, g=G)
    hs, us = sol.h_star, sol.u_star
    # the deeper side runs a rarefaction into the star state, the shallower
    # one a shock
    shock, fan = ((hl, -1.0), (hr, 1.0)) if hl < hr else ((hr, 1.0), (hl, -1.0))
    assert min(hl, hr) < hs < max(hl, hr)
    assert max(shock_residuals(shock[0], 0.0, hs, us, shock[1])) <= 1e-12
    # the Riemann invariant u - sign * 2c is constant across the fan
    h1, sign = fan
    invariant = abs((us - sign * 2.0 * np.sqrt(G * hs)) + sign * 2.0 * np.sqrt(G * h1))
    assert invariant <= 1e-12 * np.sqrt(G * h1)


@pytest.mark.parametrize("name, walls", [("swe_rp1", 0.5), ("swe_rp2", 15.0)])
def test_flat_riemann_case_reference(name, walls):
    # the jump at t = 0, the exact solution later: by t_end no wave has
    # reached the walls, and the star state lies along x = u_star t
    case = get_case(name)
    p = np.array([[-walls, 0.0], [walls, 0.0]])
    start = case.exact(p, 0.0)
    sol = exact_riemann_swe(start[0, 0], 0.0, start[0, 1], 0.0, g=case.g0)
    p = np.insert(p, 1, [sol.u_star * case.t_end, 0.0], axis=0)
    end = case.exact(p, case.t_end)
    assert np.array_equal(end[:, [0, 2]], start)
    assert end[0, 1] == pytest.approx(sol.h_star, rel=1e-14)
    assert end[1, 1] == pytest.approx(sol.h_star * sol.u_star, rel=1e-14)
    assert not np.any(end[2:])                     # qy and the flat bottom
