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


def sample_oracle(sol, xi):
    """RiemannSolution.sample as a loop over the rays, one wave type per
    branch."""
    g = sol.g
    hl, ul = sol.left
    hr, ur = sol.right
    hs, us = sol.h_star, sol.u_star
    H = np.empty_like(xi)
    U = np.empty_like(xi)
    cl, cr, cs = np.sqrt(g * hl), np.sqrt(g * hr), np.sqrt(g * hs)
    for i, s in enumerate(xi):
        if s <= us:
            if hs > hl:      # left shock
                sl = ul - cl * np.sqrt(0.5 * ((hs + hl) * hs / hl ** 2))
                H[i], U[i] = (hl, ul) if s <= sl else (hs, us)
            else:            # left rarefaction
                head, tail = ul - cl, us - cs
                if s <= head:
                    H[i], U[i] = hl, ul
                elif s >= tail:
                    H[i], U[i] = hs, us
                else:
                    U[i] = (ul + 2.0 * cl + 2.0 * s) / 3.0
                    c = (ul + 2.0 * cl - s) / 3.0
                    H[i] = c * c / g
        else:
            if hs > hr:      # right shock
                sr = ur + cr * np.sqrt(0.5 * ((hs + hr) * hs / hr ** 2))
                H[i], U[i] = (hr, ur) if s >= sr else (hs, us)
            else:            # right rarefaction
                head, tail = ur + cr, us + cs
                if s >= head:
                    H[i], U[i] = hr, ur
                elif s <= tail:
                    H[i], U[i] = hs, us
                else:
                    U[i] = (ur - 2.0 * cr + 2.0 * s) / 3.0
                    c = (-ur + 2.0 * cr + s) / 3.0
                    H[i] = c * c / g
    return H, U


@pytest.mark.parametrize("hl, ul, hr, ur", [
    (1.0, 0.0, 2.0, 0.0), (1e3, 0.0, 1.0, 0.0), (2.0, 0.0, 1.0, 0.0),
    (1.0, -1.0, 1.0, 1.0), (1.0, 1.0, 1.0, -1.0)],
    ids=["deeper_right", "deep_left", "deeper_left", "two_rarefactions", "two_shocks"])
def test_sample_equals_the_loop_over_rays(hl, ul, hr, ur):
    sol = exact_riemann_swe(hl, ul, hr, ur, g=G)
    hs, us = sol.h_star, sol.u_star
    cl, cr, cs = np.sqrt(G * hl), np.sqrt(G * hr), np.sqrt(G * hs)
    # every wave's head, tail and shock speed, exactly as sample forms them
    edges = [us, ul - cl, us - cs, ur + cr, us + cs,
             ul - cl * np.sqrt(0.5 * ((hs + hl) * hs / hl ** 2)),
             ur + cr * np.sqrt(0.5 * ((hs + hr) * hs / hr ** 2))]
    xi = np.concatenate([edges, np.linspace(min(edges) - 1.0, max(edges) + 1.0, 401)])
    H, U = sol.sample(xi)
    Href, Uref = sample_oracle(sol, xi)
    assert np.array_equal(H, Href) and np.array_equal(U, Uref)
    assert np.array_equal(sol.sample(xi[3])[0], Href[3:4])
