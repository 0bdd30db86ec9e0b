"""Exact Riemann solver for the flat-bottom shallow water equations and a
first-order 1D finite-volume reference solver (flat or stepped bottom,
Cartesian or radial geometry)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RiemannError(Exception):
    pass


@dataclass
class RiemannSolution:
    h_star: float
    u_star: float
    left: tuple      # (H, u)
    right: tuple
    g: float

    def sample(self, xi):
        """State (H, u) along rays xi = x/t: the left wave's on the rays
        xi <= u_star, the right wave's beyond."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        Hl, Ul = self._wave(xi, *self.left, -1.0)
        Hr, Ur = self._wave(xi, *self.right, 1.0)
        left = xi <= self.u_star
        return np.where(left, Hl, Hr), np.where(left, Ul, Ur)

    def _wave(self, xi, h, u, sign):
        """(H, u) on the rays xi of the wave between the side state (h, u)
        and the star state: a shock when the star state is deeper, else a
        rarefaction.  sign is -1 for the left wave and +1 for the right one,
        so sign * xi grows away from the star state."""
        g, hs, us = self.g, self.h_star, self.u_star
        c = np.sqrt(g * h)
        if hs > h:
            speed = u + sign * c * np.sqrt(0.5 * ((hs + h) * hs / h ** 2))
            outside = sign * xi >= sign * speed
            fan = np.zeros(xi.shape, dtype=bool)
        else:
            head, tail = u + sign * c, us + sign * np.sqrt(g * hs)
            outside = sign * xi >= sign * head
            fan = ~outside & (sign * xi > sign * tail)
        # the rarefaction fan: u - sign * 2 c_fan is the side state's invariant
        c_fan = (-sign * u + 2.0 * c + sign * xi) / 3.0
        H = np.select([outside, fan], [h, c_fan * c_fan / g], hs)
        U = np.select([outside, fan], [u, (u - sign * 2.0 * c + 2.0 * xi) / 3.0], us)
        return H, U


def _depth_fun(h, hk, g):
    """Depth function of one wave family and its derivative.

    Rarefaction branch for h <= hk, shock branch (Rankine-Hugoniot) above.
    """
    if h <= hk:
        c = np.sqrt(g * h)
        return 2.0 * (c - np.sqrt(g * hk)), g / c
    a = np.sqrt(0.5 * g * (h + hk) / (h * hk))
    return (h - hk) * a, a - g * (h - hk) / (4.0 * a * h * h)


def exact_riemann_swe(hl, ul, hr, ur, g=9.81) -> RiemannSolution:
    """Two-wave exact solution for flat-bottom SWE via Newton on the depth
    function (two-rarefaction initial guess), to a relative step of 1e-12
    within 100 iterations."""
    if hl <= 0.0 or hr <= 0.0:
        raise RiemannError("dry states are not supported")
    cl, cr = np.sqrt(g * hl), np.sqrt(g * hr)
    if ul - ur + 2.0 * (cl + cr) <= 0.0:
        raise RiemannError("initial states generate a dry region")
    # two-rarefaction guess
    h = ((0.5 * (cl + cr) + 0.25 * (ul - ur)) ** 2) / g
    for _ in range(100):
        fl, dfl = _depth_fun(h, hl, g)
        fr, dfr = _depth_fun(h, hr, g)
        f = fl + fr + (ur - ul)
        df = dfl + dfr
        step = f / df
        h_new = h - step
        if h_new <= 0.0:
            h_new = 0.5 * h
        if abs(h_new - h) <= 1e-12 * max(h, 1.0):
            h = h_new
            break
        h = h_new
    else:
        raise RiemannError(f"Newton failed to converge (last depth {h:.6e})")
    fl, _ = _depth_fun(h, hl, g)
    fr, _ = _depth_fun(h, hr, g)
    u = 0.5 * (ul + ur) + 0.5 * (fr - fl)
    return RiemannSolution(h, u, (hl, ul), (hr, ur), g)


# ---------------------------------------------------------------------------
# 1D first-order reference solver
# ---------------------------------------------------------------------------

def reference_fv_1d(eta0, u0, bfun, x_span, n_cells, t_end, g=9.81,
                    cfl=0.45, geometry="cartesian"):
    """First-order well-balanced FV reference for 1D SWE with bottom steps.

    Rusanov flux on hydrostatically reconstructed interface states; optional
    radial geometric source terms.  Used as the oracle for the variable-bottom
    Riemann problems and for radial dam-break overlays.
    """
    xl, xr = x_span
    x = np.linspace(xl, xr, n_cells + 1)
    xc = 0.5 * (x[:-1] + x[1:])
    dx = x[1] - x[0]
    b = bfun(xc)
    eta = eta0(xc)
    H = eta - b
    if np.any(H <= 0.0):
        raise RiemannError("reference solver requires wet initial data")
    q = H * u0(xc)
    t = 0.0
    while t < t_end - 1e-14:
        u = q / H
        c = np.sqrt(g * H)
        dt = min(cfl * dx / np.max(np.abs(u) + c), t_end - t)
        # interface values with hydrostatic reconstruction
        bL, bR = b[:-1], b[1:]
        bstar = np.maximum(bL, bR)
        hL = np.maximum(H[:-1] + b[:-1] - bstar, 0.0)
        hR = np.maximum(H[1:] + b[1:] - bstar, 0.0)
        uL, uR = u[:-1], u[1:]
        qL, qR = hL * uL, hR * uR
        # Rusanov flux for (h, hu) with full wave speeds
        smax = np.maximum(np.abs(uL) + np.sqrt(g * hL), np.abs(uR) + np.sqrt(g * hR))
        f1 = 0.5 * (qL + qR) - 0.5 * smax * (hR - hL)
        f2 = 0.5 * (qL * uL + 0.5 * g * hL ** 2 + qR * uR + 0.5 * g * hR ** 2) \
            - 0.5 * smax * (qR - qL)
        # cell updates with hydrostatic source corrections
        Hn = H.copy()
        qn = q.copy()
        Hn[1:-1] -= dt / dx * (f1[1:] - f1[:-1])
        qn[1:-1] -= dt / dx * (f2[1:] - f2[:-1])
        # wall-consistent boundary handling: transmissive copies
        Hn[0] = Hn[1]
        qn[0] = qn[1]
        Hn[-1] = Hn[-2]
        qn[-1] = qn[-2]
        # bed-slope source (hydrostatic form)
        src = np.zeros_like(q)
        src[1:-1] = 0.5 * g * (
            (H[1:-1] + np.maximum(H[1:-1] + b[1:-1] - np.maximum(b[1:-1], b[2:]), 0.0))
            * (b[1:-1] - np.maximum(b[1:-1], b[2:]))
            - (H[1:-1] + np.maximum(H[1:-1] + b[1:-1] - np.maximum(b[:-2], b[1:-1]), 0.0))
            * (b[1:-1] - np.maximum(b[:-2], b[1:-1])))
        qn[1:-1] += dt / dx * src[1:-1]
        if geometry == "radial":
            r = np.maximum(np.abs(xc), 0.25 * dx)
            u_half = q / np.maximum(H, 1e-12)
            Hn -= dt * H * u_half / r
            qn -= dt * q * u_half / r
        H, q = np.maximum(Hn, 1e-12), qn
        t += dt
    return xc, H + b, q / H
