"""Benchmark case library: domains, initial/exact solutions, boundary data.

Each case bundles a mesh recipe, physics configuration, boundary conditions
and (when available) the analytic solution used for error reporting.  Cases
are looked up by name through `get_case`; numeric parameters can be
overridden per run (e.g. H0, nu, delta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from ..mesh import build_geometry, generate_rect, generate_voronoi
from ..models import BoundaryCondition, BoundarySet
from .riemann import exact_riemann_swe

_REGISTRY = {}


def register(cls):
    _REGISTRY[cls.name] = cls
    return cls


def get_case(name: str, **params):
    """The case `name` with its parameters overridden by `params`.  A mesh
    size (`h`, `n_cells`) other than the one the case's mesh reads raises
    ValueError, as the case would ignore it."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown case '{name}'; available: {sorted(_REGISTRY)}")
    cls = _REGISTRY[name]
    for key in ("h", "n_cells"):
        if params.get(key) is not None and key != cls.mesh_param:
            reads = f"'{cls.mesh_param}'" if cls.mesh_param else "no mesh parameter"
            raise ValueError(f"case '{name}' reads {reads}, so it would ignore '{key}'")
    return cls(**params)


def case_names():
    return sorted(_REGISTRY)


def mesh_for_target_h(box, h_target, seed, periodic=(False, False), density=None,
                      hole_center=None, hole_radius=0.0, lloyd=10):
    """Generate a Voronoi mesh whose max cell size matches h_target (~2%)."""
    area = (box[1] - box[0]) * (box[3] - box[2])
    n = max(8, int(round(1.55 * area / h_target ** 2)))
    mesh = generate_voronoi(box, n, lloyd_iters=lloyd, seed=seed, periodic=periodic,
                            density=density, hole_center=hole_center,
                            hole_radius=hole_radius)
    h = build_geometry(mesh).h.max()
    n2 = max(8, int(round(n * (h / h_target) ** 2)))
    if abs(n2 - n) > max(2, 0.02 * n):
        mesh = generate_voronoi(box, n2, lloyd_iters=lloyd, seed=seed,
                                periodic=periodic, density=density,
                                hole_center=hole_center, hole_radius=hole_radius)
    return mesh


@dataclass
class CaseBase:
    """Shared per-case defaults; subclasses fill the physics."""

    k: int = 2
    scheme: str = "SADIRK343"
    cfl: float = 0.9
    t_end: float = 1.0
    dt: float = None
    seed: int = 0
    h: float = None               # target mesh size; None -> case default
    n_cells: int = None
    mass_update: str = "divergence"
    params: dict = field(default_factory=dict)

    mesh_param = "h"              # the mesh size make_mesh reads: "h", "n_cells" or None
    exact = None                  # override: exact(p, t) -> state rows
    gate = None                   # override: callable(report) -> (ok, message)
    dt_caps_cfl = False           # a given dt only caps the CFL step (else replaces it)

    def bathymetry(self):
        return None

    def body_force(self):
        return None

    def pressure_exact(self):
        return None


# ---------------------------------------------------------------------------
# shallow water cases
# ---------------------------------------------------------------------------

@register
@dataclass
class SweVortexCase(CaseBase):
    """Steady rotating vortex in a periodic box; exact solution available.

    The Froude number is set through the asymptotic depth H0 at fixed g=10.
    """

    name = "swe_vortex"
    model = "swe"
    g0: float = 10.0
    H0: float = 1.0
    k: int = 1
    scheme: str = "LSDIRK222"
    t_end: float = 0.1
    h: float = 0.5
    mass_update: str = "divergence"

    def make_mesh(self):
        return mesh_for_target_h((-5, 5, -5, 5), self.h, self.seed,
                                 periodic=(True, True))

    def exact(self, p, t):
        x, y = p[:, 0], p[:, 1]
        r2 = x * x + y * y
        eta = self.H0 - np.exp(-(r2 - 1.0)) / (2.0 * self.g0)
        f = np.exp(-(r2 - 1.0) / 2.0)
        return np.stack([eta, eta * (-y * f), eta * (x * f), np.zeros_like(eta)])

    def bcs(self):
        return BoundarySet({})

    def error_variables(self):
        return ("eta", "u")


@register
@dataclass
class SweWellBalanceCase(CaseBase):
    """Lake at rest over a smooth bump; delta perturbs the free surface."""

    name = "swe_wellbalance"
    mesh_param = "n_cells"
    model = "swe"
    g0: float = 9.81
    delta: float = 0.0
    k: int = 2
    scheme: str = "LSDIRK222"
    t_end: float = 0.1
    n_cells: int = 2000

    def make_mesh(self):
        n = self.n_cells or 2000
        return generate_voronoi((-2, 1, -0.5, 0.5), n, lloyd_iters=10,
                                seed=self.seed, periodic=(False, True))

    def bump(self, p):
        return 0.5 * np.exp(-5.0 * (p[:, 0] + 0.1) ** 2 - 50.0 * p[:, 1] ** 2)

    def bathymetry(self):
        return self.bump

    def exact(self, p, t):
        eta = np.ones(len(p))
        if self.delta:
            eta = eta + self.delta * ((p[:, 0] >= -0.95) & (p[:, 0] <= -0.85))
        z = np.zeros(len(p))
        return np.stack([eta, z, z, self.bump(p)])

    def bcs(self):
        still = lambda p, t: self.exact(p, 0.0) * np.array([1.0, 0, 0, 1.0])[:, None]
        return BoundarySet({"xmin": BoundaryCondition("dirichlet", state=still),
                            "xmax": BoundaryCondition("dirichlet", state=still)})

    def error_variables(self):
        return ("eta", "Hu")


def _riemann_case(cname, etaL, uL, bL, etaR, uR, bR, xl, xr, tf, hdef):
    @register
    @dataclass
    class _RP(CaseBase):
        name = cname
        model = "swe"
        dt_caps_cfl = True
        g0: float = 9.81
        k: int = 1
        scheme: str = "LSDIRK222"
        t_end: float = tf
        h: float = hdef

        def make_mesh(self):
            width = (xr - xl) / 10.0
            return mesh_for_target_h((xl, xr, -width / 2, width / 2), self.h,
                                     self.seed, periodic=(False, True))

        def bathymetry(self):
            if bL == 0.0 and bR == 0.0:
                return None
            blend = lambda p: bL + (bR - bL) * (0.5 + 0.5 * np.tanh(p[:, 0] / (0.25 * self.h)))
            return blend

        def exact(self, p, t):
            """The jump at t = 0.  Later, on a flat bottom, the exact
            solution: no wave reaches the walls by t_end.  A bottom step
            keeps the jump (the exact solver takes flat bottoms only)."""
            HL, HR = etaL - bL, etaR - bR
            z = np.zeros(len(p))
            if t > 0.0 and not (bL or bR):
                H, u = exact_riemann_swe(HL, uL, HR, uR, g=self.g0).sample(p[:, 0] / t)
                return np.stack([H, H * u, z, z])
            left = p[:, 0] <= 0.0
            eta = np.where(left, etaL, etaR)
            q = np.where(left, HL * uL, HR * uR)
            b = np.where(left, bL, bR) if (bL or bR) else z
            return np.stack([eta, q, z, b])

        def bcs(self):
            return BoundarySet({"xmin": BoundaryCondition("wall"),
                                "xmax": BoundaryCondition("wall")})

        def error_variables(self):
            return ("eta", "u")
    _RP.__name__ = cname
    return _RP


_riemann_case("swe_rp1", 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, -0.5, 0.5, 0.075, 1.0 / 50)
_riemann_case("swe_rp2", 1e3, 0.0, 0.0, 1.0, 0.0, 0.0, -15.0, 15.0, 0.09, 30.0 / 220)
_riemann_case("swe_rp3", 1.0, 0.0, 0.2, 0.5, 0.0, 0.0, -5.0, 5.0, 1.0, 10.0 / 120)
_riemann_case("swe_rp4", 1.46184, 0.0, 0.0, 0.30873, 0.0, 0.2, -5.0, 5.0, 1.0, 10.0 / 120)


@register
@dataclass
class SweCircularDamCase(CaseBase):
    """Circular dam break over a bottom step; wall boundary on the box."""

    name = "swe_circular_dam"
    model = "swe"
    g0: float = 9.81
    k: int = 1
    scheme: str = "LSDIRK222"
    t_end: float = 0.2
    h: float = 1.0 / 16

    def make_mesh(self):
        # square box circumscribing the r<=2 disc; walls are far enough that
        # no wave reaches them by t_end
        return mesh_for_target_h((-2, 2, -2, 2), self.h, self.seed)

    def bathymetry(self):
        # smoothed step at r=1 (chord-resolution transition)
        w = 0.25 * self.h
        return lambda p: 0.2 * 0.5 * (1.0 - np.tanh(
            (np.hypot(p[:, 0], p[:, 1]) - 1.0) / w))

    def exact(self, p, t):
        r = np.hypot(p[:, 0], p[:, 1])
        eta = np.where(r <= 1.0, 1.0, 0.5)
        z = np.zeros(len(p))
        return np.stack([eta, z, z, self.bathymetry()(p)])

    def bcs(self):
        return BoundarySet({tag: BoundaryCondition("wall")
                            for tag in ("xmin", "xmax", "ymin", "ymax")})

    def error_variables(self):
        return ()


@register
@dataclass
class SweSmoothWaveCase(CaseBase):
    """Radially symmetric smooth hump steepening into a shock."""

    name = "swe_smooth_wave"
    model = "swe"
    g0: float = 9.81
    sigma: float = 0.1
    k: int = 2
    scheme: str = "SADIRK343"
    t_end: float = 0.15
    dt: float = 1e-3
    h: float = 1.0 / 25

    def make_mesh(self):
        return mesh_for_target_h((-1, 1, -1, 1), self.h, self.seed)

    def exact(self, p, t):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        eta = 1.0 + np.exp(-r2 / (2.0 * self.sigma ** 2))
        z = np.zeros(len(p))
        return np.stack([eta, z, z, z])

    def bcs(self):
        flat = lambda p, t: np.stack([np.ones(len(p)), np.zeros(len(p)),
                                      np.zeros(len(p)), np.zeros(len(p))])
        return BoundarySet({tag: BoundaryCondition("dirichlet", state=flat)
                            for tag in ("xmin", "xmax", "ymin", "ymax")})

    def error_variables(self):
        return ()


@register
@dataclass
class SweCylinderCase(CaseBase):
    """Low-Froude potential flow around a cylinder (graded mesh, k=4)."""

    name = "swe_cylinder"
    mesh_param = "n_cells"
    model = "swe"
    g0: float = 9.81
    eta0: float = 1.0
    vm: float = 1e-2
    k: int = 4
    scheme: str = "SP111"
    t_end: float = 10.0
    n_cells: int = 3000
    mass_update: str = "transfer"

    def make_mesh(self):
        def density(x, y):
            r = np.hypot(x, y)
            return 1.0 / np.clip(0.05 + 0.45 * (r - 1.0) / 15.0, 0.05, 0.5) ** 2
        return generate_voronoi((-16, 16, -16, 16), self.n_cells or 3000,
                                lloyd_iters=8, seed=self.seed, density=density,
                                hole_center=(0.0, 0.0), hole_radius=1.0)

    def exact(self, p, t):
        x, y = p[:, 0], p[:, 1]
        r2 = x * x + y * y
        r = np.sqrt(r2)
        th = np.arctan2(y, x)
        vr = self.vm * (1.0 - 1.0 / r2) * np.cos(th)
        vt = -self.vm * (1.0 + 1.0 / r2) * np.sin(th)
        eta = self.eta0 + 0.5 * self.vm ** 2 / self.g0 * (
            2.0 * np.cos(2.0 * th) / r2 - 1.0 / r2)
        u = vr * np.cos(th) - vt * np.sin(th)
        v = vr * np.sin(th) + vt * np.cos(th)
        return np.stack([eta, eta * u, eta * v, np.zeros_like(eta)])

    def initial(self, p, t):
        z = np.zeros(len(p))
        return np.stack([np.full(len(p), self.eta0), z, z, z])

    def bcs(self):
        ex = lambda p, t: self.exact(p, t)
        table = {tag: BoundaryCondition("dirichlet", state=ex)
                 for tag in ("xmin", "ymin", "ymax")}
        table["xmax"] = BoundaryCondition("transmissive")
        table["hole"] = BoundaryCondition("wall")
        return BoundarySet(table)

    def error_variables(self):
        return ("eta", "u")


# ---------------------------------------------------------------------------
# incompressible Navier-Stokes cases
# ---------------------------------------------------------------------------

@register
@dataclass
class InsPoiseuilleCase(CaseBase):
    """Stationary channel flow driven by a linear pressure drop."""

    name = "ins_poiseuille"
    mesh_param = "n_cells"
    model = "ins"
    nu: float = 1e-2
    pL: float = -1.0
    pR: float = -5.8
    k: int = 2
    scheme: str = "SP111"          # stationary gate: time order is immaterial
    t_end: float = 5.0
    n_cells: int = 1900
    seed: int = 6                  # mesh with the mildest CFL constraint

    def make_mesh(self):
        return generate_voronoi((0, 3, 0, 1), self.n_cells or 1949,
                                lloyd_iters=30, seed=self.seed)

    def dpdx(self):
        return (self.pR - self.pL) / 3.0

    def exact(self, p, t):
        y = p[:, 1]
        u = self.dpdx() / (2.0 * self.nu) * y * (y - 1.0)
        return np.stack([u, np.zeros_like(u)])

    def pressure_exact(self):
        return lambda p, t: self.pL + self.dpdx() * p[:, 0]

    def bcs(self):
        vel = lambda p, t: self.exact(p, t)
        pre = self.pressure_exact()
        return BoundarySet({
            "xmin": BoundaryCondition("dirichlet", state=vel, pressure=pre, static=True),
            "xmax": BoundaryCondition("dirichlet", state=vel, pressure=pre, static=True),
            "ymin": BoundaryCondition("wall"),
            "ymax": BoundaryCondition("wall"),
        })

    def error_variables(self):
        return ("u",)

    def gate(self, report):
        ok = report.linf("u") <= 1e-10
        return ok, f"Linf(u) = {report.linf('u'):.3e} (gate 1e-10)"


@register
@dataclass
class InsTgvCase(CaseBase):
    """Decaying Taylor-Green vortex on the periodic square.

    reynolds (if set) overrides nu as 1/Re: the dimensionless system at unit
    scales coincides with the dimensional one.
    """

    name = "ins_tgv"
    model = "ins"
    nu: float = 1e-2
    reynolds: float = None
    k: int = 1
    scheme: str = "LSDIRK222"
    t_end: float = 0.2
    h: float = 0.32

    def __post_init__(self):
        if self.reynolds is not None:
            self.nu = 1.0 / self.reynolds

    def make_mesh(self):
        L = 2.0 * np.pi
        return mesh_for_target_h((0, L, 0, L), self.h, self.seed,
                                 periodic=(True, True))

    def exact(self, p, t):
        f = np.exp(-2.0 * self.nu * t)
        return np.stack([np.sin(p[:, 0]) * np.cos(p[:, 1]) * f,
                         -np.cos(p[:, 0]) * np.sin(p[:, 1]) * f])

    def pressure_exact(self):
        # sign consistent with the velocity orientation (momentum balance)
        return lambda p, t: np.exp(-4.0 * self.nu * t) / 4.0 * (
            np.cos(2.0 * p[:, 0]) + np.cos(2.0 * p[:, 1]))

    def bcs(self):
        return BoundarySet({})

    def error_variables(self):
        return ("u", "p")


@register
@dataclass
class InsStokesFirstCase(CaseBase):
    """Impulsively started shear layer; erf profile in x."""

    name = "ins_stokes1"
    mesh_param = None             # a fixed rectangle grid
    model = "ins"
    nu: float = 1e-3
    v0: float = 0.1
    k: int = 2
    scheme: str = "LSDIRK222"
    t_end: float = 1.0

    def make_mesh(self):
        return generate_rect((-0.5, 0.5, -0.1, 0.1), 100, 2, periodic=(False, True))

    def exact(self, p, t):
        if t <= 0.0:
            v = np.where(p[:, 0] > 0.0, self.v0, -self.v0)
        else:
            v = self.v0 * erf(0.5 * p[:, 0] / np.sqrt(self.nu * t))
        return np.stack([np.zeros(len(p)), v])

    def pressure_exact(self):
        return lambda p, t: np.ones(len(p))

    def bcs(self):
        vel = lambda p, t: self.exact(p, t)
        return BoundarySet({"xmin": BoundaryCondition("dirichlet", state=vel),
                            "xmax": BoundaryCondition("dirichlet", state=vel)})

    def error_variables(self):
        return ("v",)


@register
@dataclass
class InsWomersleyCase(CaseBase):
    """Oscillatory flow between flat plates driven by a sinusoidal gradient."""

    name = "ins_womersley"
    model = "ins"
    nu: float = 2e-2
    amplitude: float = 1.0
    omega: float = 2.0 * np.pi
    k: int = 2
    scheme: str = "LSDIRK222"
    t_end: float = 1.0
    dt: float = 0.01
    h: float = 1.0 / 20

    def make_mesh(self):
        return mesh_for_target_h((-0.5, 0.5, -0.5, 0.5), self.h, self.seed,
                                 periodic=(True, False))

    def exact(self, p, t):
        R = 0.5
        aw = R * np.sqrt(self.omega / self.nu)
        si = np.sqrt(1j)
        prof = 1.0 - np.cosh(aw * si * p[:, 1] / R) / np.cosh(aw * si)
        u = (self.amplitude / (1j * self.omega)) * prof * np.exp(1j * self.omega * t)
        return np.stack([np.real(u), np.zeros(len(p))])

    def pressure_exact(self):
        return lambda p, t: np.zeros(len(p))

    def initial(self, p, t):
        return np.stack([np.zeros(len(p)), np.zeros(len(p))])

    def body_force(self):
        # - dp/dx imposed as an explicit source
        return lambda t: (-self.amplitude * np.cos(self.omega * t), 0.0)

    def bcs(self):
        return BoundarySet({"ymin": BoundaryCondition("wall"),
                            "ymax": BoundaryCondition("wall")})

    def error_variables(self):
        return ("u",)


@register
@dataclass
class InsDoubleShearCase(CaseBase):
    """Double shear layer roll-up at Re=5000 (qualitative)."""

    name = "ins_double_shear"
    model = "ins"
    reynolds: float = 5000.0
    theta: float = 30.0
    delta: float = 0.05
    k: int = 2
    scheme: str = "LSDIRK222"
    t_end: float = 1.8
    h: float = 1.0 / 40

    @property
    def nu(self):
        return 1.0 / self.reynolds

    def make_mesh(self):
        return mesh_for_target_h((0, 1, 0, 1), self.h, self.seed,
                                 periodic=(True, True))

    def exact(self, p, t):
        y = p[:, 1]
        u = np.where(y <= 0.5, np.tanh(self.theta * (y - 0.25)),
                     np.tanh(self.theta * (0.75 - y)))
        v = self.delta * np.sin(2.0 * np.pi * p[:, 0])
        return np.stack([u, v])

    def pressure_exact(self):
        return lambda p, t: np.ones(len(p))

    def bcs(self):
        return BoundarySet({})

    def error_variables(self):
        return ()


@register
@dataclass
class InsCavityCase(CaseBase):
    """Lid-driven cavity (qualitative; reynolds selects 100 or 400)."""

    name = "ins_cavity"
    model = "ins"
    reynolds: float = 100.0
    k: int = 2
    scheme: str = "SP111"
    t_end: float = 25.0
    h: float = 1.0 / 24

    @property
    def nu(self):
        return 1.0 / self.reynolds

    def make_mesh(self):
        return mesh_for_target_h((-0.5, 0.5, -0.5, 0.5), self.h, self.seed)

    def exact(self, p, t):
        return np.stack([np.zeros(len(p)), np.zeros(len(p))])

    def pressure_exact(self):
        return lambda p, t: np.zeros(len(p))

    def bcs(self):
        lid = lambda p, t: np.stack([np.ones(len(p)), np.zeros(len(p))])
        return BoundarySet({"ymax": BoundaryCondition("dirichlet", state=lid, static=True),
                            "xmin": BoundaryCondition("wall"),
                            "xmax": BoundaryCondition("wall"),
                            "ymin": BoundaryCondition("wall")})

    def error_variables(self):
        return ()


@register
@dataclass
class InsCylinderCase(CaseBase):
    """Laminar flow past a cylinder with vortex shedding (qualitative)."""

    name = "ins_cylinder"
    mesh_param = "n_cells"
    model = "ins"
    inflow: float = 0.5
    reynolds: float = 100.0
    k: int = 2
    scheme: str = "LSDIRK222"
    t_end: float = 50.0
    n_cells: int = 6000

    @property
    def nu(self):
        return self.inflow * 2.0 / self.reynolds

    def make_mesh(self):
        def density(x, y):
            r = np.hypot(x, y)
            return 1.0 / np.clip(0.3 + 0.15 * (r - 1.0), 0.3, 2.0) ** 2
        return generate_voronoi((-10, 40, -7, 7), self.n_cells or 6000,
                                lloyd_iters=6, seed=self.seed, density=density,
                                hole_center=(0.0, 0.0), hole_radius=1.0)

    def exact(self, p, t):
        return np.stack([np.full(len(p), self.inflow), np.zeros(len(p))])

    def pressure_exact(self):
        return lambda p, t: np.ones(len(p))

    def bcs(self):
        inflow = lambda p, t: np.stack([np.full(len(p), self.inflow),
                                        np.zeros(len(p))])
        # the outflow pins the pressure at its initial value: else the
        # projection is a pure Neumann problem with an incompatible rhs
        return BoundarySet({
            "xmin": BoundaryCondition("dirichlet", state=inflow, static=True),
            "xmax": BoundaryCondition("transmissive", pressure=self.pressure_exact(),
                                      static=True),
            "ymin": BoundaryCondition("transmissive"),
            "ymax": BoundaryCondition("transmissive"),
            "hole": BoundaryCondition("wall"),
        })

    def error_variables(self):
        return ()
