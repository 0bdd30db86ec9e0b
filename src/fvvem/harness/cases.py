"""Benchmark case library: domains, initial/exact solutions, boundary data.

Each case is a dataclass that declares data.  Its class attributes are its
`name` (which registers it), `model` ("swe" or "ins", from `SweCase` or
`InsCase`), the `box`, `periodic` axes, `lloyd_iters`, optional `hole` and
`density` method of the Voronoi mesh that `CaseBase.make_mesh` generates
(`ins_stokes1` overrides it) and the `error_variables` its report measures.
Its dataclass fields are the numeric parameters with their defaults, each
of which can be overridden per run (e.g. h, H0, reynolds).  Its methods give
the exact or initial solution, the boundary conditions (`bcs`), the
bathymetry, the body force and the exact pressure.  Cases are looked up by
name through `get_case`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np
from scipy.special import erf

from ..mesh import build_geometry, generate_rect, generate_voronoi
from ..models import BoundaryCondition
from ..vem import MAX_ORDER
from .riemann import exact_riemann_swe

_REGISTRY = {}

# the values a parameter of each declared type takes; a bool is no number
_TAKES = {"int": lambda v: isinstance(v, Integral) and not isinstance(v, bool),
          "float": lambda v: isinstance(v, Real) and not isinstance(v, bool),
          "str": lambda v: isinstance(v, str)}

# the rules, checked in turn, that the shared parameters' values pass beyond
# their type (the VEM orders, at least the 4 seeds of the smallest Voronoi
# mesh); None (the default mesh size, the CFL-limited dt) always passes
_BOUNDS = {**dict.fromkeys(("t_end", "h", "dt"), ((lambda v: v > 0.0, "must be positive"),
                                                  (np.isfinite, "must be finite"))),
           "cfl": ((lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),),
           "seed": ((lambda v: v >= 0, "must be nonnegative"),),
           "k": ((lambda v: 1 <= v <= MAX_ORDER, f"must lie in 1..{MAX_ORDER}"),),
           "n_cells": ((lambda v: v >= 4, "must be at least 4"),)}


def get_case(name: str, **params):
    """The case `name` with its parameters overridden by `params`.  A mesh
    size (`h`, `n_cells`) of None keeps the case's default; one other than
    the one the case's mesh reads raises ValueError, as the case would
    ignore it, and so does a key that is not a parameter of the case, a
    value its declared type does not take (None only where the default is
    None) or a shared parameter out of its bounds (`_BOUNDS`)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown case '{name}'; available: {sorted(_REGISTRY)}")
    cls = _REGISTRY[name]
    for key in ("h", "n_cells"):
        if params.get(key) is None:
            params.pop(key, None)
        elif key != cls.mesh_param:
            reads = f"'{cls.mesh_param}'" if cls.mesh_param else "no mesh parameter"
            raise ValueError(f"case '{name}' reads {reads}, so it would ignore '{key}'")
    known = {f.name: f for f in fields(cls)}
    for key, value in params.items():
        if key not in known:
            raise ValueError(f"case '{name}' has no parameter '{key}' "
                             f"(it has {', '.join(sorted(known))})")
        f = known[key]
        if not (_TAKES[f.type](value) or value is None and f.default is None):
            raise ValueError(f"case '{name}': parameter '{key}' of type {f.type} cannot take "
                             f"{value!r}")
    case = cls(**params)
    for key, rules in _BOUNDS.items():
        value = getattr(case, key)
        for admits, bound in rules if value is not None else ():
            if not admits(value):
                raise ValueError(f"case '{name}': parameter '{key}' {bound}, not {value!r}")
    return case


def case_names():
    return sorted(_REGISTRY)


@dataclass
class CaseBase:
    """The fields and hooks every case shares.  A subclass that defines a
    `name` is registered under it, and its `mesh_param` is the mesh size it
    gives a default: "h", "n_cells" or None (a fixed mesh).  The rest of its
    mesh is class data, not fields: a run sets only the size."""

    k: int = 2
    scheme: str = "LSDIRK222"
    cfl: float = 0.9
    t_end: float = 1.0
    dt: float = None
    seed: int = 0
    h: float = None               # target mesh size; None -> case default
    n_cells: int = None

    mesh_param = None             # the mesh size make_mesh reads
    box = None                    # (x0, x1, y0, y1) that make_mesh meshes
    periodic = (False, False)     # the periodic axes of box
    lloyd_iters = 10              # the Lloyd iterations of make_mesh
    hole = None                   # ((xc, yc), r): a circular hole in box
    density = None                # override: density(x, y) grading the seeds
    error_variables = ()          # the fields the error report measures
    exact = None                  # override: exact(p, t) -> state rows
    initial = None                # override: initial(p, t) where it is not exact
    gate = None                   # override: callable(report) -> (ok, message)
    dt_caps_cfl = False           # a given dt only caps the CFL step (else replaces it)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "name" in cls.__dict__:
            _REGISTRY[cls.name] = cls
            cls.mesh_param = next((key for key in ("h", "n_cells")
                                   if getattr(cls, key) is not None), None)

    def make_mesh(self):
        """The case's Voronoi mesh of `n_cells` seeds or, for a case that
        reads `h`, of 1.55 box area / h^2 (at least 8), generated once."""
        n = self.n_cells
        if self.mesh_param == "h":
            x0, x1, y0, y1 = self.box
            n = max(8, round(1.55 * ((x1 - x0) * (y1 - y0)) / self.h ** 2))
        center, radius = self.hole or (None, 0.0)
        return generate_voronoi(self.box, n, lloyd_iters=self.lloyd_iters, seed=self.seed,
                                periodic=self.periodic, density=self.density,
                                hole_center=center, hole_radius=radius)

    def bcs(self):
        return {}

    def bathymetry(self):
        return None

    def body_force(self):
        return None

    def pressure_exact(self):
        return None


@dataclass
class SweCase(CaseBase):
    """A shallow-water case: state rows (eta, Hu, Hv, b) and gravity g0."""

    model = "swe"
    g0: float = 9.81


@dataclass
class InsCase(CaseBase):
    """An incompressible Navier-Stokes case: state rows (u, v), and a
    viscosity `nu` that each case gives as a field or a property."""

    model = "ins"


# ---------------------------------------------------------------------------
# shallow water cases
# ---------------------------------------------------------------------------

@dataclass
class SweVortexCase(SweCase):
    """Steady rotating vortex in a periodic box; exact solution available.

    The Froude number is set through the asymptotic depth H0 at fixed g=10.
    One CFL step of the default mesh passes t_end; dt caps it to 10 steps.
    """

    name = "swe_vortex"
    box = (-5, 5, -5, 5)
    periodic = (True, True)
    error_variables = ("eta", "u")
    dt_caps_cfl = True
    g0: float = 10.0
    H0: float = 1.0
    k: int = 1
    t_end: float = 0.1
    dt: float = 0.01
    h: float = 0.5

    def exact(self, p, t):
        x, y = p[:, 0], p[:, 1]
        r2 = x * x + y * y
        eta = self.H0 - np.exp(-(r2 - 1.0)) / (2.0 * self.g0)
        f = np.exp(-(r2 - 1.0) / 2.0)
        return np.stack([eta, eta * (-y * f), eta * (x * f), np.zeros_like(eta)])


@dataclass
class SweWellBalanceCase(SweCase):
    """Lake at rest over a smooth bump; delta perturbs the free surface."""

    name = "swe_wellbalance"
    box = (-2, 1, -0.5, 0.5)
    periodic = (False, True)
    error_variables = ("eta", "Hu")
    delta: float = 0.0
    t_end: float = 0.1
    n_cells: int = 2000

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
        return {"xmin": BoundaryCondition("dirichlet", state=still),
                "xmax": BoundaryCondition("dirichlet", state=still)}


def _riemann_case(cname, etaL, uL, bL, etaR, uR, bR, xl, xr, tf, hdef):
    width = (xr - xl) / 10.0

    @dataclass
    class _RP(SweCase):
        name = cname
        box = (xl, xr, -width / 2, width / 2)
        periodic = (False, True)
        error_variables = ("eta", "u")
        dt_caps_cfl = True
        k: int = 1
        t_end: float = tf
        h: float = hdef

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
            return {"xmin": BoundaryCondition("wall"),
                    "xmax": BoundaryCondition("wall")}
    _RP.__name__ = cname
    return _RP


_riemann_case("swe_rp1", 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, -0.5, 0.5, 0.075, 1.0 / 50)
_riemann_case("swe_rp2", 1e3, 0.0, 0.0, 1.0, 0.0, 0.0, -15.0, 15.0, 0.09, 30.0 / 220)
_riemann_case("swe_rp3", 1.0, 0.0, 0.2, 0.5, 0.0, 0.0, -5.0, 5.0, 1.0, 10.0 / 120)
_riemann_case("swe_rp4", 1.46184, 0.0, 0.0, 0.30873, 0.0, 0.2, -5.0, 5.0, 1.0, 10.0 / 120)


@dataclass
class SweCircularDamCase(SweCase):
    """Circular dam break over a bottom step; wall boundary on the box."""

    name = "swe_circular_dam"
    # square box circumscribing the r<=2 disc; walls are far enough that
    # no wave reaches them by t_end
    box = (-2, 2, -2, 2)
    k: int = 1
    t_end: float = 0.2
    h: float = 1.0 / 16

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
        return {tag: BoundaryCondition("wall")
                for tag in ("xmin", "xmax", "ymin", "ymax")}


@dataclass
class SweSmoothWaveCase(SweCase):
    """Radially symmetric smooth hump steepening into a shock."""

    name = "swe_smooth_wave"
    box = (-1, 1, -1, 1)
    sigma: float = 0.1
    scheme: str = "SADIRK343"
    t_end: float = 0.15
    dt: float = 1e-3
    h: float = 1.0 / 25

    def exact(self, p, t):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        eta = 1.0 + np.exp(-r2 / (2.0 * self.sigma ** 2))
        z = np.zeros(len(p))
        return np.stack([eta, z, z, z])

    def bcs(self):
        flat = lambda p, t: np.stack([np.ones(len(p)), np.zeros(len(p)),
                                      np.zeros(len(p)), np.zeros(len(p))])
        return {tag: BoundaryCondition("dirichlet", state=flat)
                for tag in ("xmin", "xmax", "ymin", "ymax")}


@dataclass
class SweCylinderCase(SweCase):
    """Low-Froude potential flow around a cylinder (graded mesh, k=4)."""

    name = "swe_cylinder"
    box = (-16, 16, -16, 16)
    lloyd_iters = 8
    hole = ((0.0, 0.0), 1.0)
    error_variables = ("eta", "u")
    eta0: float = 1.0
    vm: float = 1e-2
    k: int = 4
    scheme: str = "SP111"
    t_end: float = 10.0
    n_cells: int = 3000

    def density(self, x, y):
        r = np.hypot(x, y)
        return 1.0 / np.clip(0.05 + 0.45 * (r - 1.0) / 15.0, 0.05, 0.5) ** 2

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
        return table


# ---------------------------------------------------------------------------
# incompressible Navier-Stokes cases
# ---------------------------------------------------------------------------

@dataclass
class InsPoiseuilleCase(InsCase):
    """Stationary channel flow driven by a linear pressure drop."""

    name = "ins_poiseuille"
    box = (0, 3, 0, 1)
    lloyd_iters = 30
    error_variables = ("u",)
    nu: float = 1e-2
    pL: float = -1.0
    pR: float = -5.8
    scheme: str = "SP111"          # stationary gate: time order is immaterial
    t_end: float = 5.0
    n_cells: int = 1900
    seed: int = 6                  # mesh with the mildest CFL constraint

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
        return {
            "xmin": BoundaryCondition("dirichlet", state=vel, pressure=pre),
            "xmax": BoundaryCondition("dirichlet", state=vel, pressure=pre),
            "ymin": BoundaryCondition("wall"),
            "ymax": BoundaryCondition("wall"),
        }

    def gate(self, report):
        ok = report.linf("u") <= 1e-10
        return ok, f"Linf(u) = {report.linf('u'):.3e} (gate 1e-10)"


@dataclass
class InsTgvCase(InsCase):
    """Decaying Taylor-Green vortex on the periodic square.

    nu is 1/reynolds: the dimensionless system at unit scales coincides with
    the dimensional one.
    """

    name = "ins_tgv"
    box = (0, 2.0 * np.pi, 0, 2.0 * np.pi)
    periodic = (True, True)
    error_variables = ("u", "p")
    nu = property(lambda self: 1.0 / self.reynolds)
    reynolds: float = 100.0
    k: int = 1
    t_end: float = 0.2
    h: float = 0.32

    def exact(self, p, t):
        f = np.exp(-2.0 * self.nu * t)
        return np.stack([np.sin(p[:, 0]) * np.cos(p[:, 1]) * f,
                         -np.cos(p[:, 0]) * np.sin(p[:, 1]) * f])

    def pressure_exact(self):
        # sign consistent with the velocity orientation (momentum balance)
        return lambda p, t: np.exp(-4.0 * self.nu * t) / 4.0 * (
            np.cos(2.0 * p[:, 0]) + np.cos(2.0 * p[:, 1]))


@dataclass
class InsStokesFirstCase(InsCase):
    """Impulsively started shear layer; erf profile in x (a fixed 100 x 2
    rectangle grid)."""

    name = "ins_stokes1"
    error_variables = ("v",)
    nu: float = 1e-3
    v0: float = 0.1

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
        return {"xmin": BoundaryCondition("dirichlet", state=vel),
                "xmax": BoundaryCondition("dirichlet", state=vel)}


@dataclass
class InsWomersleyCase(InsCase):
    """Oscillatory flow between flat plates driven by a sinusoidal gradient."""

    name = "ins_womersley"
    box = (-0.5, 0.5, -0.5, 0.5)
    periodic = (True, False)
    error_variables = ("u",)
    nu: float = 2e-2
    amplitude: float = 1.0
    omega: float = 2.0 * np.pi
    dt: float = 0.01
    h: float = 1.0 / 20

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
        return {"ymin": BoundaryCondition("wall"),
                "ymax": BoundaryCondition("wall")}


@dataclass
class InsDoubleShearCase(InsCase):
    """Double shear layer roll-up at Re=5000 (qualitative)."""

    name = "ins_double_shear"
    box = (0, 1, 0, 1)
    periodic = (True, True)
    nu = property(lambda self: 1.0 / self.reynolds)
    reynolds: float = 5000.0
    theta: float = 30.0
    delta: float = 0.05
    t_end: float = 1.8
    h: float = 1.0 / 40

    def exact(self, p, t):
        y = p[:, 1]
        u = np.where(y <= 0.5, np.tanh(self.theta * (y - 0.25)),
                     np.tanh(self.theta * (0.75 - y)))
        v = self.delta * np.sin(2.0 * np.pi * p[:, 0])
        return np.stack([u, v])

    def pressure_exact(self):
        return lambda p, t: np.ones(len(p))


@dataclass
class InsCavityCase(InsCase):
    """Lid-driven cavity (qualitative; reynolds selects 100 or 400)."""

    name = "ins_cavity"
    box = (-0.5, 0.5, -0.5, 0.5)
    nu = property(lambda self: 1.0 / self.reynolds)
    reynolds: float = 100.0
    scheme: str = "SP111"
    t_end: float = 25.0
    h: float = 1.0 / 24

    def exact(self, p, t):
        return np.stack([np.zeros(len(p)), np.zeros(len(p))])

    def pressure_exact(self):
        return lambda p, t: np.zeros(len(p))

    def bcs(self):
        lid = lambda p, t: np.stack([np.ones(len(p)), np.zeros(len(p))])
        return {"ymax": BoundaryCondition("dirichlet", state=lid),
                "xmin": BoundaryCondition("wall"),
                "xmax": BoundaryCondition("wall"),
                "ymin": BoundaryCondition("wall")}


@dataclass
class InsCylinderCase(InsCase):
    """Laminar flow past a cylinder with vortex shedding (qualitative)."""

    name = "ins_cylinder"
    box = (-10, 40, -7, 7)
    lloyd_iters = 6
    hole = ((0.0, 0.0), 1.0)
    nu = property(lambda self: self.inflow * 2.0 / self.reynolds)
    inflow: float = 0.5
    reynolds: float = 100.0
    t_end: float = 50.0
    n_cells: int = 6000

    def density(self, x, y):
        r = np.hypot(x, y)
        return 1.0 / np.clip(0.3 + 0.15 * (r - 1.0), 0.3, 2.0) ** 2

    def exact(self, p, t):
        return np.stack([np.full(len(p), self.inflow), np.zeros(len(p))])

    def pressure_exact(self):
        return lambda p, t: np.ones(len(p))

    def bcs(self):
        inflow = lambda p, t: np.stack([np.full(len(p), self.inflow),
                                        np.zeros(len(p))])
        # the outflow pins the pressure at its initial value: else the
        # projection is a pure Neumann problem with an incompatible rhs
        return {
            "xmin": BoundaryCondition("dirichlet", state=inflow),
            "xmax": BoundaryCondition("transmissive", pressure=self.pressure_exact()),
            "ymin": BoundaryCondition("transmissive"),
            "ymax": BoundaryCondition("transmissive"),
            "hole": BoundaryCondition("wall"),
        }
