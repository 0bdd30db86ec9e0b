"""Outside-in layer wrappers: spans around the calls into each fvvem module.

The wrappers are installed by rebinding attributes from the benchmark and
are removed again when the run ends; nothing under ``src/`` knows about them.
Three rules keep the spans complete:

* a function imported by name is rebound in the calling module as well as in
  the defining one (``models`` imports ``apply_dirichlet`` by name and calls
  its own ``solve_implicit``; ``harness.cases`` imports ``generate_voronoi``
  and ``build_geometry``);
* ``Discretization.__init__`` is wrapped, not the class, so that methods
  wrapped on the class stay visible;
* the implicit system is named from ``solve_implicit``'s ``what`` argument and
  its iterations are the change of ``stats.iterations`` across the call.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager

import numpy as np

import fvvem.fv
import fvvem.harness.cases
import fvvem.mesh
import fvvem.models
import fvvem.transfer
import fvvem.vem

# (span name, owner, attribute).  A span name appears once per module that
# binds the function.
LAYERS = (
    ("mesh.generate", fvvem.harness.cases, "generate_voronoi"),
    ("mesh.generate", fvvem.mesh, "generate_voronoi"),
    ("mesh.geometry", fvvem.harness.cases, "build_geometry"),
    ("mesh.geometry", fvvem.mesh, "build_geometry"),
    ("fv.setup", fvvem.fv.FvOperators, "__init__"),
    ("vem.elements", fvvem.vem, "build_element"),
    ("vem.scatter", fvvem.vem, "scatter_matrix"),
    ("transfer.setup", fvvem.transfer, "build_transfer"),
    ("models.groups", fvvem.models._Group, "__init__"),
    ("models.disc_other", fvvem.models.Discretization, "__init__"),
    ("models.bathymetry", fvvem.models, "evaluate_bathymetry"),
    ("fv.reconstruct", fvvem.fv.FvOperators, "reconstruct"),
    ("fv.flux", fvvem.fv, "explicit_operator"),
    ("models.convective", fvvem.models.SweDriver, "_convective_divergence_poly"),
    ("models.assembly", fvvem.models.Discretization, "variable_stiffness_global"),
    ("linalg.dirichlet", fvvem.models, "apply_dirichlet"),
    ("transfer.fv_to_vem", fvvem.models.Discretization, "fv_to_vem"),
    ("transfer.vem_to_fv", fvvem.models.Discretization, "vem_to_fv"),
)

# solve_implicit's `what` argument -> metric suffix
SYSTEMS = {"free-surface": "free_surface", "viscous": "viscous",
           "pressure": "pressure"}


def _spanned(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def accepted_on_plateau(last_residual: float, b_norm: float, tol: float,
                        atol: float) -> bool:
    """Whether a finished solve stopped above its own stopping target.

    ``solve_implicit`` stops at ``max(tol * ||b||, atol)`` and records the
    achieved residual relative to ``||b||``; a larger residual means the
    solve was accepted on a plateau.
    """
    if b_norm == 0.0:
        return False
    return bool(last_residual * b_norm > max(tol * b_norm, atol))


class SolveMonitor:
    """Wraps ``models.solve_implicit``: counts solves accepted on a plateau,
    and with a tracer also records a span and per-system counts."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.plateaus = 0

    def wrap(self, fn):
        sig = inspect.signature(fn)
        tracer = self.tracer

        @functools.wraps(fn)
        def solve_implicit(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            stats = a["stats"]
            it0 = stats.iterations
            if tracer is None:
                x = fn(*args, **kwargs)
            else:
                system = SYSTEMS[a["what"]]
                with tracer.span(f"linalg.solve.{system}"):
                    x = fn(*args, **kwargs)
            plateau = accepted_on_plateau(stats.last_residual,
                                          float(np.linalg.norm(a["b"])),
                                          a["tol"], a["atol"])
            self.plateaus += plateau
            if tracer is not None:
                iters = stats.iterations - it0
                tracer.count(f"linalg.solves.{system}")
                tracer.count(f"linalg.iters.{system}", iters)
                tracer.count(f"linalg.skipped.{system}", int(iters == 0))
                tracer.count(f"linalg.plateau.{system}", int(plateau))
            return x
        return solve_implicit


@contextmanager
def installed(monitor: SolveMonitor, tracer=None):
    """Rebind the solve monitor, and with a tracer every layer in LAYERS,
    for the duration of the block."""
    patches = [(fvvem.models, "solve_implicit",
                monitor.wrap(fvvem.models.solve_implicit))]
    if tracer is not None:
        patches += [(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
                    for name, owner, attr in LAYERS]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
