"""The solve monitor, the plateau rule and installing/removing wrappers."""

import numpy as np
import scipy.sparse as sp

import fvvem.harness.cases
import fvvem.models
from fvvem.linalg import SparseMatrix
from fvvem.models import SolveStats
from perfbench.layers import LAYERS, SolveMonitor, accepted_on_plateau, installed
from perfbench.spans import Tracer


def test_plateau_rule():
    tol = 1e-12
    assert not accepted_on_plateau(0.5e-12, 2.0, tol, 0.0)
    assert accepted_on_plateau(3e-11, 2.0, tol, 0.0)
    # an absolute target above tol * ||b|| (the viscous solves) is met:
    # the residual relative to ||b|| exceeds tol, yet the solve converged
    assert not accepted_on_plateau(5e-12, 2.0, tol, 1e-11)
    assert accepted_on_plateau(1e-11, 2.0, tol, 1e-11)
    assert not accepted_on_plateau(1.0, 0.0, tol, 0.0)


def _spd(n=30):
    main = np.full(n, 4.0)
    off = np.full(n - 1, -1.0)
    return SparseMatrix(sp.diags([off, main, off], [-1, 0, 1]).tocsr())


def test_monitor_counts_iterations_and_skips():
    tracer = Tracer()
    mon = SolveMonitor(tracer)
    solve = mon.wrap(fvvem.models.solve_implicit)
    A = _spd()
    b = np.arange(1.0, 31.0)
    stats = SolveStats()
    with tracer.span("pass"):
        x = solve(A, b, None, 1e-12, 20, True, stats, "pressure")
        # warm start at the solution: solve_implicit skips the iteration
        solve(A, b, x, 1e-12, 20, True, stats, "pressure")
        solve(A, b, None, 1e-12, 20, True, stats, "viscous", atol=1e-9)
    (ph,) = tracer.phases()
    assert ph.calls["linalg.solve.pressure"] == 2
    assert ph.counts["linalg.solves.pressure"] == 2
    assert ph.counts["linalg.skipped.pressure"] == 1
    assert ph.counts["linalg.iters.pressure"] + ph.counts["linalg.iters.viscous"] \
        == stats.iterations > 0
    assert ph.counts["linalg.plateau.viscous"] == 0 and mon.plateaus == 0
    assert np.linalg.norm(A.to_scipy() @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_installed_restores_every_binding():
    owners = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in LAYERS]
    solve = fvvem.models.solve_implicit
    with installed(SolveMonitor(Tracer()), Tracer()):
        assert fvvem.models.solve_implicit is not solve
        assert fvvem.harness.cases.generate_voronoi.__wrapped__ is \
            fvvem.mesh.generate_voronoi.__wrapped__
    assert fvvem.models.solve_implicit is solve
    for owner, attr, original in owners:
        assert owner.__dict__[attr] is original
