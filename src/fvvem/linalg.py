"""Sparse matrices and the one solver used for every implicit system.

All implicit systems (pressure Poisson, viscous Helmholtz, free surface) are
symmetric positive (semi-)definite, and Dirichlet elimination keeps them so:
they are solved by preconditioned conjugate gradients (`pcg`).  The
preconditioner is the sparse LU factor (`factorized`) of the system's operator
or of an earlier operator of the same system: CG on the exact factor takes
one iteration, and a factor kept while the coefficients drift (the drivers in
`models` refactor only when a solve needs more than
`models.REFACTOR_ITERATIONS` iterations) still takes a few.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(Exception):
    """Indefinite operator or other unrecoverable solver failure."""


DEFAULT_TOL = 1e-12     # iterative-solve stopping tolerance (relative residual)


@dataclass
class SolverReport:
    iterations: int
    residual: float          # final relative residual ||b - A x|| / ||b||
    converged: bool


class SparseMatrix:
    """Square-or-rectangular CSR matrix.

    Built from a scipy matrix it is finalized: column indices are sorted and
    unique per row and explicit zeros are dropped, so the structure is
    canonical.  `on_pattern` instead wraps data on a given canonical
    pattern, explicit zeros included, so operators refilled on one pattern
    keep identical `indptr` and `indices`.
    """

    def __init__(self, csr: sp.csr_matrix):
        csr = csr.tocsr().copy()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        self._m = csr

    @classmethod
    def on_pattern(cls, indptr, indices, data, shape) -> "SparseMatrix":
        """`data` on a canonical CSR pattern; the arrays are shared, not copied."""
        out = cls.__new__(cls)
        out._m = sp.csr_matrix((data, indices, indptr), shape=shape, copy=False)
        out._m.has_canonical_format = True
        return out

    @property
    def shape(self):
        return self._m.shape

    @property
    def indptr(self):
        return self._m.indptr

    @property
    def indices(self):
        return self._m.indices

    @property
    def data(self):
        return self._m.data

    def to_scipy(self) -> sp.csr_matrix:
        return self._m


def pcg(A: SparseMatrix, b: np.ndarray, precond=None,
        tol: float = DEFAULT_TOL, maxiter: int = 10_000) -> tuple[np.ndarray, SolverReport]:
    """Preconditioned conjugate gradients for a symmetric positive (semi-)definite A.

    `precond(r)` applies an SPD approximation of A^{-1} (None: identity).
    Starts from x = 0, so r = b; a warm start solves for the increment
    instead (`models.solve_implicit`).  Stops when the true residual
    satisfies ||b - A x||_2 <= tol ||b||_2; the recursive residual is
    replaced by the true one whenever it claims convergence.  A search
    direction with p^T A p <= 0 raises SolverError.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("pcg requires a square matrix")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != n:
        raise ValueError("right-hand side length mismatch")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros(n), SolverReport(0, 0.0, True)
    Asp = A.to_scipy()
    x = np.zeros(n)
    r = b
    res = nb
    it = 0
    while res > tol * nb:
        if it == maxiter:
            return x, SolverReport(it, res / nb, False)
        z = r if precond is None else precond(r)
        rz_new = float(r @ z)
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        Ap = Asp @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            raise SolverError(f"p^T A p = {pAp:.3e} <= 0: matrix not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r = r - alpha * Ap
        it += 1
        res = float(np.linalg.norm(r))
        if res <= tol * nb:
            r = b - Asp @ x
            res = float(np.linalg.norm(r))
    return x, SolverReport(it, res / nb, True)


def factorized(A: SparseMatrix, pin: int | None = None):
    """Sparse LU factor of a symmetric A as the preconditioner r -> A^{-1} r.

    For a positive semidefinite A whose null space is one vector n with
    n[pin] != 0 (a pure-Neumann or periodic stiffness matrix), the factored
    copy adds A[pin, pin] to that diagonal entry.  The copy is definite, and
    for a compatible r (n . r = 0) it returns the solution of A z = r with
    z[pin] = 0, so CG on A itself converges in one iteration.
    """
    S = A.to_scipy().tocsc()
    if pin is not None:
        S = S + sp.csc_matrix(([S[pin, pin]], ([pin], [pin])), shape=S.shape)
    lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return lu.solve


class DirichletSet:
    """Dirichlet dofs of one canonical CSR pattern (anything with `indptr`,
    `indices` and `shape`), with the data positions of their rows and columns
    and of their diagonal entries, found once for every matrix on it."""

    def __init__(self, pattern, dofs):
        self.dofs = np.unique(np.asarray(dofs, dtype=np.int64))
        mask = np.zeros(pattern.shape[0], dtype=bool)
        mask[self.dofs] = True
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        self.cleared = np.flatnonzero(mask[rows] | mask[pattern.indices])
        self.diagonal = self.cleared[rows[self.cleared] == pattern.indices[self.cleared]]
        if len(self.diagonal) != len(self.dofs):
            raise ValueError("a constrained dof has no diagonal entry in the pattern")

    def rhs(self, A: SparseMatrix, b: np.ndarray, values: np.ndarray) -> np.ndarray:
        """b - A x_fix, with the values themselves in the constrained rows."""
        xfix = np.zeros(A.shape[0])
        xfix[self.dofs] = values
        out = b - A.to_scipy() @ xfix
        out[self.dofs] = values
        return out


def apply_dirichlet(A: SparseMatrix, dirichlet: DirichletSet) -> SparseMatrix:
    """Constrain the dofs of a `DirichletSet` of A's pattern: identity rows and
    symmetric column elimination, on A's pattern.  The right-hand side that
    goes with it, with the coupled columns folded in so a symmetric A stays
    symmetric, is `dirichlet.rhs`."""
    data = A.data.copy()
    data[dirichlet.cleared] = 0.0
    data[dirichlet.diagonal] = 1.0
    return SparseMatrix.on_pattern(A.indptr, A.indices, data, A.shape)
