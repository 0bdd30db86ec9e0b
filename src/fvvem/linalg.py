"""Sparse matrices and the one solver used for every implicit system.

All implicit systems (pressure Poisson, viscous Helmholtz, free surface) are
symmetric positive (semi-)definite, and Dirichlet elimination keeps them so:
they are solved by preconditioned conjugate gradients (`pcg`), with either a
Jacobi preconditioner or the sparse LU factor of an operator that stays fixed.
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
    """Square-or-rectangular CSR matrix; finalized on construction.

    Column indices are sorted and unique per row and explicit zeros are
    dropped, so the structure is canonical.
    """

    def __init__(self, csr: sp.csr_matrix):
        csr = csr.tocsr().copy()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        self._m = csr

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseMatrix":
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr())

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(sp.identity(n, format="csr"))

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

    @property
    def nnz(self):
        return self._m.nnz

    def diagonal(self):
        return self._m.diagonal()

    def to_scipy(self) -> sp.csr_matrix:
        return self._m

    def to_dense(self) -> np.ndarray:
        return self._m.toarray()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._m.T.tocsr())

    def is_structurally_symmetric(self) -> bool:
        d = (self._m != 0) - (self._m.T != 0)
        return d.nnz == 0

    def symmetry_error(self) -> float:
        d = self._m - self._m.T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())

    def combine(self, coeff_self: float, other: "SparseMatrix", coeff_other: float) -> "SparseMatrix":
        return SparseMatrix((coeff_self * self._m + coeff_other * other._m).tocsr())


def spmv(A: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """y = A @ x with an explicit dimension check."""
    x = np.asarray(x)
    if x.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, x has {x.shape[0]} rows")
    return A.to_scipy() @ x


def pcg(A: SparseMatrix, b: np.ndarray, precond=None, x0: np.ndarray | None = None,
        tol: float = DEFAULT_TOL, maxiter: int = 10_000) -> tuple[np.ndarray, SolverReport]:
    """Preconditioned conjugate gradients for a symmetric positive (semi-)definite A.

    `precond(r)` applies an SPD approximation of A^{-1} (None: identity).
    Stops when the true residual satisfies ||b - A x||_2 <= tol ||b||_2; the
    recursive residual is replaced by the true one whenever it claims
    convergence.  Returns x0 immediately when it already satisfies the
    tolerance.  A search direction with p^T A p <= 0 raises SolverError.
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
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - Asp @ x
    res = float(np.linalg.norm(r))
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


def jacobi(A: SparseMatrix):
    """Diagonal (Jacobi) preconditioner r -> r / diag(A)."""
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise SolverError("Jacobi preconditioning requires a positive diagonal")
    dinv = 1.0 / d
    return lambda r: r * dinv


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


def apply_dirichlet(A: SparseMatrix, b: np.ndarray, dofs: np.ndarray,
                    values: np.ndarray) -> tuple[SparseMatrix, np.ndarray]:
    """Constrain dofs to values: identity rows plus symmetric column elimination.

    Coupled columns are folded into b so a symmetric A stays symmetric.
    Raises on duplicate indices with conflicting values.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if len(dofs) != len(values):
        raise ValueError("dofs and values length mismatch")
    b = np.array(b, dtype=float)
    n = A.shape[0]
    if len(dofs) == 0:
        return A, b
    order = np.argsort(dofs, kind="stable")
    ds, vs = dofs[order], values[order]
    dup = ds[1:] == ds[:-1]
    if np.any(dup):
        if np.any(np.abs(vs[1:][dup] - vs[:-1][dup]) > 0.0):
            bad = ds[1:][dup][np.abs(vs[1:][dup] - vs[:-1][dup]) > 0.0]
            raise ValueError(f"conflicting Dirichlet values at dofs {np.unique(bad)[:5]}")
        keep = np.concatenate([[True], ~dup])
        ds, vs = ds[keep], vs[keep]
    xfix = np.zeros(n)
    xfix[ds] = vs
    mask = np.zeros(n, dtype=bool)
    mask[ds] = True

    M = A.to_scipy().tocsr(copy=True)
    b -= M @ xfix                     # move known values to the rhs
    b[ds] = vs
    # zero constrained rows and columns, then place unit diagonals
    keep_rows = ~mask[_csr_row_of(M)]
    keep_cols = ~mask[M.indices]
    M.data[~(keep_rows & keep_cols)] = 0.0
    M = M.tocsr()
    M += sp.coo_matrix((np.ones(len(ds)), (ds, ds)), shape=M.shape).tocsr()
    return SparseMatrix(M), b


def _csr_row_of(M: sp.csr_matrix) -> np.ndarray:
    counts = np.diff(M.indptr)
    return np.repeat(np.arange(M.shape[0]), counts)
