import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fvvem.linalg import (DirichletSet, SolverError, SparseMatrix, apply_dirichlet,
                          factorized, pcg)


def random_sparse(n, m, density, seed):
    rng = np.random.default_rng(seed)
    nnz = max(1, int(density * n * m))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, m, nnz)
    vals = rng.standard_normal(nnz)
    A = SparseMatrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, m)).tocsr())
    return A, rows, cols, vals


class TestSparseMatrix:
    def test_canonical_structure(self):
        A, *_ = random_sparse(40, 40, 0.1, 0)
        idx = A.indices
        ptr = A.indptr
        for r in range(40):
            row = idx[ptr[r]:ptr[r + 1]]
            assert np.all(np.diff(row) > 0)
        assert not np.any(A.data == 0.0)

    def test_duplicates_summed_as_the_dense_oracle(self):
        A, rows, cols, vals = random_sparse(50, 50, 0.08, 3)
        dense = np.zeros((50, 50))
        np.add.at(dense, (rows, cols), vals)
        assert np.abs(A.to_scipy().toarray() - dense).max() < 1e-14 * np.abs(dense).max()


def jacobi(A):
    """r -> r / diag(A), for the tests' badly scaled SPD matrices."""
    d = A.to_scipy().diagonal()
    return lambda r: r / d


def identity(n):
    return SparseMatrix(sp.identity(n, format="csr"))


def symmetry_error(A):
    d = A.to_scipy() - A.to_scipy().T
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def laplace_1d(n):
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return SparseMatrix(sp.diags([off, main, off], [-1, 0, 1]).tocsr())


class TestPcg:
    def test_identity_one_step(self):
        A = identity(30)
        b = np.linspace(-1, 1, 30)
        x, rep = pcg(A, b)
        assert rep.converged and rep.iterations <= 1
        assert np.allclose(x, b, atol=1e-13)

    def test_zero_rhs(self):
        A = identity(10)
        x, rep = pcg(A, np.zeros(10))
        assert np.array_equal(x, np.zeros(10))
        assert rep.converged

    def test_spd_tridiagonal_vs_lu(self):
        n = 100
        A = laplace_1d(n)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(n)
        x, rep = pcg(A, b, tol=1e-12, maxiter=2000)
        xref = np.linalg.solve(A.to_scipy().toarray(), b)
        assert rep.converged
        assert np.linalg.norm(x - xref) < 1e-10 * np.linalg.norm(xref)

    def test_nonconvergence_report(self):
        n = 60
        rng = np.random.default_rng(9)
        Q = rng.uniform(1, 2, (n, n))
        A = SparseMatrix(sp.csr_matrix(Q @ Q.T + np.diag(rng.uniform(1, 50, n))))
        b = rng.standard_normal(n)
        x, rep = pcg(A, b, jacobi(A), tol=1e-14, maxiter=3)
        assert not rep.converged
        assert rep.iterations == 3
        assert rep.residual == pytest.approx(
            np.linalg.norm(b - A.to_scipy().toarray() @ x) / np.linalg.norm(b), rel=1e-6)

    def test_jacobi_preconditioning(self):
        n = 80
        rng = np.random.default_rng(11)
        scale = rng.uniform(1, 1e4, n)
        S = sp.diags(scale).tocsr()
        A = SparseMatrix((S @ laplace_1d(n).to_scipy() @ S).tocsr())
        b = rng.standard_normal(n)
        x, rep = pcg(A, b, jacobi(A), tol=1e-12, maxiter=5000)
        xref = np.linalg.solve(A.to_scipy().toarray(), b)
        assert rep.converged
        assert np.linalg.norm(x - xref) < 1e-8 * np.linalg.norm(xref)

    def test_indefinite_direction_raises(self):
        A = SparseMatrix(sp.diags([1.0, -1.0]).tocsr())
        with pytest.raises(SolverError, match="p\\^T A p"):
            pcg(A, np.array([0.0, 1.0]))

    def test_factor_preconditioner_one_iteration(self):
        A = laplace_1d(50)
        b = np.random.default_rng(5).standard_normal(50)
        x, rep = pcg(A, b, factorized(A))
        assert rep.converged and rep.iterations == 1
        assert np.linalg.norm(A.to_scipy() @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_pure_neumann_pinned_factor(self):
        # graph Laplacian of a path: singular, null space = constants
        n = 40
        main = np.full(n, 2.0)
        main[[0, -1]] = 1.0
        off = -np.ones(n - 1)
        K = SparseMatrix(sp.diags([off, main, off], [-1, 0, 1]).tocsr())
        b = np.random.default_rng(6).standard_normal(n)
        b -= b.mean()                                  # compatible rhs
        x, rep = pcg(K, b, factorized(K, pin=7))
        assert rep.converged and rep.iterations == 1
        xref = np.linalg.lstsq(K.to_scipy().toarray(), b, rcond=None)[0]
        d = x - xref
        assert np.abs(d - d.mean()).max() < 1e-10 * np.abs(xref).max()
        assert abs(x[7]) < 1e-10 * np.abs(x).max()    # the pinned dof

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=200))
    def test_spd_property(self, seed, n):
        rng = np.random.default_rng(seed)
        Q = rng.standard_normal((n, n))
        Aspd = Q @ Q.T + n * np.eye(n)
        A = SparseMatrix(sp.csr_matrix(Aspd))
        b = rng.standard_normal(n)
        x, rep = pcg(A, b, tol=1e-12, maxiter=5000)
        assert rep.converged
        assert np.linalg.norm(b - Aspd @ x) <= 1e-12 * np.linalg.norm(b) * 1.0001


def constrain(A, b, dofs, values):
    """The constrained operator and right-hand side of dofs set to values."""
    fixed = DirichletSet(A, dofs)
    return apply_dirichlet(A, fixed), fixed.rhs(A, b, values)


class TestDirichlet:
    def test_constrain_all(self):
        A = laplace_1d(6)
        vals = np.arange(6.0)
        Am, bm = constrain(A, np.zeros(6), np.arange(6), vals)
        x, rep = pcg(Am, bm)
        assert np.allclose(x, vals, atol=1e-12)

    def test_constrain_none(self):
        A = laplace_1d(5)
        b = np.ones(5)
        Am, bm = constrain(A, b, np.array([], dtype=int), np.array([]))
        assert np.array_equal(bm, b)
        assert np.array_equal(Am.to_scipy().toarray(), A.to_scipy().toarray())

    def test_laplace_chain_linear_solution(self):
        A = laplace_1d(5)
        Am, bm = constrain(A, np.zeros(5), np.array([0, 4]), np.array([0.0, 1.0]))
        x, rep = pcg(Am, bm)
        assert np.allclose(x, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_symmetry_preserved(self):
        n = 30
        rng = np.random.default_rng(13)
        Q = rng.standard_normal((n, n))
        S = sp.csr_matrix(Q + Q.T)
        A = SparseMatrix(S)
        Am, _ = constrain(A, np.zeros(n), np.array([3, 7, 20]), np.array([1.0, -1.0, 2.0]))
        assert symmetry_error(Am) == 0.0

    def test_constrained_dof_needs_a_diagonal_entry(self):
        A = SparseMatrix(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]])))
        with pytest.raises(ValueError, match="no diagonal entry"):
            constrain(A, np.zeros(2), np.array([0]), np.array([1.0]))
