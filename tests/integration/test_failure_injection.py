"""Failure injection: singular systems, degenerate decompositions,
pathological graphs."""

import numpy as np
import pytest

from repro import decompose, gmres, parallel_ilut, parallel_triangular_solve, poisson2d
from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import random_diag_dominant
from repro.solvers import ILUPreconditioner
from repro.sparse import COOBuilder, CSRMatrix


class TestSingularPivots:
    def test_zero_diagonal_rows_guarded(self):
        # matrix with several structurally-zero diagonals
        n = 12
        b = COOBuilder(n)
        for i in range(n):
            if i % 3 != 0:
                b.add(i, i, 4.0)
            b.add(i, (i + 1) % n, -1.0)
            b.add((i + 1) % n, i, -1.0)
        A = b.to_csr()
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3), diag_guard=True)
        assert np.all(f.U.diagonal() != 0.0)

    def test_zero_diagonal_parallel_guarded(self):
        n = 20
        b = COOBuilder(n)
        for i in range(n):
            if i != 7:
                b.add(i, i, 4.0)
            if i > 0:
                b.add(i, i - 1, -1.0)
                b.add(i - 1, i, -1.0)
        A = b.to_csr()
        r = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 3, seed=0, transport="none")
        assert np.all(r.factors.U.diagonal() != 0.0)

    def test_exactly_singular_matrix_still_produces_factors(self):
        # rank-deficient: row of zeros except off-diagonals cancelling
        A = CSRMatrix.from_dense(
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )
        f = ilut(A, ILUTParams(fill=3, threshold=0.0), diag_guard=True)
        assert np.all(np.isfinite(f.U.data))


class TestDegenerateDecompositions:
    def test_empty_interior_everywhere(self):
        # p = n: every row is interface, phase 1 factors nothing
        A = random_diag_dominant(10, 3, seed=0)
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=0.0), 10, seed=0, transport="none")
        assert r.decomp.n_interior == 0
        R = r.factors.residual_matrix(A)
        assert R.frobenius_norm() < 1e-9 * A.frobenius_norm()

    def test_rank_with_empty_domain_after_block_split(self):
        # block partition of a tiny matrix across many ranks: some ranks
        # end with one row and no interior
        A = random_diag_dominant(8, 2, seed=1)
        r = parallel_ilut(A, ILUTParams(fill=8, threshold=0.0), 4, method="block", seed=0, transport="none")
        r.factors.levels.validate(8)

    def test_disconnected_matrix(self):
        # block-diagonal: two totally disconnected halves
        n = 16
        b = COOBuilder(n)
        for base in (0, 8):
            for i in range(8):
                b.add(base + i, base + i, 4.0)
                if i > 0:
                    b.add(base + i, base + i - 1, -1.0)
                    b.add(base + i - 1, base + i, -1.0)
        A = b.to_csr()
        r = parallel_ilut(A, ILUTParams(fill=8, threshold=0.0), 2, seed=0, transport="none")
        assert r.factors.residual_matrix(A).frobenius_norm() < 1e-10

    def test_dense_row_matrix(self):
        # one fully dense row/column (hub) — worst case for MIS levels
        n = 15
        b = COOBuilder(n)
        for i in range(n):
            b.add(i, i, float(n))
            if i > 0:
                b.add(0, i, -1.0)
                b.add(i, 0, -1.0)
        A = b.to_csr()
        r = parallel_ilut(A, ILUTParams(fill=n, threshold=0.0), 3, seed=0, transport="none")
        assert r.factors.residual_matrix(A).frobenius_norm() < 1e-9


class TestSolverRobustness:
    def test_gmres_on_nearly_singular(self, rng):
        A = poisson2d(8)
        D = A.to_dense()
        D[10, 10] = 1e-12  # nearly-singular pivot
        B = CSRMatrix.from_dense(D)
        f = ilut(B, ILUTParams(fill=10, threshold=1e-8), diag_guard=True)
        b = rng.standard_normal(64)
        res = gmres(B, b, restart=20, M=ILUPreconditioner(f), maxiter=2000)
        assert np.all(np.isfinite(res.x))

    def test_trisolve_on_identity_factors(self):
        from repro.ilu import LevelStructure, ILUFactors

        n = 6
        f = ILUFactors(
            L=CSRMatrix.zeros(n),
            U=CSRMatrix.identity(n),
            perm=np.arange(n),
            levels=LevelStructure(
                interior_ranges=[(0, n)],
                interface_levels=[],
                owner=np.zeros(n, dtype=np.int64),
            ),
        )
        out = parallel_triangular_solve(f, np.arange(6.0))
        assert np.allclose(out.x, np.arange(6.0))

    def test_gmres_stagnates_gracefully_on_singular(self):
        A = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        res = gmres(A, np.array([1.0, 1.0]), restart=2, maxiter=8)
        assert not res.converged
        assert np.all(np.isfinite(res.x))
