"""Unit tests for the block-Jacobi ILUT strawman."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu import block_jacobi_ilut, parallel_ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d
from repro.solvers import gmres


class TestBlockJacobi:
    def test_apply_block_diagonal_exact(self):
        """With one rank and no dropping, apply == exact solve."""
        A = poisson2d(8)
        bj = block_jacobi_ilut(A, ILUTParams(fill=64, threshold=0.0), 1, transport="none")
        rng = np.random.default_rng(0)
        b = rng.standard_normal(64)
        assert np.allclose(A @ bj.apply(b), b, atol=1e-8)

    def test_apply_ignores_coupling(self):
        """Zeroing cross-domain entries of A must not change the apply."""
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        bj = block_jacobi_ilut(A, ILUTParams(fill=100, threshold=0.0), 4, decomp=d, transport="none")
        rng = np.random.default_rng(1)
        b = rng.standard_normal(100)
        y = bj.apply(b)
        # block-diagonal-only solve: each block solves its subsystem
        for r in range(4):
            rows = d.owned_rows(r)
            block = A.submatrix(rows, rows)
            assert np.allclose(block @ y[rows], b[rows], atol=1e-8)

    def test_gmres_quality_degrades_with_p(self, rng):
        """The motivation for the paper: dropping the interface coupling
        costs iterations as p (and the discarded coupling) grows."""
        A = poisson2d(20)
        b = A @ np.ones(400)
        nmv = {}
        for p in (1, 16):
            bj = block_jacobi_ilut(A, ILUTParams(fill=10, threshold=1e-4), p, seed=0, transport="none")
            res = gmres(A, b, restart=20, M=bj, maxiter=8000)
            assert res.converged
            nmv[p] = res.num_matvec
        assert nmv[16] > nmv[1]

    def test_parallel_ilut_beats_block_jacobi(self, rng):
        from repro.solvers import ILUPreconditioner

        A = poisson2d(20)
        b = A @ np.ones(400)
        p = 16
        bj = block_jacobi_ilut(A, ILUTParams(fill=10, threshold=1e-4), p, seed=0, transport="none")
        full = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), p, seed=0, transport="none")
        n_bj = gmres(A, b, restart=20, M=bj, maxiter=8000).num_matvec
        n_full = gmres(
            A, b, restart=20, M=ILUPreconditioner(full.factors), maxiter=8000
        ).num_matvec
        assert n_full < n_bj

    def test_no_communication(self):
        A = poisson2d(10)
        bj = block_jacobi_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, seed=0)
        assert bj.modeled_factor_time > 0
        # factor time = slowest local ILUT, no messages — implied by the
        # modelled time being below the parallel ILUT's
        full = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, seed=0)
        assert bj.modeled_factor_time <= full.modeled_time

    def test_shape_check(self):
        A = poisson2d(6)
        bj = block_jacobi_ilut(A, ILUTParams(fill=5, threshold=1e-3), 2, transport="none")
        with pytest.raises(ValueError):
            bj.apply(np.ones(7))

    def test_decomp_mismatch(self):
        A = poisson2d(6)
        d = decompose(A, 2, seed=0)
        with pytest.raises(ValueError):
            block_jacobi_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, decomp=d)

    def test_total_nnz(self):
        A = poisson2d(8)
        bj = block_jacobi_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, transport="none")
        assert bj.total_nnz() == sum(f.nnz for f in bj.blocks)
