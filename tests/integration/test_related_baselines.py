"""Cross-family comparisons: the full design space on one problem.

The library now expresses the whole landscape the paper situates itself
in: static-pattern factorizations (ILU(0)/ILU(k)), threshold sequential
(ILUT), global multi-elimination (ILUM), the paper's two-phase parallel
ILUT/ILUT*, block-Jacobi ILUT, stationary sweeps, and the diagonal.
These tests pin the qualitative ordering between them.
"""

import numpy as np
import pytest

from repro import poisson2d
from repro.decomp import decompose
from repro.ilu import (
    block_jacobi_ilut,
    ilu0,
    iluk,
    ilum,
    ilut,
    parallel_ilut,
)
from repro.ilu.params import ILUTParams
from repro.solvers import (
    DiagonalPreconditioner,
    ILUPreconditioner,
    SweepPreconditioner,
    gmres,
)


@pytest.fixture(scope="module")
def system():
    A = poisson2d(18)
    b = A @ np.ones(A.shape[0])
    return A, b


def nmv(A, b, M):
    res = gmres(A, b, restart=20, tol=1e-8, M=M, maxiter=10000)
    assert res.converged
    return res.num_matvec


class TestPreconditionerOrdering:
    def test_ilu_family_beats_pointwise(self, system):
        A, b = system
        n_diag = nmv(A, b, DiagonalPreconditioner(A))
        n_sweep = nmv(A, b, SweepPreconditioner(A, method="sor", sweeps=2))
        n_ilu0 = nmv(A, b, ILUPreconditioner(ilu0(A)))
        assert n_ilu0 < n_diag
        assert n_sweep < n_diag

    def test_threshold_dropping_competitive_with_levels(self, system):
        A, b = system
        n_iluk = nmv(A, b, ILUPreconditioner(iluk(A, 2)))
        f_t = ilut(A, ILUTParams(fill=10, threshold=1e-4))
        n_ilut = nmv(A, b, ILUPreconditioner(f_t))
        # at comparable fill, ILUT should be at least as strong
        assert n_ilut <= n_iluk + 5

    def test_ilum_comparable_to_ilut(self, system):
        A, b = system
        n_ilut = nmv(A, b, ILUPreconditioner(ilut(A, ILUTParams(fill=10, threshold=1e-4))))
        n_ilum = nmv(A, b, ILUPreconditioner(ilum(A, 10, 1e-4)))
        assert n_ilum <= 3 * n_ilut

    def test_parallel_ilut_matches_sequential_quality(self, system):
        A, b = system
        n_seq = nmv(A, b, ILUPreconditioner(ilut(A, ILUTParams(fill=10, threshold=1e-4))))
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none")
        n_par = nmv(A, b, ILUPreconditioner(r.factors))
        # reordering changes the factorization but not its class
        assert n_par <= 3 * n_seq

    def test_block_jacobi_weakest_ilu(self, system):
        A, b = system
        p = 8
        d = decompose(A, p, seed=0)
        bj = block_jacobi_ilut(A, ILUTParams(fill=10, threshold=1e-4), p, decomp=d, transport="none")
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), p, decomp=d, seed=0, transport="none")
        n_bj = nmv(A, b, bj)
        n_full = nmv(A, b, ILUPreconditioner(r.factors))
        assert n_full < n_bj


class TestFactorizationCosts:
    def test_fill_ordering(self, system):
        A, _ = system
        nnz0 = ilu0(A).nnz
        nnz_k2 = iluk(A, 2).nnz
        nnz_tight = ilut(A, ILUTParams(fill=20, threshold=1e-6)).nnz
        assert nnz0 < nnz_k2 < nnz_tight

    def test_ilum_levels_bounded_by_matrix_size(self, system):
        A, _ = system
        f = ilum(A, 5, 1e-3)
        assert 1 <= f.levels.num_levels < A.shape[0]
