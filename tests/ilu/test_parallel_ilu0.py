"""Unit tests for the colouring-based parallel ILU(0)."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu import ilu0, parallel_ilu0, parallel_ilut, parallel_triangular_solve
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d, random_diag_dominant


class TestCorrectness:
    def test_p1_matches_sequential(self, medium_poisson):
        r = parallel_ilu0(medium_poisson, 1, transport="none")
        f = ilu0(medium_poisson)
        assert r.factors.L.allclose(f.L)
        assert r.factors.U.allclose(f.U)

    def test_pattern_preserved(self, medium_poisson):
        r = parallel_ilu0(medium_poisson, 4, seed=0, transport="none")
        assert r.factors.nnz == medium_poisson.nnz

    def test_exact_on_pattern(self, small_poisson):
        r = parallel_ilu0(small_poisson, 4, seed=0, transport="none")
        perm = r.factors.perm
        Ap = small_poisson.permute(perm, perm)
        R = r.factors.residual_matrix(small_poisson)
        for i, cols, vals in R.iter_rows():
            pa, _ = Ap.row(i)
            on = np.isin(cols, pa)
            assert np.allclose(vals[on], 0.0, atol=1e-10)

    def test_exact_when_no_fill_possible_p1(self):
        # tridiagonal in natural order: ILU(0) == LU (note: only at p=1 —
        # the two-phase reordering reintroduces fill positions, which
        # ILU(0) then legitimately drops)
        from repro.sparse import COOBuilder

        n = 24
        b = COOBuilder(n)
        for i in range(n):
            b.add(i, i, 4.0)
            if i:
                b.add(i, i - 1, -1.0)
                b.add(i - 1, i, -1.0)
        A = b.to_csr()
        r = parallel_ilu0(A, 1, transport="none")
        assert r.factors.residual_matrix(A).frobenius_norm() < 1e-12

    def test_trisolve_compatible(self, medium_poisson, rng):
        r = parallel_ilu0(medium_poisson, 4, seed=0, transport="none")
        b = rng.standard_normal(256)
        out = parallel_triangular_solve(r.factors, b, transport="none")
        assert np.allclose(out.x, r.factors.solve(b))

    def test_simulation_invariance(self, medium_poisson):
        r1 = parallel_ilu0(medium_poisson, 4, seed=0, transport="simulator")
        r2 = parallel_ilu0(medium_poisson, 4, seed=0, transport="none")
        assert r1.factors.L.allclose(r2.factors.L, rtol=0, atol=0)

    def test_level_structure_valid(self, medium_poisson):
        r = parallel_ilu0(medium_poisson, 8, seed=0, transport="none")
        r.factors.levels.validate(256)

    def test_decomp_mismatch_rejected(self, small_poisson):
        d = decompose(small_poisson, 2, seed=0)
        with pytest.raises(ValueError):
            parallel_ilu0(small_poisson, 4, decomp=d)


class TestStaticVsDynamic:
    def test_far_fewer_levels_than_ilut(self, medium_poisson):
        """The paper's §3 point: ILU(0)'s level count is the chromatic
        number of the interface graph (tiny and static), while ILUT's
        grows with fill."""
        r0 = parallel_ilu0(medium_poisson, 8, seed=0, transport="none")
        rt = parallel_ilut(medium_poisson, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        assert r0.num_levels < rt.num_levels

    def test_levels_independent_of_values(self):
        """ILU(0) level sets are structural: scaling values changes
        nothing (unlike ILUT, whose sets depend on magnitudes)."""
        A = poisson2d(10)
        B = A.scale(123.0)
        ra = parallel_ilu0(A, 4, seed=0, transport="none")
        rb = parallel_ilu0(B, 4, seed=0, transport="none")
        assert ra.level_sizes == rb.level_sizes
        assert np.array_equal(ra.factors.perm, rb.factors.perm)

    def test_quality_below_tight_ilut(self, medium_poisson, rng):
        """ILU(0) is cheaper but weaker than a tight ILUT (paper §2)."""
        A = medium_poisson
        b = rng.standard_normal(256)
        y0 = parallel_ilu0(A, 4, seed=0, transport="none").factors.solve(b)
        yt = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), 4, seed=0, transport="none").factors.solve(b)
        r0 = np.linalg.norm(b - A @ y0)
        rt = np.linalg.norm(b - A @ yt)
        assert rt < r0


class TestRobustness:
    def test_zero_diag_guard(self):
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = parallel_ilu0(A, 1, transport="none")
        assert np.all(r.factors.U.diagonal() != 0.0)

    def test_unstructured(self):
        A = random_diag_dominant(60, 5, seed=2)
        r = parallel_ilu0(A, 4, seed=0, transport="none")
        r.factors.levels.validate(60)
