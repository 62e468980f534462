"""Structural invariant checker tests."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.graph import Graph, adjacency_from_matrix, two_step_luby_mis
from repro.ilu import parallel_ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d
from repro.sparse import CSRMatrix
from repro.verify import (
    InvariantViolation,
    check_csr,
    check_decomposition,
    check_independent_set,
    check_lu_factors,
    check_reduced_rows,
    require,
)


@pytest.fixture(scope="module")
def g0_result():
    return parallel_ilut(poisson2d(10), ILUTParams(fill=5, threshold=1e-4), 4, transport="none")


class TestCheckCSR:
    def test_healthy(self):
        assert check_csr(poisson2d(6)) == []

    def test_out_of_range_column_names_row_and_offset(self):
        A = poisson2d(4)
        A.indices[A.indptr[3]] = 99
        msgs = check_csr(A)
        assert any("row 3, offset 0" in m and "out of range" in m for m in msgs)

    def test_unsorted_and_duplicate_distinguished(self):
        A = CSRMatrix.from_coo([0, 0, 0], [0, 2, 4], np.ones(3), (1, 5))
        A.indices[:] = [2, 0, 4]
        assert any("unsorted" in m for m in check_csr(A))
        A.indices[:] = [0, 0, 4]
        assert any("duplicate" in m for m in check_csr(A))

    def test_non_finite_value(self):
        A = poisson2d(4)
        A.data[5] = np.nan
        assert any("non-finite" in m for m in check_csr(A))

    def test_broken_indptr(self):
        A = poisson2d(4)
        B = CSRMatrix(A.indptr.copy(), A.indices, A.data, A.shape, check=False)
        B.indptr[2] = B.indptr[3] + 1  # decreasing
        assert any("decreases" in m for m in check_csr(B))


class TestCheckLUFactors:
    def test_healthy_parallel_factors(self, g0_result):
        assert check_lu_factors(g0_result.factors, m=5) == []

    def test_zeroed_diagonal_flagged(self, g0_result):
        f = g0_result.factors
        U = f.U.copy()
        U.data[U.indptr[7]] = 0.0
        broken = type(f)(L=f.L, U=U, perm=f.perm, levels=f.levels)
        msgs = check_lu_factors(broken)
        assert any("singular" in m and "row 7" in m for m in msgs)

    def test_fill_bound_violation_flagged(self, g0_result):
        # m=0 is stricter than the factorization used -> must trip
        msgs = check_lu_factors(g0_result.factors, m=0)
        assert any("dropping rule" in m for m in msgs)

    def test_perm_bijection_checked(self, g0_result):
        f = g0_result.factors
        perm = f.perm.copy()
        perm[0] = perm[1]
        broken = type(f)(L=f.L, U=U_copy(f), perm=perm, levels=None)
        assert any("bijection" in m for m in check_lu_factors(broken))

    def test_level_independence_checked(self, g0_result):
        f = g0_result.factors
        levels = f.levels
        assert levels is not None and levels.num_levels >= 1
        # corrupt U: make the first interface-level row reference another
        # row of its own level (violates the MIS independence)
        lvl = next(lv for lv in levels.interface_levels if lv.size >= 2)
        p, q = int(lvl[0]), int(lvl[1])
        U = f.U.copy()
        s = int(U.indptr[p])
        if U.indptr[p + 1] - s >= 2:
            U.indices[s + 1] = q
            U.indices[s + 1 : int(U.indptr[p + 1])].sort()
            broken = type(f)(L=f.L, U=U, perm=f.perm, levels=levels)
            msgs = check_lu_factors(broken)
            assert any("not independent" in m for m in msgs)

    def test_require_raises(self):
        with pytest.raises(InvariantViolation, match="ctx"):
            require(["boom"], context="ctx")
        require([], context="ctx")  # no violations -> no raise


def U_copy(f):
    return f.U.copy()


class TestCheckReducedRows:
    def test_healthy(self):
        reduced = {
            3: (np.array([3, 7]), np.array([2.0, 0.5])),
            7: (np.array([3, 7]), np.array([0.5, 2.0])),
        }
        assert check_reduced_rows(reduced, cap=2) == []

    def test_cap_violation(self):
        reduced = {
            1: (np.array([1, 2, 5]), np.ones(3)),
            2: (np.array([1, 2]), np.ones(2)),
            5: (np.array([5]), np.ones(1)),
        }
        msgs = check_reduced_rows(reduced, cap=2)
        assert any("3rd dropping rule" in m for m in msgs)
        assert check_reduced_rows(reduced, cap=3) == []

    def test_missing_diagonal(self):
        msgs = check_reduced_rows({4: (np.array([5]), np.ones(1)), 5: (np.array([5]), np.ones(1))})
        assert any("diagonal" in m for m in msgs)

    def test_stray_column(self):
        msgs = check_reduced_rows({4: (np.array([4, 9]), np.ones(2))})
        assert any("factored/foreign" in m for m in msgs)

    def test_unsorted(self):
        msgs = check_reduced_rows(
            {4: (np.array([7, 4]), np.ones(2)), 7: (np.array([7]), np.ones(1))}
        )
        assert any("increasing" in m for m in msgs)


class TestCheckIndependentSet:
    def test_real_mis_passes(self):
        g = adjacency_from_matrix(poisson2d(8), symmetric=True)
        iset = two_step_luby_mis(g, seed=0)
        assert check_independent_set(g, iset) == []

    def test_adjacent_pair_flagged(self):
        g = Graph(np.array([0, 1, 2]), np.array([1, 0]))
        msgs = check_independent_set(g, np.array([0, 1]))
        assert any("adjacent" in m for m in msgs)

    def test_out_of_range_vertex(self):
        g = Graph(np.array([0, 1, 2]), np.array([1, 0]))
        assert any("range" in m for m in check_independent_set(g, np.array([5])))


class TestCheckDecomposition:
    def test_healthy(self):
        d = decompose(poisson2d(10), 4)
        assert check_decomposition(d) == []

    def test_misclassified_interior_flagged(self):
        d = decompose(poisson2d(10), 4)
        flipped = d.is_interface.copy()
        v = int(np.flatnonzero(flipped)[0])
        flipped[v] = False  # interface row claimed interior
        broken = type(d)(
            A=d.A, nranks=d.nranks, part=d.part, is_interface=flipped, graph=d.graph
        )
        msgs = check_decomposition(broken)
        assert any(f"row {v}" in m and "interior" in m for m in msgs)

    def test_single_rank_has_no_interface(self):
        d = decompose(poisson2d(6), 1)
        assert check_decomposition(d) == []
