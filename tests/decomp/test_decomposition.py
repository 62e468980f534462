"""Unit tests for the domain decomposition layer."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.matrices import poisson2d, random_geometric_laplacian, torso_like


class TestClassification:
    def test_interior_plus_interface_cover_all(self):
        d = decompose(poisson2d(12), 4, seed=0)
        total = sum(d.interior_rows(r).size for r in range(4)) + d.n_interface
        assert total == 144

    def test_interior_rows_have_local_neighbors_only(self):
        A = poisson2d(12)
        d = decompose(A, 4, seed=0)
        for r in range(4):
            for i in d.interior_rows(r):
                nbrs = d.graph.neighbors(int(i))
                assert np.all(d.part[nbrs] == r)

    def test_interface_rows_have_remote_neighbor(self):
        A = poisson2d(12)
        d = decompose(A, 4, seed=0)
        for i in d.all_interface:
            nbrs = d.graph.neighbors(int(i))
            assert np.any(d.part[nbrs] != d.part[i])

    def test_single_rank_no_interface(self):
        d = decompose(poisson2d(8), 1)
        assert d.n_interface == 0
        assert d.interface_fraction() == 0.0

    def test_interface_fraction_grows_with_ranks(self):
        A = poisson2d(16)
        f4 = decompose(A, 4, seed=0).interface_fraction()
        f16 = decompose(A, 16, seed=0).interface_fraction()
        assert f16 > f4

    def test_multilevel_beats_random_on_interface_count(self):
        A = poisson2d(16)
        good = decompose(A, 8, method="multilevel", seed=0)
        bad = decompose(A, 8, method="random", seed=0)
        assert good.n_interface < 0.6 * bad.n_interface

    def test_owned_rows_partition(self):
        d = decompose(poisson2d(10), 5, seed=0)
        allr = np.concatenate([d.owned_rows(r) for r in range(5)])
        assert sorted(allr.tolist()) == list(range(100))


class TestMethods:
    def test_block_method(self):
        d = decompose(poisson2d(8), 4, method="block")
        assert np.all(np.diff(d.part) >= 0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            decompose(poisson2d(4), 2, method="magic")

    def test_nonsquare_rejected(self):
        from repro.sparse import CSRMatrix

        with pytest.raises(ValueError):
            decompose(CSRMatrix.zeros(3, 4), 2)

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            decompose(poisson2d(2), 5)

    def test_nonpositive_ranks_rejected(self):
        with pytest.raises(ValueError):
            decompose(poisson2d(4), 0)


class TestHaloPlan:
    def test_plan_covers_every_cross_edge(self):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        plan = d.halo_plan()
        n = A.shape[0]
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        for i, j in zip(rows, A.indices):
            ri, rj = int(d.part[i]), int(d.part[j])
            if ri != rj:
                assert j in plan[(rj, ri)]

    def test_plan_nodes_owned_by_src(self):
        d = decompose(poisson2d(10), 4, seed=0)
        for (src, _dst), nodes in d.halo_plan().items():
            assert np.all(d.part[nodes] == src)

    def test_no_plan_for_single_rank(self):
        d = decompose(poisson2d(6), 1)
        assert d.halo_plan() == {}

    def test_boundary_nodes_are_interface(self):
        d = decompose(poisson2d(10), 4, seed=0)
        for r in range(4):
            bn = d.boundary_nodes(r)
            assert np.all(d.is_interface[bn])

    def test_plan_deterministic(self):
        A = random_geometric_laplacian(60, seed=1)
        d = decompose(A, 3, seed=5)
        p1, p2 = d.halo_plan(), d.halo_plan()
        assert p1.keys() == p2.keys()
        for k in p1:
            assert np.array_equal(p1[k], p2[k])


class TestSummary:
    def test_summary_string(self):
        d = decompose(poisson2d(8), 2, seed=0)
        s = d.summary()
        assert "p=2" in s and "interface=" in s

    def test_unstructured(self):
        A = torso_like(250, seed=0)
        d = decompose(A, 4, seed=0)
        assert 0 < d.n_interface < A.shape[0]


class TestDriversCheckTheDecomposition:
    """Every parallel driver that takes ``decomp=`` checks its rank count
    before doing any work (``decomposition_for``)."""

    @pytest.mark.parametrize(
        "driver",
        ["parallel_ilut", "parallel_ilut_partitioned", "parallel_ilu0", "block_jacobi_ilut"],
    )
    def test_rank_mismatch_raises_before_any_work(self, driver, monkeypatch):
        from repro import ilu
        from repro.ilu import ILUTParams
        from repro.machine import Simulator

        def no_region(*_args, **_kwargs):
            raise AssertionError("a region ran before the decomposition was checked")

        monkeypatch.setattr(Simulator, "pardo", no_region)
        monkeypatch.setattr(Simulator, "compute", no_region)
        A = poisson2d(8)
        d = decompose(A, 2, seed=0)
        fn = getattr(ilu, driver)
        args = (A, 3) if driver == "parallel_ilu0" else (A, ILUTParams(fill=5, threshold=1e-3), 3)
        with pytest.raises(ValueError, match="decomp has 2 ranks but nranks=3"):
            fn(*args, decomp=d)

    def test_a_matching_decomposition_is_used_as_given(self):
        from repro.decomp import decomposition_for

        A = poisson2d(8)
        d = decompose(A, 2, seed=0)
        assert decomposition_for(A, 2, d) is d
        fresh = decomposition_for(A, 2, None, method="block")
        assert np.array_equal(fresh.part, decompose(A, 2, method="block").part)
