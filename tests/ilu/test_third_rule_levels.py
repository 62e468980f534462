"""3rd dropping rule (paper §4.2): reduced rows never exceed k*m entries.

The rule must hold at *every* ILUT* level, not just in the final
factors — a reduced row that transiently blows past k*m would destroy
the sparsity/level-count argument of §4.2.  ``EliminationEngine``'s
``level_hook`` exposes a mapping view of the live reduced-row store
after phase 1 and after every phase-2 update, which is exactly where we
assert the cap.
"""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu.elimination import EliminationEngine
from repro.matrices import convection_diffusion2d, poisson2d
from repro.verify import check_reduced_rows


def _run_with_hook(A, m, t, k, nranks, seed=0):
    """Factor and return [(level, reduced-row lengths dict snapshot)]."""
    decomp = decompose(A, nranks, seed=seed)
    snapshots = []
    cap = k * m if k is not None else None

    def hook(level, iset, reduced):
        lengths = {i: int(c.size) for i, (c, _) in reduced.items()}
        assert list(lengths) == sorted(lengths)  # the view iterates in row order
        snapshots.append((level, lengths))
        # the composable checker must agree at every level
        assert check_reduced_rows(reduced, cap=cap) == []

    engine = EliminationEngine(
        decomp, m, t, reduced_cap=cap, seed=seed, level_hook=hook
    )
    outcome = engine.run()
    return snapshots, outcome


class TestThirdDroppingRule:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cap_holds_at_every_level(self, k):
        m = 4
        snapshots, outcome = _run_with_hook(poisson2d(12), m, 1e-4, k, 4)
        assert len(snapshots) >= 2  # phase 1 + at least one level
        assert snapshots[0][0] == -1
        for level, lengths in snapshots:
            for i, nnz in lengths.items():
                assert nnz <= k * m, (
                    f"level {level}: reduced row {i} has {nnz} > k*m = {k * m}"
                )

    def test_k1_is_the_tightest_cap(self):
        # k = 1: every reduced row capped at m itself
        m = 3
        snapshots, _ = _run_with_hook(poisson2d(10), m, 1e-4, 1, 4)
        assert all(
            nnz <= m for _, lengths in snapshots for nnz in lengths.values()
        )

    def test_rows_shorter_than_m_unaffected(self):
        # with a huge m the cap never binds: plain ILUT and ILUT* agree
        m = 50
        s1, o1 = _run_with_hook(poisson2d(8), m, 1e-4, None, 4)
        s2, o2 = _run_with_hook(poisson2d(8), m, 1e-4, 2, 4)
        assert [lv for lv, _ in s1] == [lv for lv, _ in s2]
        for (_, a), (_, b) in zip(s1, s2):
            assert a == b
        assert np.array_equal(o1.factors.U.indices, o2.factors.U.indices)
        assert np.allclose(o1.factors.U.data, o2.factors.U.data)

    def test_uncapped_ilut_can_exceed_km(self):
        # sanity: the cap is doing real work — on a nonsymmetric stencil
        # with small m, plain ILUT grows some reduced row beyond k*m
        m, k = 2, 1
        snapshots, _ = _run_with_hook(convection_diffusion2d(14), m, 1e-6, None, 6)
        peak = max(
            (nnz for _, lengths in snapshots for nnz in lengths.values()),
            default=0,
        )
        assert peak > k * m

    def test_phase1_snapshot_already_capped(self):
        # the interface reduction (phase 1) applies the rule too, before
        # any level is eliminated
        m, k = 3, 2
        snapshots, _ = _run_with_hook(poisson2d(12), m, 1e-4, k, 4)
        level, lengths = snapshots[0]
        assert level == -1 and lengths  # interface rows exist
        assert all(nnz <= k * m for nnz in lengths.values())

    def test_final_factors_respect_fill_bounds(self):
        m, k = 4, 2
        _, outcome = _run_with_hook(poisson2d(12), m, 1e-4, k, 4)
        U = outcome.factors.U
        for i in range(U.shape[0]):
            assert U.indptr[i + 1] - U.indptr[i] <= m + 1  # diag + m
