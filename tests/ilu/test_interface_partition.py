"""Unit tests for the §7 partition-based interface factorization."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.faults import FaultPlan, MessageFault, RankFault
from repro.ilu import (
    InterfacePartitionEngine,
    parallel_ilut,
    parallel_ilut_partitioned,
    parallel_triangular_solve,
)
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d, random_diag_dominant, torso_like


class TestCorrectness:
    def test_no_dropping_exact(self, small_diagdom):
        n = small_diagdom.shape[0]
        r = parallel_ilut_partitioned(small_diagdom, ILUTParams(fill=n, threshold=0.0), 4, seed=0, transport="none")
        R = r.factors.residual_matrix(small_diagdom)
        assert R.frobenius_norm() < 1e-9 * small_diagdom.frobenius_norm()

    def test_factors_triangular(self):
        r = parallel_ilut_partitioned(poisson2d(12), ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        L, U = r.factors.L, r.factors.U
        for i in range(L.shape[0]):
            lc, _ = L.row(i)
            uc, _ = U.row(i)
            assert lc.size == 0 or lc.max() < i
            assert uc.size > 0 and uc[0] == i

    def test_level_structure_valid(self):
        r = parallel_ilut_partitioned(poisson2d(10), ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        r.factors.levels.validate(100)

    def test_trisolve_matches_sequential(self, rng):
        A = poisson2d(12)
        r = parallel_ilut_partitioned(A, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        b = rng.standard_normal(144)
        out = parallel_triangular_solve(r.factors, b, transport="none")
        assert np.allclose(out.x, r.factors.solve(b))

    def test_preconditioner_quality(self, rng):
        A = poisson2d(16)
        b = rng.standard_normal(256)
        r = parallel_ilut_partitioned(A, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none")
        y = r.factors.solve(b)
        assert np.linalg.norm(b - A @ y) < 0.5 * np.linalg.norm(b)

    def test_unexpected_kwargs_rejected(self, small_poisson):
        with pytest.raises(TypeError):
            parallel_ilut_partitioned(small_poisson, ILUTParams(fill=5, threshold=1e-3), 2, bogus=1)


class TestFewerLevels:
    def test_fewer_sync_levels_than_mis(self):
        """§7's point: one level per recursion round, not per MIS."""
        A = poisson2d(16)
        r_mis = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        r_par = parallel_ilut_partitioned(A, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        assert r_par.num_levels < r_mis.num_levels

    def test_star_cap_supported(self):
        A = poisson2d(12)
        r = parallel_ilut_partitioned(
            A, ILUTParams(fill=10, threshold=1e-6), 4, reduced_cap=20, seed=0, transport="none"
        )
        r.factors.levels.validate(144)

    def test_sequential_tail_cutoff(self):
        # tiny interface: goes straight to the sequential tail
        A = random_diag_dominant(30, 3, seed=4)
        r = parallel_ilut_partitioned(A, ILUTParams(fill=30, threshold=0.0), 2, seed=0, transport="none")
        assert r.num_levels >= 0  # terminates
        r.factors.levels.validate(30)


class TestSharedDriverLoop:
    """The §7 engine runs the MIS engine's driver loop, so it checkpoints,
    recovers and reports per level exactly as ``parallel_ilut`` does."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=3)]),
            # one message lost past every retransmit: MessageLost escalates
            FaultPlan(message_faults=[MessageFault("drop", src=2, dst=1, tag="ipart", count=4)]),
        ],
        ids=["rank-crash", "message-lost"],
    )
    def test_fault_plan_recovers_to_bit_identical_factors(self, plan):
        A, params = torso_like(140, seed=1), ILUTParams(fill=5, threshold=1e-3)
        clean = parallel_ilut_partitioned(A, params, 3, seed=0)
        hurt = parallel_ilut_partitioned(A, params, 3, seed=0, faults=plan)
        assert hurt.recoveries == 1 and clean.recoveries == 0
        assert "restore=1" in hurt.fault_journal.summary()
        for name in ("L", "U"):
            a, b = getattr(clean.factors, name), getattr(hurt.factors, name)
            assert (a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes()) == (
                b.indptr.tobytes(), b.indices.tobytes(), b.data.tobytes()
            )
        assert clean.factors.perm.tobytes() == hurt.factors.perm.tobytes()
        assert (clean.level_sizes, clean.flops) == (hurt.level_sizes, hurt.flops)

    def test_level_hook_fires_once_per_round(self):
        A = poisson2d(14)
        calls = []
        engine = InterfacePartitionEngine(
            decompose(A, 4, seed=0), 5, 1e-3,
            level_hook=lambda level, rows, reduced: calls.append((level, rows.size, len(reduced))),
        )
        outcome = engine.run()
        assert [c[0] for c in calls] == [-1, *range(outcome.num_levels)]
        assert [c[1] for c in calls[1:]] == outcome.level_sizes
        # what is left after each round is what the later rounds factor
        assert [c[2] for c in calls] == [
            sum(outcome.level_sizes[k:]) for k in range(outcome.num_levels + 1)
        ]
