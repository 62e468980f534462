"""Unit tests for EliminationEngine internals."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu import ILUTParams, ilum, parallel_ilut
from repro.ilu.elimination import EliminationEngine
from repro.machine import CRAY_T3D, Simulator
from repro.matrices import poisson2d, random_diag_dominant

from ._accumulator import merge_rows as _merge_rows
from ._rows import flat_of


class TestMergeRows:
    """The sum-merge the L-row oracles use (ILUM's, before it ran on the
    row kernel's ``l_row``)."""

    def test_disjoint(self):
        c, v = _merge_rows(
            np.array([1, 3]), np.array([1.0, 3.0]),
            np.array([2, 5]), np.array([2.0, 5.0]),
        )
        assert c.tolist() == [1, 2, 3, 5]
        assert v.tolist() == [1.0, 2.0, 3.0, 5.0]

    def test_overlap_sums(self):
        c, v = _merge_rows(
            np.array([1, 3]), np.array([1.0, 3.0]),
            np.array([3, 4]), np.array([10.0, 4.0]),
        )
        assert c.tolist() == [1, 3, 4]
        assert v.tolist() == [1.0, 13.0, 4.0]

    def test_empty_sides(self):
        e_c = np.empty(0, dtype=np.int64)
        e_v = np.empty(0)
        c, v = _merge_rows(e_c, e_v, np.array([2]), np.array([2.0]))
        assert c.tolist() == [2]
        c, v = _merge_rows(np.array([1]), np.array([1.0]), e_c, e_v)
        assert c.tolist() == [1]
        c, v = _merge_rows(e_c, e_v, e_c, e_v)
        assert c.size == 0

    def test_inputs_not_mutated(self):
        c1 = np.array([1])
        v1 = np.array([1.0])
        c, v = _merge_rows(c1, v1, np.array([1]), np.array([2.0]))
        assert v1[0] == 1.0


class TestEngineValidation:
    def _engine(self, **kw):
        A = poisson2d(8)
        d = decompose(A, 2, seed=0)
        return EliminationEngine(d, 5, 1e-3, **kw)

    def test_invalid_params(self):
        A = poisson2d(8)
        d = decompose(A, 2, seed=0)
        with pytest.raises(ValueError):
            EliminationEngine(d, -1, 1e-3)
        with pytest.raises(ValueError):
            EliminationEngine(d, 5, -1e-3)
        with pytest.raises(ValueError):
            EliminationEngine(d, 5, 1e-3, reduced_cap=0)

    def test_max_levels_guard(self):
        A = random_diag_dominant(30, 6, seed=0)
        d = decompose(A, 4, seed=0)
        engine = EliminationEngine(d, 30, 0.0, max_levels=1)
        with pytest.raises(RuntimeError, match="did not terminate"):
            engine.run()

    def test_counters_populated(self):
        engine = self._engine()
        outcome = engine.run()
        assert outcome.flops > 0
        assert outcome.words_copied > 0
        assert outcome.num_levels == len(outcome.level_sizes)

    def test_u_rows_communicated_with_sim(self):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        sim = Simulator(4, CRAY_T3D)
        outcome = EliminationEngine(d, 5, 1e-3, sim=sim).run()
        assert outcome.u_rows_communicated > 0
        # every posted message was consumed
        assert sim.pending_messages() == 0

    def test_mis_rounds_below_one_is_refused(self):
        # zero rounds pick no independent set: refused with m, t and
        # reduced_cap, not after phase 1 as an empty-set RuntimeError
        A = poisson2d(6)
        d = decompose(A, 2, seed=0)
        for rounds in (0, -1):
            with pytest.raises(ValueError, match="mis_rounds must be >= 1"):
                EliminationEngine(d, 5, 1e-3, mis_rounds=rounds, max_levels=50)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_drivers_refuse_mis_rounds_below_one_before_any_work(self, rounds):
        A = poisson2d(8)
        sim = Simulator(2, CRAY_T3D)
        with pytest.raises(ValueError, match="mis_rounds must be >= 1"):
            parallel_ilut(A, ILUTParams(5, 1e-3), 2, transport=sim, mis_rounds=rounds)
        assert sim.elapsed() == 0.0 and sim.stats().total_flops == 0.0
        with pytest.raises(ValueError, match="mis_rounds must be >= 1"):
            ilum(A, 5, 1e-3, mis_rounds=rounds)


class TestEngineSemantics:
    def test_l_rows_only_factored_columns(self):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        engine = EliminationEngine(d, 5, 1e-3)
        outcome = engine.run()
        pos = engine.pos
        for i, (lc, _lv) in engine.l_rows.items():
            for c in lc:
                assert pos[c] < pos[i], f"L[{i}] references later column {c}"

    def test_u_rows_diag_first(self):
        A = poisson2d(8)
        d = decompose(A, 2, seed=0)
        engine = EliminationEngine(d, 5, 1e-3)
        engine.run()
        for i, (uc, uv) in engine.u_rows.items():
            assert uc[0] == i
            assert uv[0] != 0.0

    def test_reduced_rows_consumed(self):
        A = poisson2d(8)
        d = decompose(A, 4, seed=0)
        engine = EliminationEngine(d, 5, 1e-3)
        engine.run()
        assert engine.reduced == {} and engine.remaining.size == 0

    def test_reduced_structure_is_the_off_diagonal_pattern(self):
        A = poisson2d(8)
        engine = EliminationEngine(decompose(A, 4, seed=0), 5, 1e-3)
        engine._run_phase1()
        remaining = engine.remaining
        assert remaining.tolist() == list(engine.reduced)  # the maintained sorted array
        src, dst = engine._reduced_structure(remaining)
        want = [
            (int(g), int(c))
            for g in remaining
            for c in engine.reduced[int(g)][0]
            if c != g
        ]
        assert list(zip(remaining[src].tolist(), remaining[dst].tolist())) == want

    @pytest.mark.parametrize("stray", [-1, 0, 10**6])
    def test_reduced_column_outside_the_remaining_nodes_raises(self, stray):
        A = poisson2d(8)
        d = decompose(A, 4, seed=0)
        engine = EliminationEngine(d, 5, 1e-3)
        engine._run_phase1()
        remaining = engine.remaining
        if stray == 0:  # an interior (already factored) node between remaining ones
            stray = int(np.setdiff1d(np.arange(remaining[0], remaining[-1]), remaining)[0])
        g = int(remaining[3])
        cols, vals = engine.reduced[g]
        engine.reduced.put(np.array([g]), flat_of([(np.append(cols, stray), np.append(vals, 1.0))]))
        with pytest.raises(KeyError, match=str(stray)):
            engine._mis_of_reduced(remaining, 0)

    def test_reduced_cap_bounds_rows_during_run(self):
        """ILUT*'s invariant: no reduced row ever exceeds the cap."""
        seen: list[int] = []

        def hook(level, _iset, reduced):
            with pytest.raises(TypeError):  # a read-only view of the store
                reduced[0] = ()
            if level >= 0:  # after a phase-2 update (phase 1 reports as -1)
                seen.extend(cols.size for cols, _ in reduced.values())

        A = poisson2d(12)
        d = decompose(A, 4, seed=0)
        cap = 6
        engine = EliminationEngine(d, 3, 1e-8, reduced_cap=cap, level_hook=hook)
        engine.run()
        # the hook fired on non-empty reduced matrices and the cap was reached
        assert seen and max(seen) == cap
