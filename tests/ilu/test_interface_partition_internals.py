"""Internals of the §7 interface-partitioning engine."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu.interface_partition import InterfacePartitionEngine
from repro.matrices import poisson2d, random_diag_dominant


class TestSplitInterface:
    def _engine(self, A, p=4, **kw):
        d = decompose(A, p, seed=0)
        return InterfacePartitionEngine(d, 5, 1e-3, **kw)

    def test_internal_nodes_have_no_cross_domain_reduced_edges(self):
        A = poisson2d(12)
        engine = self._engine(A)
        engine._run_phase1()  # populates the reduced rows
        remaining = engine.remaining
        domains = engine._split_interface(remaining)
        dom_of = {}
        for k, dom in enumerate(domains):
            for v in dom:
                dom_of[int(v)] = k
        all_internal = set(dom_of)
        for v in all_internal:
            cols, _ = engine.reduced[v]
            for c in cols:
                c = int(c)
                if c != v and c in all_internal:
                    assert dom_of[c] == dom_of[v]

    def test_domains_disjoint(self):
        A = poisson2d(12)
        engine = self._engine(A)
        engine._run_phase1()
        domains = engine._split_interface(engine.remaining)
        seen: set[int] = set()
        for dom in domains:
            ds = set(int(v) for v in dom)
            assert not (ds & seen)
            seen |= ds


class TestTermination:
    def test_sequential_cutoff_path(self):
        # tiny interface → single sequential round
        A = random_diag_dominant(20, 3, seed=1)
        d = decompose(A, 2, seed=0)
        engine = InterfacePartitionEngine(d, 20, 0.0)
        outcome = engine.run()
        assert outcome.num_levels >= 1
        outcome.factors.levels.validate(20)

    def test_max_levels_guard(self):
        A = random_diag_dominant(40, 6, seed=0)
        d = decompose(A, 4, seed=0)
        engine = InterfacePartitionEngine(d, 40, 0.0, max_levels=0)
        if d.n_interface > 0:
            with pytest.raises(RuntimeError):
                engine.run()

    def test_each_round_factors_at_least_one_row(self):
        A = poisson2d(14)
        d = decompose(A, 4, seed=0)
        engine = InterfacePartitionEngine(d, 10, 1e-4)
        outcome = engine.run()
        assert all(s >= 1 for s in outcome.level_sizes)
        assert sum(outcome.level_sizes) == d.n_interface
