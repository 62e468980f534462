"""Unit tests for metrics and paper-style table rendering."""

import numpy as np
import pytest

from repro.analysis import (
    efficiency,
    factorization_label,
    fill_stats,
    format_series,
    format_table,
    mflops,
    preconditioned_residual_reduction,
    relative_speedups,
)
from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d


class TestMetrics:
    def test_fill_stats(self):
        A = poisson2d(8)
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        s = fill_stats(A, f)
        assert s["n"] == 64
        assert s["nnz_L"] == f.L.nnz
        assert s["fill_factor"] == pytest.approx(f.nnz / A.nnz)

    def test_relative_speedups(self):
        times = {16: 8.0, 32: 4.0, 64: 2.0}
        sp = relative_speedups(times)
        assert sp[16] == 1.0 and sp[32] == 2.0 and sp[64] == 4.0

    def test_relative_speedups_custom_base(self):
        sp = relative_speedups({16: 8.0, 32: 4.0}, base_p=32)
        assert sp[16] == 0.5

    def test_speedups_empty(self):
        assert relative_speedups({}) == {}

    def test_speedups_zero_base_rejected(self):
        with pytest.raises(ValueError):
            relative_speedups({16: 0.0})

    def test_efficiency(self):
        eff = efficiency({16: 8.0, 32: 4.0, 64: 2.5})
        assert eff[16] == 1.0
        assert eff[32] == pytest.approx(1.0)
        assert eff[64] == pytest.approx(8.0 / 2.5 * 16 / 64)

    def test_mflops(self):
        assert mflops(2e6, 1.0, 1) == 2.0
        assert mflops(2e6, 0.5, 2) == 2.0
        assert mflops(1, 0) == float("inf")

    def test_residual_reduction_probe(self, rng):
        A = poisson2d(10)
        f = ilut(A, ILUTParams(fill=10, threshold=1e-5))
        b = rng.standard_normal(100)
        r = preconditioned_residual_reduction(A, f, b)
        assert 0 <= r < 1


class TestReport:
    def test_labels(self):
        assert factorization_label("ILUT", 5, 1e-2) == "ILUT(5,1e-02)"
        assert factorization_label("ILUT*", 20, 1e-6, 2) == "ILUT*(20,1e-06,2)"

    def test_format_table_alignment(self):
        s = format_table(["name", "t"], [["a", 1.0], ["bbbb", 22.5]])
        lines = s.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_format_table_title(self):
        s = format_table(["x"], [[1.0]], title="Table 1")
        assert s.startswith("Table 1")

    def test_format_series(self):
        s = format_series("ILUT(5,1e-2)", [16, 32], [1.0, 1.9])
        assert "16→1.000" in s and "32→1.900" in s
