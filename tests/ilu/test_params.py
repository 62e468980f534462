"""ILUTParams validation and the one calling convention of the entry points."""

import dataclasses

import numpy as np
import pytest

from repro import ILUTParams, poisson2d, torso_like
from repro.decomp import decompose
from repro.ilu import ilut, parallel_ilut, parallel_ilut_partitioned, parallel_ilut_star
from repro.ilu.interface_partition import InterfacePartitionEngine


@pytest.fixture(scope="module")
def A():
    return poisson2d(8)


def factors_equal(fa, fb):
    return all(
        np.array_equal(x, y)
        for x, y in [
            (fa.L.data, fb.L.data),
            (fa.L.indices, fb.L.indices),
            (fa.U.data, fb.U.data),
            (fa.U.indices, fb.U.indices),
        ]
    )


class TestValidation:
    def test_negative_fill(self):
        with pytest.raises(ValueError, match="fill"):
            ILUTParams(fill=-1, threshold=1e-3)

    def test_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            ILUTParams(fill=5, threshold=-1e-3)

    def test_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            ILUTParams(fill=5, threshold=float("nan"))

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k must be"):
            ILUTParams(fill=5, threshold=1e-3, k=0)

    def test_frozen(self):
        p = ILUTParams(fill=5, threshold=1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.fill = 10

    def test_hashable_and_equal(self):
        a = ILUTParams(fill=5, threshold=1e-3, k=2)
        b = ILUTParams(fill=5, threshold=1e-3, k=2)
        assert a == b and hash(a) == hash(b)

    def test_reduced_cap(self):
        assert ILUTParams(fill=5, threshold=0.0).reduced_cap is None
        assert ILUTParams(fill=5, threshold=0.0, k=3).reduced_cap == 15

    def test_describe(self):
        assert ILUTParams(fill=5, threshold=1e-4).describe() == "ILUT(m=5, t=0.0001)"
        assert (
            ILUTParams(fill=5, threshold=1e-4, k=2).describe()
            == "ILUT*(m=5, t=0.0001, k=2)"
        )


class TestCallingConventionErrors:
    """The bare ``m, t[, k]`` forms are gone: one way to pass parameters."""

    def test_params_plus_legacy_conflict(self, A):
        with pytest.raises(TypeError, match="unexpected keyword argument 'm'"):
            ilut(A, ILUTParams(fill=5, threshold=1e-3), m=5)

    def test_ilut_missing_arguments(self, A):
        with pytest.raises(TypeError, match="'params'"):
            ilut(A)

    def test_multiple_values_for_m(self, A):
        with pytest.raises(TypeError):
            ilut(A, 5, 1e-3, m=5)

    def test_parallel_missing_nranks(self, A):
        with pytest.raises(TypeError, match="'nranks'"):
            parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3))

    def test_parallel_multiple_nranks(self, A):
        with pytest.raises(TypeError, match="multiple values for argument 'nranks'"):
            parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, nranks=4)

    def test_parallel_multiple_t(self, A):
        with pytest.raises(TypeError):
            parallel_ilut(A, 5, 1e-3, 4, t=1e-3)

    def test_star_requires_k(self, A):
        with pytest.raises(ValueError, match="requires ILUTParams with k set"):
            parallel_ilut_star(A, ILUTParams(fill=5, threshold=1e-3), 4)

    def test_star_new_style_rejects_extra_positionals(self, A):
        with pytest.raises(TypeError, match="positional"):
            parallel_ilut_star(A, ILUTParams(fill=5, threshold=1e-3, k=2), 4, 2)

    def test_star_duplicate_legacy(self, A):
        with pytest.raises(TypeError):
            parallel_ilut_star(A, 5, 1e-3, 2, 4, k=2)


class TestParamsKIsHonoured:
    """``params.k`` is the one ILUT* switch: every entry point reads the
    3rd rule's cap ``k * fill`` from it."""

    STAR = ILUTParams(fill=5, threshold=1e-3, k=1)

    @pytest.fixture(scope="class")
    def B(self):
        return torso_like(150, seed=0)

    @pytest.mark.parametrize("transport", ["simulator", "threads", "processes", "none"])
    def test_parallel_ilut_is_parallel_ilut_star(self, B, transport):
        got = parallel_ilut(B, self.STAR, 4, seed=0, transport=transport)
        want = parallel_ilut_star(B, self.STAR, 4, seed=0, transport=transport)
        plain = parallel_ilut(B, dataclasses.replace(self.STAR, k=None), 4, seed=0,
                              transport="none")
        assert not factors_equal(plain.factors, want.factors), "k changes nothing: vacuous"
        assert factors_equal(got.factors, want.factors)
        assert np.array_equal(got.factors.perm, want.factors.perm)
        assert (got.num_levels, got.level_sizes) == (want.num_levels, want.level_sizes)
        assert (got.modeled_time, got.comm) == (want.modeled_time, want.comm)
        assert (got.flops, got.words_copied) == (want.flops, want.words_copied)

    def test_parallel_ilut_partitioned_reads_k(self, B):
        decomp = decompose(B, 4, seed=0)
        got = parallel_ilut_partitioned(B, self.STAR, 4, decomp=decomp, seed=0,
                                        transport="none")
        want = InterfacePartitionEngine(
            decomp, self.STAR.fill, self.STAR.threshold,
            reduced_cap=self.STAR.k * self.STAR.fill, seed=0,
        ).run()
        plain = InterfacePartitionEngine(decomp, self.STAR.fill, self.STAR.threshold,
                                         seed=0).run()
        assert not factors_equal(plain.factors, want.factors), "k changes nothing: vacuous"
        assert factors_equal(got.factors, want.factors)
        assert np.array_equal(got.factors.perm, want.factors.perm)
        assert (got.num_levels, got.level_sizes) == (want.num_levels, want.level_sizes)


class TestInternalCallersAreMigrated:
    """High-level entry points drive the ILUT family through ILUTParams."""

    def test_block_jacobi(self, A):
        from repro.ilu.block_jacobi import block_jacobi_ilut

        bj = block_jacobi_ilut(A, ILUTParams(fill=5, threshold=1e-3), 2, transport="none")
        assert bj.apply(np.ones(A.shape[0])).shape == (A.shape[0],)

    def test_cli_factor(self, capsys):
        from repro.cli import main

        assert main(["factor", "g0:8", "-p", "2", "-m", "3"]) == 0
        assert "ILUT(3," in capsys.readouterr().out
