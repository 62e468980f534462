"""``use_backend`` is inert: every operation has one implementation."""

import numpy as np
import pytest

from repro import ILUTParams, poisson2d
from repro.decomp import decompose
from repro.ilu import ilut, parallel_ilut, parallel_triangular_solve
from repro.kernels import use_backend
from repro.solvers import parallel_matvec


def run_everything(A):
    d = decompose(A, 3, seed=0)
    x = np.linspace(-1.0, 1.0, A.shape[0])
    r = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 3, decomp=d, seed=0)
    sol = parallel_triangular_solve(r.factors, x)
    mv = parallel_matvec(A, d, x)
    f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
    return [
        r.factors.L.data, r.factors.U.data, sol.x, mv.y, f.L.data, f.U.data,
        A.matvec(x), A.row_norms(), np.array([r.modeled_time, sol.modeled_time, mv.modeled_time]),
    ]


@pytest.mark.parametrize("name", ["reference", "vectorized"])
def test_selects_nothing(name):
    A = poisson2d(10)
    outside = run_everything(A)
    with use_backend(name) as active:
        assert active == name
        inside = run_everything(A)
    assert all(np.array_equal(a, b) for a, b in zip(outside, inside, strict=True))


def test_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        with use_backend("simd"):
            pass
