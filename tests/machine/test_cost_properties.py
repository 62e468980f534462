"""Property suite: closed-form cost models vs runtime counters.

``test_cost_model.py`` checks the closed forms on one seeded Poisson
instance; this suite replays them on *random* CSR matrices across rank
counts 1–4, and checks the numeric result against the transport-free
path.  The structural parameters (``nnz``, halo sizes, consumer sets)
are recomputed from the raw arrays, then each closed form must equal
the simulator's recorded total exactly — no tolerance, the models are
exact counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .test_cost_model import assert_closed_forms, matvec_model, triangular_model

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@st.composite
def instances(draw, max_n=16):
    """(nranks, A): a random diagonally dominant CSR matrix with a
    symmetric pattern, plus a rank count it can be decomposed over."""
    nranks = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=max(4, 2 * nranks), max_value=max_n))
    nnz = draw(st.integers(min_value=0, max_value=3 * n))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    from repro.sparse import CSRMatrix

    r = np.array(rows + cols + list(range(n)), dtype=np.int64)
    c = np.array(cols + rows + list(range(n)), dtype=np.int64)
    v = np.concatenate([np.array(vals + vals, dtype=np.float64), np.full(n, 8.0)])
    return nranks, CSRMatrix.from_coo(r, c, v, (n, n))


class TestMatvecCostModel:
    @settings(max_examples=25, deadline=None)
    @given(instances())
    def test_closed_forms_hold_on_random_instances(self, data):
        from repro.decomp import decompose
        from repro.machine import CRAY_T3D, ChargeLedger, Simulator
        from repro.solvers.parallel_matvec import parallel_matvec

        nranks, A = data
        decomp = decompose(A, nranks, seed=0)
        x = np.linspace(-1.0, 1.0, A.shape[0])
        ledger = ChargeLedger()
        sim = Simulator(nranks, CRAY_T3D, ledger=ledger)
        res = parallel_matvec(A, decomp, x, transport=sim)
        stats = sim.stats()
        sim.close()
        assert_closed_forms(matvec_model(A, decomp), stats)
        # the ledger and the stats counters are dual accounts
        assert ledger.total("compute") == float(stats.total_flops) == res.flops
        assert ledger.count("barrier") == stats.barriers
        assert np.array_equal(res.y, A.matvec(x))


class TestTriangularCostModel:
    @settings(max_examples=15, deadline=None)
    @given(instances(max_n=14))
    def test_closed_forms_hold_on_random_factors(self, data):
        from repro.ilu import parallel_ilut
        from repro.ilu.params import ILUTParams
        from repro.ilu.triangular import parallel_triangular_solve
        from repro.machine import CRAY_T3D, ChargeLedger, Simulator

        nranks, A = data
        fact = parallel_ilut(
            A, ILUTParams(fill=3, threshold=1e-4), nranks, seed=0, transport="none"
        )
        factors = fact.factors
        b = A @ np.ones(A.shape[0])
        ledger = ChargeLedger()
        sim = Simulator(nranks, CRAY_T3D, ledger=ledger)
        sol = parallel_triangular_solve(factors, b, nranks=nranks, transport=sim)
        stats = sim.stats()
        sim.close()
        assert_closed_forms(triangular_model(factors), stats)
        assert ledger.total("compute") == float(stats.total_flops) == sol.flops
        none = parallel_triangular_solve(factors, b, nranks=nranks, transport="none")
        assert none.flops == sol.flops
        assert np.array_equal(none.x, sol.x)
