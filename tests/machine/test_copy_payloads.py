"""``copy_payloads=True``: the serializing-transport debug oracle.

The simulator normally delivers payloads by reference; the oracle
pickle round-trips each one at post time, which is exactly what a
multi-process transport would do.  These tests pin its three
behaviours: snapshot semantics, immediate failure on unpicklable
payloads, and bit-identity for the certified drivers.
"""

import numpy as np
import pytest

from repro.machine import CRAY_T3D, Simulator
from repro.matrices import poisson2d


class TestSnapshotSemantics:
    def test_receiver_sees_post_time_value(self):
        sim = Simulator(2, CRAY_T3D, copy_payloads=True)
        buf = np.array([1.0, 2.0])
        sim.send(0, 1, buf, 2.0)
        buf[0] = -7.0  # the kind of bug TRN001 exists to catch
        got = sim.recv(1, 0)
        assert np.array_equal(got, [1.0, 2.0])

    def test_reference_mode_shares_the_buffer(self):
        sim = Simulator(2, CRAY_T3D)
        buf = np.array([1.0, 2.0])
        sim.send(0, 1, buf, 2.0)
        buf[0] = -7.0
        assert sim.recv(1, 0)[0] == -7.0

    def test_unpicklable_payload_fails_at_the_post(self):
        sim = Simulator(2, CRAY_T3D, copy_payloads=True)
        with pytest.raises(Exception):
            sim.send(0, 1, lambda x: x, 1.0)

    def test_none_payload_passes_through(self):
        sim = Simulator(2, CRAY_T3D, copy_payloads=True)
        sim.send(0, 1, None, 1.0)
        assert sim.recv(1, 0) is None


class TestDriverBitIdentity:
    def factors(self, copy_payloads):
        from repro.ilu import ILUTParams, parallel_ilut

        A = poisson2d(10)
        return parallel_ilut(
            A, ILUTParams(fill=5, threshold=1e-4), 4, seed=0,
            copy_payloads=copy_payloads,
        )

    def test_factorization_is_bit_identical(self):
        plain = self.factors(False)
        oracle = self.factors(True)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(plain.factors.L, attr), getattr(oracle.factors.L, attr)
            )
            assert np.array_equal(
                getattr(plain.factors.U, attr), getattr(oracle.factors.U, attr)
            )
        assert np.array_equal(plain.factors.perm, oracle.factors.perm)
        assert plain.modeled_time == oracle.modeled_time

    def test_solve_and_matvec_are_bit_identical(self):
        from repro.decomp import decompose
        from repro.ilu.triangular import parallel_triangular_solve
        from repro.solvers.parallel_matvec import parallel_matvec

        A = poisson2d(10)
        n = A.shape[0]
        b = np.linspace(1.0, 2.0, n)
        factors = self.factors(False).factors
        s1 = parallel_triangular_solve(factors, b)
        s2 = parallel_triangular_solve(factors, b, copy_payloads=True)
        assert np.array_equal(s1.x, s2.x)
        assert s1.modeled_time == s2.modeled_time
        decomp = decompose(A, 4, seed=0)
        m1 = parallel_matvec(A, decomp, b)
        m2 = parallel_matvec(A, decomp, b, copy_payloads=True)
        assert np.array_equal(m1.y, m2.y)
        assert m1.modeled_time == m2.modeled_time

    def test_copy_payloads_requires_simulation(self):
        from repro.ilu import ILUTParams, parallel_ilut

        A = poisson2d(6)
        with pytest.raises(ValueError, match="requires the simulator transport"):
            parallel_ilut(
                A, ILUTParams(fill=5, threshold=1e-4), 2,
                transport="none", copy_payloads=True,
            )
