"""Cross-transport parity: the tentpole guarantee of the transport layer.

Every certified driver must produce **bit-identical** results on the
simulator, the thread transport and the process transport (DESIGN.md
§13): same factors, same solve vectors, same per-rank flop totals, same
message/barrier counts.  The simulator fixes the reference semantics;
these tests hold the real backends to it on the paper's G0 workload.

Also covered: the ``transport=`` entry-point surface (string specs,
ready instances, capability errors).
"""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.graph import adjacency_from_matrix
from repro.graph.distributed_mis import distributed_two_step_luby_mis
from repro.ilu import ILUTParams, parallel_ilut, parallel_ilut_partitioned
from repro.ilu.parallel_ilu0 import parallel_ilu0
from repro.ilu.triangular import parallel_triangular_solve
from repro.machine import (
    CRAY_T3D,
    ProcessTransport,
    Simulator,
    ThreadTransport,
    TransportCapabilityError,
    TransportError,
    TransportWorkerError,
    resolve_transport,
    transport_name,
)
from repro.matrices import poisson2d
from repro.resilience import PivotPolicy, ZeroPivotError
from repro.solvers.parallel_matvec import parallel_matvec
from repro.sparse import CSRMatrix

TRANSPORTS = ["simulator", "threads", "processes"]
BACKENDS = [None, "vectorized"]


def _same_csr(X, Y):
    return (
        np.array_equal(X.indptr, Y.indptr)
        and np.array_equal(X.indices, Y.indices)
        and np.array_equal(X.data, Y.data)
    )


def _assert_same_factors(a, b):
    assert _same_csr(a.factors.L, b.factors.L)
    assert _same_csr(a.factors.U, b.factors.U)
    assert np.array_equal(a.factors.perm, b.factors.perm)
    assert a.flops == b.flops
    assert a.num_levels == b.num_levels


def _assert_same_comm(a, b):
    """Modeled counters that every transport must agree on exactly."""
    assert a.comm.messages == b.comm.messages
    assert a.comm.barriers == b.comm.barriers
    assert a.comm.total_flops == b.comm.total_flops
    assert list(a.comm.per_rank_flops) == list(b.comm.per_rank_flops)


class TestFactorizationParity:
    """Bit-identical factors across all three transports (G0, 3 ranks)."""

    A = poisson2d(10)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_ilut(self, backend):
        runs = {
            t: parallel_ilut(
                self.A, ILUTParams(fill=5, threshold=1e-4), 3,
                seed=0, transport=t, backend=backend,
            )
            for t in TRANSPORTS
        }
        for t in ("threads", "processes"):
            _assert_same_factors(runs[t], runs["simulator"])
            _assert_same_comm(runs[t], runs["simulator"])
            assert runs[t].transport == t
            assert runs[t].words_copied == runs["simulator"].words_copied

    def test_parallel_ilut_partitioned(self):
        runs = {
            t: parallel_ilut_partitioned(
                self.A, ILUTParams(fill=5, threshold=1e-4), 3, seed=0, transport=t
            )
            for t in TRANSPORTS
        }
        for t in ("threads", "processes"):
            _assert_same_factors(runs[t], runs["simulator"])
            _assert_same_comm(runs[t], runs["simulator"])

    def test_parallel_ilu0(self):
        runs = {
            t: parallel_ilu0(self.A, 3, seed=0, transport=t)
            for t in TRANSPORTS
        }
        for t in ("threads", "processes"):
            _assert_same_factors(runs[t], runs["simulator"])
            _assert_same_comm(runs[t], runs["simulator"])


class TestSolveParity:
    A = poisson2d(10)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_triangular_solve(self, backend):
        factors = parallel_ilut(
            self.A, ILUTParams(fill=5, threshold=1e-4), 3,
            seed=0, transport="none",
        ).factors
        b = np.sin(np.arange(self.A.shape[0], dtype=np.float64))
        runs = {
            t: parallel_triangular_solve(
                factors, b, backend=backend, transport=t
            )
            for t in TRANSPORTS
        }
        for t in ("threads", "processes"):
            assert np.array_equal(runs[t].x, runs["simulator"].x)
            assert runs[t].flops == runs["simulator"].flops
            _assert_same_comm(runs[t], runs["simulator"])
            assert runs[t].transport == t

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matvec(self, backend):
        d = decompose(self.A, 3, seed=0)
        x = np.cos(np.arange(self.A.shape[0], dtype=np.float64))
        runs = {
            t: parallel_matvec(self.A, d, x, backend=backend, transport=t)
            for t in TRANSPORTS
        }
        for t in ("threads", "processes"):
            assert np.array_equal(runs[t].y, runs["simulator"].y)
            assert runs[t].flops == runs["simulator"].flops
            _assert_same_comm(runs[t], runs["simulator"])

    def test_distributed_mis(self):
        g = adjacency_from_matrix(self.A)
        d = decompose(self.A, 3, seed=0)
        outs = {}
        for t in TRANSPORTS:
            tr = resolve_transport(t, 3, model=CRAY_T3D)
            try:
                outs[t] = (
                    distributed_two_step_luby_mis(g, d.part, tr, seed=3),
                    tr.stats().messages,
                    tr.stats().barriers,
                )
            finally:
                tr.close()
        for t in ("threads", "processes"):
            assert np.array_equal(outs[t][0], outs["simulator"][0])
            assert outs[t][1:] == outs["simulator"][1:]


class TestTransportSurface:
    def test_transport_field_round_trip(self):
        A = poisson2d(6)
        for t in ("simulator", "none"):
            r = parallel_ilut(A, ILUTParams(fill=3, threshold=1e-3), 2, transport=t)
            assert r.transport == t

    def test_instance_spec(self):
        A = poisson2d(6)
        with ThreadTransport(2) as t:
            r = parallel_ilut(A, ILUTParams(fill=3, threshold=1e-3), 2, transport=t)
            assert r.transport == "threads"

    def test_instance_nranks_mismatch(self):
        with ThreadTransport(2) as t:
            with pytest.raises(ValueError, match="ranks"):
                resolve_transport(t, 4, model=CRAY_T3D)

    def test_unknown_transport_name(self):
        A = poisson2d(6)
        with pytest.raises(ValueError, match="unknown transport"):
            parallel_ilut(
                A, ILUTParams(fill=3, threshold=1e-3), 2, transport="mpi"
            )

    def test_transport_name_helper(self):
        assert transport_name(None) == "none"
        assert transport_name(Simulator(2, CRAY_T3D)) == "simulator"


class TestCapabilityBoundary:
    """faults=/trace= are simulator-only: typed errors, never silence."""

    A = poisson2d(6)

    @pytest.mark.parametrize("t", ["threads", "processes", "none"])
    def test_trace_requires_simulator(self, t):
        with pytest.raises(TransportCapabilityError):
            parallel_ilut(
                self.A, ILUTParams(fill=3, threshold=1e-3), 2,
                transport=t, trace=True,
            )

    @pytest.mark.parametrize("t", ["threads", "processes", "none"])
    def test_faults_require_simulator(self, t):
        from repro.faults import FaultPlan, MessageFault

        plan = FaultPlan(message_faults=[MessageFault("drop")])
        with pytest.raises(TransportCapabilityError):
            parallel_ilut(
                self.A, ILUTParams(fill=3, threshold=1e-3), 2,
                transport=t, faults=plan,
            )

    def test_capability_error_is_value_error(self):
        # legacy callers catch ValueError; the typed error must remain one
        assert issubclass(TransportCapabilityError, ValueError)
        assert issubclass(TransportCapabilityError, TransportError)

    def test_faults_rejected_on_ready_instance(self):
        from repro.faults import FaultPlan, MessageFault

        plan = FaultPlan(message_faults=[MessageFault("drop")])
        sim = Simulator(2, CRAY_T3D)
        with pytest.raises(TransportCapabilityError):
            resolve_transport(sim, 2, model=CRAY_T3D, faults=plan)


class TestEntryLifecycle:
    """A driver that raises mid-run still releases the transport it built."""

    @staticmethod
    def _zero_pivot_matrix():
        d = np.eye(8)
        d[3, 3] = 0.0
        d[3, 4] = d[4, 3] = 1.0  # row 3 has no pivot and nothing to fill it
        return CSRMatrix.from_dense(d)

    @pytest.fixture
    def built(self, monkeypatch):
        """Every transport the entry points build during the test."""
        import repro.machine.transport as transport_mod

        made = []
        resolve = transport_mod.resolve_transport

        def recording(*args, **kwargs):
            made.append(resolve(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(transport_mod, "resolve_transport", recording)
        return made

    @pytest.mark.parametrize("transport", ["threads", "processes"])
    @pytest.mark.parametrize("driver", ["ilu0", "ilut"])
    def test_breakdown_closes_owned_transport(self, driver, transport, built):
        import threading

        B = self._zero_pivot_matrix()
        threads_before = threading.active_count()
        with pytest.raises((ZeroPivotError, TransportWorkerError)):
            if driver == "ilu0":
                parallel_ilu0(B, 2, transport=transport, diag_guard=False)
            else:
                parallel_ilut(
                    B,
                    ILUTParams(fill=3, threshold=1e-3),
                    2,
                    transport=transport,
                    pivot_policy=PivotPolicy("raise"),
                )
        (t,) = built
        assert threading.active_count() == threads_before
        if transport == "processes":
            assert t.active_workers() == {}
        with pytest.raises(TransportError, match="closed"):
            t.pardo([None, None])

    def test_ready_instance_is_left_open(self):
        B = self._zero_pivot_matrix()
        with ThreadTransport(2) as t:
            with pytest.raises(ZeroPivotError):
                parallel_ilu0(B, 2, transport=t, diag_guard=False)
            assert t.pardo([lambda: 1, lambda: 2]) == [1, 2]


class TestExchangeAcrossTransports:
    """One ``exchange`` implementation: every transport gives the same
    answer, the same counters, and leaves nothing in flight."""

    MESSAGES = [
        (2, 1, {"v": 2}, 3.0),
        (0, 1, "a", 1.0),
        (1, 0, np.arange(4.0), 4.0),
        (1, 1, "self", 9.0),  # local hand-off: delivered, not counted
        (0, 2, None, 0.0),
    ]

    def _run(self, transport):
        with transport:
            out = transport.exchange(self.MESSAGES, tag=("x", 0))
            stats = transport.stats()
            return out, (stats.messages, stats.words_sent), transport.pending_messages()

    def test_same_result_counters_and_empty_mailboxes(self):
        runs = [
            self._run(t)
            for t in (Simulator(3, CRAY_T3D), ThreadTransport(3), ProcessTransport(3))
        ]
        for out, counts, pending in runs:
            assert pending == 0
            assert counts == (4, 8.0) == runs[0][1]
            assert sorted(out) == [0, 1, 2]
            assert [src for src, _ in out[1]] == [0, 1, 2]  # (src, dst)-sorted drain
            assert out[1][0][1] == "a" and out[1][1][1] == "self"
            assert out[1][2][1] == {"v": 2}
            assert np.array_equal(out[0][0][1], np.arange(4.0))
            assert out[2] == [(0, None)]


class TestThreadTransportPrimitives:
    def test_pardo_runs_on_distinct_threads(self):
        import threading

        with ThreadTransport(3) as t:
            idents = t.pardo([lambda: threading.get_ident()] * 3)
        assert len(set(idents)) == 3

    def test_pardo_results_in_rank_order(self):
        with ThreadTransport(4) as t:
            assert t.pardo([lambda r=r: r * 10 for r in range(4)]) == [0, 10, 20, 30]

    def test_idle_ranks(self):
        with ThreadTransport(3) as t:
            assert t.pardo([None, lambda: "x", None]) == [None, "x", None]

    def test_worker_exception_reraised(self):
        with ThreadTransport(2) as t:
            with pytest.raises(RuntimeError, match="boom"):
                t.pardo([lambda: 1, lambda: (_ for _ in ()).throw(RuntimeError("boom"))])
            # transport stays usable after a failed region
            assert t.pardo([lambda: 1, lambda: 2]) == [1, 2]

    def test_worker_send_recv(self):
        with ThreadTransport(2) as t:
            def rank0():
                t.send(0, 1, {"v": 41}, 1.0, tag="x")
                return "sent"

            def rank1():
                return t.recv(1, 0, tag="x")["v"] + 1

            assert t.pardo([rank0, rank1]) == ["sent", 42]
        # payloads travel by reference; the message was counted
        assert True

    def test_worker_barrier_counts_once(self):
        with ThreadTransport(2) as t:
            t.pardo([lambda: t.barrier(), lambda: t.barrier()])
            assert t.stats().barriers == 1

    def test_coordinator_recv_empty_deadlocks_immediately(self):
        with ThreadTransport(2) as t:
            with pytest.raises(TransportError, match="deadlock"):
                t.recv(1, 0, tag="nothing")


class TestProcessTransportPrimitives:
    def test_pardo_runs_in_child_processes(self):
        import os

        parent = os.getpid()
        with ProcessTransport(2) as t:
            pids = t.pardo([lambda: os.getpid()] * 2)
        assert all(p != parent for p in pids)
        assert pids[0] != pids[1]

    def test_large_array_round_trip_via_shared_memory(self):
        big = np.arange(100_000, dtype=np.float64)  # > SHM threshold
        with ProcessTransport(2) as t:
            out = t.pardo([lambda: big * 2.0, lambda: big[:8].copy()])
        assert np.array_equal(out[0], big * 2.0)
        assert np.array_equal(out[1], big[:8])

    def test_worker_exception_reports_rank(self):
        def boom():
            raise ValueError("child died")

        with ProcessTransport(2) as t:
            with pytest.raises(TransportError, match="rank 1"):
                t.pardo([lambda: 1, boom])

    def test_child_messaging_is_forbidden(self):
        with ProcessTransport(2) as t:
            with pytest.raises(TransportError, match="rank 0"):
                t.pardo([lambda: t.send(0, 1, None, 1.0), None])

    def test_compute_folds_child_flops(self):
        with ProcessTransport(2) as t:
            t.pardo([lambda: t.compute(0, 5.0), lambda: t.compute(1, 7.0)])
            assert list(t.stats().per_rank_flops) == [5.0, 7.0]
