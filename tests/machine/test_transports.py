"""Cross-transport parity: the tentpole guarantee of the transport layer.

Every certified driver must produce **bit-identical** results on the
simulator, the thread transport and the process transport (DESIGN.md
§13): same factors and solve vectors — and, because the worker
transports *are* the simulator with a different ``pardo``, the same
accounting: every ``CommStats`` field, modelled time, utilization and,
under ``trace=True``, the same access trace and race verdict.  The
simulator fixes the reference; these tests hold the worker transports
to it on the paper's G0 workload.

Also covered: the ``transport=`` entry-point surface (string specs,
ready instances, capability errors) and the one rule for thunks.
"""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.graph import adjacency_from_matrix
from repro.graph.distributed_mis import distributed_two_step_luby_mis
from repro.ilu import ILUTParams, parallel_ilut, parallel_ilut_partitioned, parallel_ilut_star
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
from repro.solvers import parallel_solve
from repro.solvers.parallel_matvec import parallel_matvec
from repro.sparse import CSRMatrix
from repro.verify import find_races

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


def _assert_same_comm(run, reference):
    """The accounting every transport must agree on exactly: all of
    ``CommStats``, modelled time, utilization and the access trace."""
    (a, a_utilization), (b, b_utilization) = run, reference
    assert a.comm == b.comm
    assert a.modeled_time == b.modeled_time
    assert np.array_equal(a_utilization, b_utilization)
    assert (a.trace is None) == (b.trace is None)
    if b.trace is not None:
        assert a.trace.num_accesses == b.trace.num_accesses
        assert find_races(a.trace) == find_races(b.trace)


def _parity_runs(call):
    """``call(transport)`` on a fresh 3-rank instance of every transport,
    untraced and traced; a run is ``(result, the instance's utilization
    afterwards)``.  Yields ``(run, simulator_run)`` per worker transport."""
    for trace in (False, True):
        runs = {}
        for name in TRANSPORTS:
            with resolve_transport(name, 3, model=CRAY_T3D, trace=trace) as transport:
                runs[name] = (call(transport), transport.utilization())
            assert runs[name][0].transport == name
        for name in ("threads", "processes"):
            yield runs[name], runs["simulator"]


class TestFactorizationParity:
    """Bit-identical factors across all three transports (G0, 3 ranks)."""

    A = poisson2d(10)
    PARAMS = ILUTParams(fill=5, threshold=1e-4)

    def _check(self, call):
        for run, ref in _parity_runs(call):
            _assert_same_factors(run[0], ref[0])
            _assert_same_comm(run, ref)
            assert run[0].words_copied == ref[0].words_copied

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_ilut(self, backend):
        self._check(
            lambda t: parallel_ilut(self.A, self.PARAMS, 3, seed=0, transport=t, backend=backend)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_ilut_star(self, backend):
        params = ILUTParams(fill=5, threshold=1e-4, k=2)
        self._check(
            lambda t: parallel_ilut_star(self.A, params, 3, seed=0, transport=t, backend=backend)
        )

    def test_parallel_ilut_partitioned(self):
        self._check(
            lambda t: parallel_ilut_partitioned(self.A, self.PARAMS, 3, seed=0, transport=t)
        )

    def test_parallel_ilu0(self):
        self._check(lambda t: parallel_ilu0(self.A, 3, seed=0, transport=t))


class TestSolveParity:
    A = poisson2d(10)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_triangular_solve(self, backend):
        factors = parallel_ilut(
            self.A, ILUTParams(fill=5, threshold=1e-4), 3,
            seed=0, transport="none",
        ).factors
        b = np.sin(np.arange(self.A.shape[0], dtype=np.float64))
        for run, ref in _parity_runs(
            lambda t: parallel_triangular_solve(factors, b, backend=backend, transport=t)
        ):
            assert np.array_equal(run[0].x, ref[0].x)
            assert run[0].flops == ref[0].flops
            _assert_same_comm(run, ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matvec(self, backend):
        d = decompose(self.A, 3, seed=0)
        x = np.cos(np.arange(self.A.shape[0], dtype=np.float64))
        for run, ref in _parity_runs(
            lambda t: parallel_matvec(self.A, d, x, backend=backend, transport=t)
        ):
            assert np.array_equal(run[0].y, ref[0].y)
            assert run[0].flops == ref[0].flops
            _assert_same_comm(run, ref)

    def test_distributed_mis(self):
        g = adjacency_from_matrix(self.A)
        d = decompose(self.A, 3, seed=0)
        for trace in (False, True):
            outs = {}
            for t in TRANSPORTS:
                with resolve_transport(t, 3, model=CRAY_T3D, trace=trace) as tr:
                    mis = distributed_two_step_luby_mis(g, d.part, tr, seed=3)
                    outs[t] = (mis, tr.stats(), tr.elapsed(), list(tr.utilization()))
                    outs[t] += (find_races(tr.tracer), trace and tr.tracer.num_accesses)
            for t in ("threads", "processes"):
                assert np.array_equal(outs[t][0], outs["simulator"][0])
                assert outs[t][1:] == outs["simulator"][1:]

    def test_parallel_solve_reports_modelled_times_on_every_transport(self):
        """``factor_time`` / ``solve_time`` are the machine model's, never
        this host's wall clock, so they do not depend on the transport."""
        b = self.A @ np.ones(self.A.shape[0])
        reports = {t: parallel_solve(self.A, b, 3, m=5, t=1e-4, transport=t) for t in TRANSPORTS}
        ref = reports["simulator"]
        assert ref.factor_time > 0 and ref.solve_time > 0
        for t in ("threads", "processes"):
            rep = reports[t]
            assert rep.transport == t and np.array_equal(rep.x, ref.x)
            assert (rep.factor_time, rep.solve_time, rep.matvec_time, rep.precond_time) == (
                ref.factor_time, ref.solve_time, ref.matvec_time, ref.precond_time
            )


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
    """Requests a transport does not honour: typed errors, never silence."""

    A = poisson2d(6)

    @pytest.mark.parametrize("t", ["none"])
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


class TestProcessTransportPrimitives:
    def test_pardo_runs_in_child_processes(self):
        import os

        parent = os.getpid()
        with ProcessTransport(2) as t:
            pids = t.pardo([lambda: os.getpid()] * 2)
        assert all(p != parent for p in pids)
        assert pids[0] != pids[1]

    def test_large_array_round_trip(self):
        big = np.arange(100_000, dtype=np.float64)  # 800 kB, pickled over the pipe
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


class TestOneAccountingCore:
    """A worker transport is the simulator with a different ``pardo``
    (DESIGN.md §13.3): one definition of the accounting surface, one
    rule for thunks, one typed deadlock."""

    ACCOUNTING = (
        "send recv exchange barrier allreduce allgather compute advance "
        "declare_read declare_write snapshot restore stats superstep elapsed "
        "utilization pending_messages _check_rank"
    ).split()

    #: what a thunk might try, by operation name
    THUNK_CALLS = {
        "send": lambda t: t.send(0, 1, None, 1.0),
        "recv": lambda t: t.recv(1, 0),
        "barrier": lambda t: t.barrier(),
        "compute": lambda t: t.compute(0, 5.0),
        "allreduce": lambda t: t.allreduce([1.0, 2.0]),
    }

    def test_accounting_has_one_definition(self):
        for cls in (ThreadTransport, ProcessTransport):
            assert issubclass(cls, Simulator)
            for member in self.ACCOUNTING:
                defined_in = [k.__name__ for k in cls.__mro__ if member in vars(k)]
                assert defined_in == ["Simulator"], (cls.__name__, member)

    @pytest.mark.parametrize("op", sorted(THUNK_CALLS))
    @pytest.mark.parametrize("name", TRANSPORTS)
    def test_thunks_may_only_heartbeat(self, name, op):
        call = self.THUNK_CALLS[op]
        with resolve_transport(name, 2) as t:
            with pytest.raises(TransportError, match=f"{op} is unavailable inside a parallel"):
                t.pardo([lambda: call(t), None])
            # the refused call charged nothing, heartbeat() is accepted,
            # and the transport is usable afterwards
            assert t.pardo([lambda: t.heartbeat() or "alive", lambda: 1]) == ["alive", 1]
            assert t.stats() == Simulator(2, CRAY_T3D).stats()
            assert t.elapsed() == 0.0 and t.pending_messages() == 0
            t.barrier()  # coordinator context: accepted
            assert t.stats().barriers == 1

    @pytest.mark.parametrize("name", TRANSPORTS)
    def test_recv_without_send_deadlocks(self, name):
        with resolve_transport(name, 2) as t:
            with pytest.raises(TransportError, match="deadlock"):
                t.recv(1, 0, tag="nothing")
