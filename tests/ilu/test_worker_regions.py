"""A phase-2 region, and a region of the §5 apply, runs one thunk body
per worker, not per rank.

The simulator is one worker holding every rank, so a level's rows and
its reduced-row update are one kernel call each, and so is each apply
region; a worker transport is one worker per rank.  The region still has one thunk per active rank
(the worker's other ranks get one that returns ``None``), so faults,
journals, retries, errors and every bit of the result are those of one
body per rank.
"""

import os

import numpy as np
import pytest

from repro.decomp import DomainDecomposition, decompose
from repro.faults import FaultPlan, MessageFault, RankFault
from repro.ilu import ILUTParams, parallel_ilut, parallel_ilut_star, parallel_triangular_solve
from repro.ilu import triangular
from repro.ilu.elimination import EliminationEngine
from repro.machine import (
    CRAY_T3D,
    ProcessTransport,
    Simulator,
    ThreadTransport,
    TransportWorkerError,
)
from repro.matrices import poisson2d, torso_like
from repro.resilience import PivotPolicy, ZeroPivotError
from repro.sparse import CSRMatrix

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

NRANKS = 4
A = poisson2d(12)
PARAMS = ILUTParams(fill=5, threshold=1e-4)


def _factor_bits(res):
    f = res.factors
    return tuple(
        a.tobytes()
        for a in (f.L.data, f.L.indices, f.L.indptr, f.U.data, f.U.indices, f.U.indptr, f.perm)
    )


def _counting_pardo(sim, regions, results=None):
    """Record each region's active ranks and superstep, then dispatch;
    with ``results``, also the ranks whose thunk returned something."""
    pardo = sim.pardo

    def counted(thunks):
        regions.append((sim.superstep, [r for r, f in enumerate(thunks) if f is not None]))
        out = pardo(thunks)
        if results is not None:
            results.append([r for r, v in enumerate(out) if v is not None])
        return out

    sim.pardo = counted
    return sim


class TestWorkers:
    def test_the_simulator_is_one_worker_holding_every_rank(self):
        assert Simulator(NRANKS, CRAY_T3D).workers == ((0, 1, 2, 3),)

    def test_a_worker_transport_is_one_worker_per_rank(self):
        with ThreadTransport(3) as t:
            assert t.workers == ((0,), (1,), (2,))


class TestOneKernelCallPerWorker:
    """Phase 2's level kernel is called once per level on the simulator
    and without a transport, once per active rank per level on threads;
    ``pardo`` is called once per region either way."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"update": [], "owners": []}
        update, level = EliminationEngine._compute_level_update, EliminationEngine._update_level

        def counted_update(engine, rows, pivots):
            seen["update"].append(rows.size)
            return update(engine, rows, pivots)

        def counted_level(engine, pivots):
            if engine.remaining.size:
                seen["owners"].append(np.unique(engine.decomp.part[engine.remaining]).size)
            return level(engine, pivots)

        monkeypatch.setattr(EliminationEngine, "_compute_level_update", counted_update)
        monkeypatch.setattr(EliminationEngine, "_update_level", counted_level)
        return seen

    M = torso_like(300, seed=0)
    STAR = ILUTParams(fill=5, threshold=1e-4, k=2)

    @pytest.mark.parametrize("transport", ["simulator", "none"])
    def test_once_per_level_on_one_worker(self, calls, transport):
        res = parallel_ilut_star(self.M, self.STAR, NRANKS, transport=transport)
        # every level but the last leaves rows to update
        assert len(calls["update"]) == len(calls["owners"]) == res.num_levels - 1
        assert max(calls["owners"]) > 1  # levels whose rows span ranks

    def test_once_per_active_rank_per_level_on_threads(self, calls):
        res = parallel_ilut_star(self.M, self.STAR, NRANKS, transport="threads")
        assert len(calls["owners"]) == res.num_levels - 1
        assert len(calls["update"]) == sum(calls["owners"])

    def test_pardo_once_per_region_on_every_transport(self):
        counts = {}
        for sim in (Simulator(NRANKS, CRAY_T3D), ThreadTransport(NRANKS)):
            regions: list = []
            with sim:
                res = parallel_ilut_star(
                    self.M, self.STAR, NRANKS, transport=_counting_pardo(sim, regions)
                )
            # two phase-1 regions, then per level its rows and the update
            # of the rows left (none after the last level: no active rank)
            assert len(regions) == 2 + 2 * res.num_levels
            assert regions[-1][1] == []
            counts[sim.name] = regions
        assert counts["threads"] == counts["simulator"]


@needs_fork
def test_crash_on_a_rank_sharing_the_simulator_worker_reads_alike():
    # rank 3's first region after phase 1 (phase 1 ends with the first
    # barrier), in which a lower rank holds rows too: on the simulator
    # rank 3's thunk is the one that returns None
    plan = FaultPlan(rank_faults=[RankFault("crash", rank=3, superstep=1)])
    clean = parallel_ilut(A, PARAMS, NRANKS, seed=0, transport="simulator")
    regions: list = []
    with Simulator(NRANKS, CRAY_T3D, faults=plan) as sim:
        parallel_ilut(A, PARAMS, NRANKS, seed=0, transport=_counting_pardo(sim, regions))
    crash = [e for e in sim.fault_journal.signature() if e[1] == "crash"]
    assert len(crash) == 1 and crash[0][3] == 3
    superstep = crash[0][2]
    assert superstep > 0  # a phase-2 region
    hit = [active for step, active in regions if step == superstep and 3 in active]
    assert hit and min(hit[0]) < 3  # rank 3 is not the worker's lead

    seen = {}
    for transport in ("simulator", "threads", "processes"):
        res = parallel_ilut(A, PARAMS, NRANKS, seed=0, transport=transport, faults=plan)
        seen[transport] = (
            res.fault_journal.signature(),
            res.recoveries,
            res.modeled_time,
            _factor_bits(res),
        )
    assert seen["threads"] == seen["simulator"] == seen["processes"]
    signature, recoveries, modeled_time, bits = seen["simulator"]
    assert recoveries == 1 and [e[1] for e in signature] == ["crash", "region-retry"]
    assert bits == _factor_bits(clean) and modeled_time == clean.modeled_time


def _zero_pivots_on_two_ranks():
    """Four blocks of four rows, blocks 1 and 3 on ranks 3 and 1: level
    0 of phase 2 is rows 2, 4 and 12 (ranks 0, 3 and 1), and rows 4 and
    12 have a zero pivot that no elimination fills — each is coupled to
    its neighbour one way only."""
    d = np.eye(16)
    d[9, 2] = 0.5
    d[3, 4] = d[11, 12] = 1.0
    d[4, 4] = d[12, 12] = 0.0
    B = CSRMatrix.from_dense(d)
    blocks = decompose(B, NRANKS, method="block")
    part = np.array([0, 3, 2, 1]).repeat(4)  # the interface rows stay the same
    return B, DomainDecomposition(
        A=B, nranks=NRANKS, part=part, is_interface=blocks.is_interface, graph=blocks.graph
    )


@needs_fork
def test_zero_pivot_on_two_ranks_of_one_region_is_the_lowest_ranks():
    # rank 1's row 12 fails, and so does rank 3's row 4: the region
    # raises rank 1's error, so a body over both ranks' rows must reach
    # rank 1's rows first, not the lower row id
    B, decomp = _zero_pivots_on_two_ranks()
    params = ILUTParams(fill=3, threshold=1e-3)
    engine = EliminationEngine(decomp, params.fill, params.threshold)
    engine._run_phase1()
    assert engine._mis_of_reduced(engine.remaining, 0).tolist() == [2, 4, 12]

    def factor(transport):
        return parallel_ilut(
            B, params, NRANKS, decomp=decomp, transport=transport,
            pivot_policy=PivotPolicy("raise"),
        )

    for transport in ("simulator", "threads", "none"):
        with pytest.raises(ZeroPivotError, match="zero pivot at row 12$") as err:
            factor(transport)
        assert err.value.row == 12
    # a worker process reports the error by rank, name and message
    with pytest.raises(
        TransportWorkerError, match="rank 1 failed: ZeroPivotError: zero pivot at row 12\n"
    ):
        factor("processes")


class TestApplyRegions:
    """The §5 apply's regions: one kernel body per worker, ``pardo``
    once per region, and the same faults, journal and bits as one body
    per rank."""

    F = parallel_ilut(A, PARAMS, NRANKS, seed=0, transport="none").factors
    B = np.sin(np.arange(A.shape[0], dtype=np.float64)) + 1.5

    def _apply(self, sim, **kwargs):
        regions: list = []
        results: list = []
        with sim:
            x = parallel_triangular_solve(
                self.F, self.B, nranks=NRANKS, transport=_counting_pardo(sim, regions, results),
                **kwargs,
            ).x
        return x, regions, results

    @pytest.fixture
    def bodies(self, monkeypatch):
        calls = []
        solve_body = triangular._solve_body

        def counted(x, body):
            calls.append(body.ranks)
            return solve_body(x, body)

        monkeypatch.setattr(triangular, "_solve_body", counted)
        return calls

    def test_one_body_per_region_on_the_simulator(self, bodies):
        x, regions, results = self._apply(Simulator(NRANKS, CRAY_T3D))
        busy = [active for _, active in regions if active]
        assert len(bodies) == len(busy) and max(map(len, busy)) == NRANKS
        # the lead (lowest active rank) returns every value, the rest None
        assert results == [active[:1] for _, active in regions]
        assert bodies == [tuple(active) for active in busy]

    def test_one_body_per_active_rank_on_threads(self, bodies):
        x, regions, results = self._apply(ThreadTransport(NRANKS))
        assert len(bodies) == sum(len(active) for _, active in regions)
        assert results == [active for _, active in regions]

    @needs_fork
    def test_pardo_once_per_region_on_every_transport(self):
        seen = {}
        for sim in (Simulator(NRANKS, CRAY_T3D), ThreadTransport(NRANKS), ProcessTransport(NRANKS)):
            x, regions, results = self._apply(sim)
            # the interior stage, then one region per level (independent
            # sets have one sub-round), forward and backward
            assert len(regions) == 2 + 2 * self.F.levels.num_levels
            if sim.name != "simulator":  # every active rank ran a body
                assert results == [active for _, active in regions]
            seen[sim.name] = (regions, x.tobytes())
        assert seen["simulator"] == seen["threads"] == seen["processes"]

    @needs_fork
    @pytest.mark.parametrize("action", ["crash", "corrupt"])
    @pytest.mark.parametrize("skip", [0, 3])
    def test_a_fault_on_a_non_lead_rank_reads_alike(self, action, skip):
        # a crash at or after superstep ``skip``, or a corrupt result in
        # rank 3's region ``skip + 1``; either region has a lower active
        # rank, so on the simulator rank 3's thunk is the one returning None
        plan = (
            FaultPlan(rank_faults=[RankFault("crash", rank=3, superstep=skip)])
            if action == "crash"
            else FaultPlan(message_faults=[MessageFault("corrupt", src=3, skip=skip)])
        )
        clean = parallel_triangular_solve(self.F, self.B, nranks=NRANKS)
        sim = Simulator(NRANKS, CRAY_T3D, faults=plan)
        x, regions, _ = self._apply(sim)
        step = sim.fault_journal.signature()[0][2]
        hit = [active for st, active in regions if st == step and 3 in active]
        assert hit and min(hit[0]) < 3
        seen = {}
        for transport in ("simulator", "threads", "processes"):
            res = parallel_triangular_solve(
                self.F, self.B, nranks=NRANKS, transport=transport, faults=plan
            )
            seen[transport] = (
                res.fault_journal.signature(), res.recoveries, res.modeled_time, res.x.tobytes()
            )
        assert seen["threads"] == seen["simulator"] == seen["processes"]
        signature, recoveries, modeled_time, bits = seen["simulator"]
        assert recoveries == 1 and [e[1] for e in signature] == [action, "region-retry"]
        assert bits == clean.x.tobytes() and modeled_time == clean.modeled_time

    @needs_fork
    def test_two_worker_layouts_keep_two_plans(self, monkeypatch):
        built = []
        build = triangular._build_plan

        def counted(f, workers):
            built.append(workers)
            return build(f, workers)

        monkeypatch.setattr(triangular, "_build_plan", counted)
        f = parallel_ilut(A, PARAMS, NRANKS, seed=0, transport="none").factors
        on_sim = parallel_triangular_solve(f, self.B, nranks=NRANKS, transport="simulator")
        on_procs = parallel_triangular_solve(f, self.B, nranks=NRANKS, transport="processes")
        assert on_procs.x.tobytes() == on_sim.x.tobytes()
        one, per_rank = ((0, 1, 2, 3),), ((0,), (1,), (2,), (3,))
        assert built == [one, per_rank]
        # both plans stay cached side by side, each with its own bodies
        assert [b.ranks for b in triangular._apply_plan(f, one).fwd.interior] == [(0, 1, 2, 3)]
        assert [b.ranks for b in triangular._apply_plan(f, per_rank).fwd.interior] == list(per_rank)
        assert len(built) == 2
