"""Charge-model tests: every communicating driver's charges against its model.

Every modelled time this reproduction reports is a sum of the charges the
drivers push into the simulator.  Each certified comm root
(:data:`repro.lint.comm.COMM_ROOTS`) runs twice on ``poisson2d(8)`` at 3
ranks with a :class:`~repro.machine.ChargeLedger` attached, and:

* every structurally determined total (flops, messages, words, barriers,
  collectives) equals its closed form below — plain Python over
  structural parameters that independent numpy evaluators recompute from
  the raw CSR arrays, never through the driver's own helpers;
* the data-dependent ILUT totals are dual-accounted: the ledger total
  charged from ``EliminationEngine._charge_ops`` equals the engine's
  ``flops_total``, and from ``_charge_copy`` equals ``words_copied *
  COPY_OPS_PER_WORD`` (events are attributed to a method by its source
  line range);
* the engine's phase-2 MIS charges each level what an independent
  evaluator derives from that level's reduced structure (a ``level_hook``
  snapshot): ``2 * rounds`` scans of every edge a rank owns, and per
  round one message per cut rank pair carrying its cut entries;
* compute totals and words sent are integer-valued;
* the second run repeats the first bit for bit;
* no charge comes from ``repro/kernels/``, which computes numerics only.

Plus the ledger itself, and the bit-identity oracle for the PERF001 fix in
``parallel_ilu0``.
"""

import inspect
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import repro.kernels
from repro.decomp import decompose
from repro.ilu import parallel_ilut
from repro.ilu.elimination import COPY_OPS_PER_WORD, MIS_OPS_PER_EDGE, EliminationEngine
from repro.ilu.interface_partition import parallel_ilut_partitioned
from repro.ilu.parallel_ilu0 import parallel_ilu0
from repro.ilu.params import ILUTParams
from repro.ilu.triangular import parallel_triangular_solve
from repro.lint.comm import COMM_ROOTS
from repro.machine import CRAY_T3D, ChargeLedger, CommStats, Simulator
from repro.matrices import poisson2d
from repro.solvers.parallel_matvec import parallel_matvec

NRANKS = 3
MESH = 8
PARAMS = ILUTParams(fill=5, threshold=1e-3)
ENGINE_MIS_ROUNDS = inspect.signature(EliminationEngine).parameters["mis_rounds"].default
KERNELS_DIR = os.path.dirname(os.path.abspath(repro.kernels.__file__)) + os.sep


# --------------------------------------------------------------------------
# independent structural evaluators
# --------------------------------------------------------------------------


def _entry_endpoints(M) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index arrays of every stored entry of a CSR matrix."""
    rows = np.repeat(
        np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr).astype(np.int64)
    )
    return rows, np.asarray(M.indices, dtype=np.int64)


def _halo_params(decomp) -> tuple[int, float]:
    plan = decomp.halo_plan()
    return len(plan), float(sum(nodes.size for nodes in plan.values()))


def _triangular_comm(factors) -> tuple[int, float]:
    """(messages, words) of both substitution sweeps: for each
    interface-level column ``c`` and each rank ``d != owner(c)`` owning a
    row that references ``c``, one word flows — aggregated into one
    message per (level, direction, src, dst)."""
    levels = factors.levels
    owner = np.asarray(levels.owner, dtype=np.int64)
    level_of = np.full(factors.L.shape[0], -1, dtype=np.int64)
    for k, positions in enumerate(levels.interface_levels):
        level_of[np.asarray(positions, dtype=np.int64)] = k
    messages = 0
    words = 0.0
    for M in (factors.L, factors.U):
        rows, cols = _entry_endpoints(M)
        mask = (level_of[cols] >= 0) & (owner[rows] != owner[cols])
        if not np.any(mask):
            continue
        c, d = cols[mask], owner[rows][mask]
        words += float(np.unique(np.stack([c, d]), axis=1).shape[1])
        triples = np.stack([level_of[c], owner[c], d])
        messages += int(np.unique(triples, axis=1).shape[1])
    return messages, words


def _ilu0_comm(A, decomp, factors) -> tuple[int, float]:
    """(messages, words) of the colour-class u-row exchanges, from the
    driver's *outputs*: per class, a row ``i`` needs the U row of every
    earlier-eliminated interface column on another rank; a needed row of
    ``nnz`` entries costs ``2 nnz`` words, counted per referencing row."""
    part = np.asarray(decomp.part, dtype=np.int64)
    perm = np.asarray(factors.perm, dtype=np.int64)
    pos = np.empty(perm.size, dtype=np.int64)
    pos[perm] = np.arange(perm.size, dtype=np.int64)
    u_nnz = np.diff(factors.U.indptr).astype(np.int64)  # indexed by position
    messages = 0
    words = 0.0
    for positions in factors.levels.interface_levels:
        need: dict[tuple[int, int], float] = {}
        for i in perm[np.asarray(positions, dtype=np.int64)]:
            r = int(part[i])
            for c in A.row(int(i))[0]:
                if pos[c] < pos[i] and decomp.is_interface[c] and part[c] != r:
                    key = (int(part[c]), r)
                    need[key] = need.get(key, 0.0) + 2.0 * float(u_nnz[pos[c]])
        messages += len(need)
        words += sum(need.values())
    return messages, words


# --------------------------------------------------------------------------
# the closed forms (component -> total; a measured component is absent)
# --------------------------------------------------------------------------


def matvec_model(A, decomp) -> dict[str, float]:
    halo_pairs, halo_words = _halo_params(decomp)
    # 2 flops per stored entry; one aggregated message per halo (src, dst)
    return {"flops": 2 * A.nnz, "messages": halo_pairs, "words": halo_words,
            "barriers": 1, "collectives": 0}


def triangular_model(factors) -> dict[str, float]:
    messages, words = _triangular_comm(factors)
    q = len(factors.levels.interface_levels)
    # forward: 2 flops per L entry; backward: 2(row nnz - 1) + 1 per U row.
    # The paper's q synchronisation points per sweep, plus one barrier
    # after each interior phase.
    return {"flops": 2 * factors.L.nnz + 2 * factors.U.nnz - factors.L.shape[0],
            "messages": messages, "words": words,
            "barriers": 2 * q + 2, "collectives": 0}


def elimination_model(levels: int) -> dict[str, float]:
    # ILUT flops and traffic follow the numeric fill: measured.  Phase-1
    # barrier, then per level one level barrier plus the two-step MIS
    # barrier pair every round.
    return {"barriers": 1 + levels * (2 * ENGINE_MIS_ROUNDS + 1), "collectives": 0}


def interface_partition_model(levels: int) -> dict[str, float]:
    # phase-1 barrier + exactly one synchronisation per round: the §7
    # trade this engine exists to make
    return {"barriers": 1 + levels, "collectives": 0}


def ilu0_model(A, decomp, factors, classes: int) -> dict[str, float]:
    messages, words = _ilu0_comm(A, decomp, factors)
    # flops follow the numeric zeros among the pivots: measured
    return {"messages": messages, "words": words,
            "barriers": 1 + classes, "collectives": 0}


def assert_closed_forms(model: dict[str, float], stats) -> None:
    recorded = {"flops": stats.total_flops, "messages": stats.messages,
                "words": stats.words_sent, "barriers": stats.barriers,
                "collectives": stats.collectives}
    for component, expected in model.items():
        assert float(recorded[component]) == float(expected), (
            f"{component}: model {expected}, recorded {recorded[component]}"
        )


# --------------------------------------------------------------------------
# one harness per comm root
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    """What a harness hands back besides the ledger and the stats."""

    model: dict[str, float]
    #: what a second run must reproduce bit for bit (beside the stats)
    repeat: tuple
    #: the driver's own flop count, where it reports all it charges
    flops: float | None = None
    #: the engine's ``(flops_total, words_copied)`` counters
    counters: tuple[float, float] | None = None


def _matvec(sim) -> Outcome:
    A = poisson2d(MESH)
    decomp = decompose(A, NRANKS, seed=0)
    res = parallel_matvec(A, decomp, np.linspace(-1.0, 1.0, A.shape[0]), transport=sim)
    return Outcome(matvec_model(A, decomp), (res.modeled_time, res.y.tobytes()), res.flops)


def _triangular(sim) -> Outcome:
    A = poisson2d(MESH)
    factors = parallel_ilut(A, PARAMS, NRANKS, seed=0, transport="none").factors
    b = A @ np.ones(A.shape[0])
    sol = parallel_triangular_solve(factors, b, nranks=NRANKS, transport=sim)
    return Outcome(triangular_model(factors), (sol.modeled_time, sol.x.tobytes()), sol.flops)


def _factor_bytes(res) -> tuple:
    f = res.factors
    return (res.modeled_time, f.L.data.tobytes(), f.U.data.tobytes(), f.perm.tobytes())


def _elimination(sim) -> Outcome:
    res = parallel_ilut(poisson2d(MESH), PARAMS, NRANKS, seed=0, transport=sim)
    return Outcome(elimination_model(res.num_levels), _factor_bytes(res),
                   counters=(res.flops, res.words_copied))


def _interface_partition(sim) -> Outcome:
    res = parallel_ilut_partitioned(poisson2d(MESH), PARAMS, NRANKS, seed=0, transport=sim)
    return Outcome(interface_partition_model(res.num_levels), _factor_bytes(res),
                   counters=(res.flops, res.words_copied))


def _ilu0(sim) -> Outcome:
    A = poisson2d(MESH)
    decomp = decompose(A, NRANKS, seed=0)
    res = parallel_ilu0(A, NRANKS, transport=sim, decomp=decomp, seed=0)
    return Outcome(ilu0_model(A, decomp, res.factors, res.num_levels),
                   _factor_bytes(res), res.flops)


#: comm root -> harness; ``tests/lint/test_comm.py`` pins the keys to COMM_ROOTS
HARNESSES: dict[tuple[str, str], Callable[[Simulator], Outcome]] = {
    ("src/repro/solvers/parallel_matvec.py", "parallel_matvec"): _matvec,
    ("src/repro/ilu/triangular.py", "parallel_triangular_solve"): _triangular,
    ("src/repro/ilu/elimination.py", "EliminationEngine.run"): _elimination,
    ("src/repro/ilu/interface_partition.py", "InterfacePartitionEngine.run"):
        _interface_partition,
    ("src/repro/ilu/parallel_ilu0.py", "parallel_ilu0"): _ilu0,
}
ENGINE_ROOTS = [root for root in COMM_ROOTS if root[1].endswith("Engine.run")]


@dataclass
class Run:
    outcome: Outcome
    ledger: ChargeLedger
    stats: CommStats


def run_root(root: tuple[str, str]) -> Run:
    ledger = ChargeLedger()
    sim = Simulator(NRANKS, CRAY_T3D, ledger=ledger)
    try:
        outcome = HARNESSES[root](sim)
        stats = sim.stats()
    finally:
        sim.close()
    return Run(outcome, ledger, stats)


@pytest.fixture(scope="module")
def runs(request) -> tuple[Run, Run]:
    """Two ledgered runs of the comm root ``request.param``."""
    return run_root(request.param), run_root(request.param)


def _stats_tuple(stats) -> tuple:
    return (stats.nranks, stats.total_flops, stats.messages, stats.words_sent,
            stats.barriers, stats.collectives, tuple(stats.per_rank_flops))


def charged_from(ledger: ChargeLedger, method) -> float:
    """Total compute charged from the source lines of ``method``."""
    lines, start = inspect.getsourcelines(method)
    span = range(start, start + len(lines))
    return sum(
        ev.amount for ev in ledger.events
        if ev.kind == "compute" and ev.file == method.__code__.co_filename
        and ev.line in span
    )


def _is_integral(x: float) -> bool:
    return float(x) == float(int(x))


def _over(roots):
    return pytest.mark.parametrize("runs", roots, ids=lambda root: root[1], indirect=True)


@_over(COMM_ROOTS)
def test_closed_forms_equal_recorded_totals(runs):
    for run in runs:
        assert run.outcome.model, "every root has a structural component"
        assert_closed_forms(run.outcome.model, run.stats)


@_over(COMM_ROOTS)
def test_ledger_and_counters_agree(runs):
    for run in runs:
        assert run.ledger.total("compute") == float(run.stats.total_flops)
        assert run.ledger.total("send") == float(run.stats.words_sent)
        assert run.ledger.count("barrier") == run.stats.barriers
        if run.outcome.flops is not None:
            assert float(run.outcome.flops) == float(run.stats.total_flops)


@_over(ENGINE_ROOTS)
def test_measured_totals_are_dual_accounted(runs):
    for run in runs:
        flops_total, words_copied = run.outcome.counters
        assert charged_from(run.ledger, EliminationEngine._charge_ops) == float(flops_total)
        assert charged_from(run.ledger, EliminationEngine._charge_copy) == (
            float(words_copied) * COPY_OPS_PER_WORD
        )


@_over(COMM_ROOTS)
def test_compute_and_words_are_integer_valued(runs):
    for run in runs:
        copy = charged_from(run.ledger, EliminationEngine._charge_copy)
        assert _is_integral(run.ledger.total("compute") - copy)  # op counts
        assert _is_integral(copy / COPY_OPS_PER_WORD)  # copied words
        assert _is_integral(run.ledger.total("send"))


@_over(COMM_ROOTS)
def test_repeat_run_is_bit_identical(runs):
    first, second = runs
    assert first.outcome.repeat == second.outcome.repeat
    assert _stats_tuple(first.stats) == _stats_tuple(second.stats)


@_over(COMM_ROOTS)
def test_no_charge_from_the_kernels(runs):
    for run in runs:
        assert run.ledger.events
        offenders = {(ev.file, ev.line) for ev in run.ledger.events
                     if os.path.abspath(ev.file).startswith(KERNELS_DIR)}
        assert not offenders


def test_perturbed_closed_form_fails(monkeypatch):
    """A wrong model is caught: matvec at 3 flops per stored entry."""
    honest = matvec_model
    monkeypatch.setitem(globals(), "matvec_model",
                        lambda A, decomp: {**honest(A, decomp), "flops": 3 * A.nnz})
    run = run_root(("src/repro/solvers/parallel_matvec.py", "parallel_matvec"))
    with pytest.raises(AssertionError, match="flops: model"):
        assert_closed_forms(run.outcome.model, run.stats)


# --------------------------------------------------------------------------
# the engine's phase-2 MIS, level by level
# --------------------------------------------------------------------------


def mis_level_model(reduced: dict[int, list[int]], part, rounds: int):
    """One level's MIS charges from a snapshot ``row -> columns`` of the
    reduced matrix the level starts from: every stored off-diagonal entry
    ``(v, c)`` is an edge that ``v``'s rank scans twice per round; an edge
    whose ends lie on different ranks is one word from ``v``'s rank to
    ``c``'s, aggregated into one message per ordered rank pair per round.
    Returns (scan flops per rank, ``(src, dst, words)`` messages in order)."""
    owned = [0] * NRANKS
    cut: dict[tuple[int, int], int] = {}
    for v, cols in reduced.items():
        for c in cols:
            if c == v:
                continue
            a, b = int(part[v]), int(part[c])
            owned[a] += 1
            if a != b:
                cut[(a, b)] = cut.get((a, b), 0) + 1
    flops = [2.0 * rounds * MIS_OPS_PER_EDGE * edges for edges in owned]
    return flops, [(a, b, float(w)) for (a, b), w in sorted(cut.items())] * rounds


def _mis_level_events(ledger: ChargeLedger) -> list[list]:
    """The ledger events charged from ``_mis_of_reduced``'s source lines,
    one list per maximal run of consecutive such events (one per level)."""
    method = EliminationEngine._mis_of_reduced
    lines, start = inspect.getsourcelines(method)
    span = range(start, start + len(lines))
    levels: list[list] = []
    inside = False
    for ev in ledger.events:
        was, inside = inside, ev.file == method.__code__.co_filename and ev.line in span
        if inside:
            if not was:
                levels.append([])
            levels[-1].append(ev)
    return levels


def _engine_mis_run(params: ILUTParams):
    """A ledgered engine run and, per phase-2 level, the reduced structure
    it started from (the ``level_hook`` snapshot after the level before)."""
    decomp = decompose(poisson2d(MESH), NRANKS, seed=0)
    snapshots: list[dict[int, list[int]]] = []

    def hook(level, iset, reduced):
        snapshots.append({v: reduced[v][0].tolist() for v in reduced})

    ledger = ChargeLedger()
    sim = Simulator(NRANKS, CRAY_T3D, ledger=ledger)
    try:
        out = EliminationEngine(
            decomp, params.fill, params.threshold, reduced_cap=params.reduced_cap,
            sim=sim, level_hook=hook,
        ).run()
    finally:
        sim.close()
    return ledger, snapshots[: out.num_levels], decomp.part


def check_mis_charges(ledger: ChargeLedger, snapshots, part) -> None:
    levels = _mis_level_events(ledger)
    assert len(levels) == len(snapshots), f"level count: {len(levels)} vs {len(snapshots)}"
    for level, (events, reduced) in enumerate(zip(levels, snapshots)):
        flops, messages = mis_level_model(reduced, part, ENGINE_MIS_ROUNDS)
        scans = [0.0] * NRANKS
        for ev in events:
            if ev.kind == "compute":
                scans[ev.rank] += ev.amount
        assert scans == flops, f"level {level}: scan flops {scans}, model {flops}"
        # a send event carries its source rank and words, in post order
        sends = [(ev.rank, ev.amount) for ev in events if ev.kind == "send"]
        assert sends == [(a, w) for a, _b, w in messages], (
            f"level {level}: sends {sends}, model {messages}"
        )
        assert sum(ev.kind == "barrier" for ev in events) == 2 * ENGINE_MIS_ROUNDS


@pytest.mark.parametrize(
    "params", [PARAMS, ILUTParams(fill=5, threshold=1e-3, k=1)], ids=["ilut", "ilut-star-k1"]
)
def test_engine_mis_charges_follow_the_reduced_structure(params):
    ledger, snapshots, part = _engine_mis_run(params)
    assert len(snapshots) > 1
    assert any(mis_level_model(s, part, 1)[1] for s in snapshots), "no cut edge: vacuous"
    check_mis_charges(ledger, snapshots, part)


def test_an_extra_charged_edge_fails_the_mis_check(monkeypatch):
    """A mutant that charges one edge more than the reduced matrix has."""
    honest = EliminationEngine._reduced_structure

    def one_more(self, remaining):
        src, dst = honest(self, remaining)
        if remaining.size < 2:
            return src, dst
        return np.append(src, 0), np.append(dst, 1)

    monkeypatch.setattr(EliminationEngine, "_reduced_structure", one_more)
    with pytest.raises(AssertionError, match="level 0: scan flops"):
        check_mis_charges(*_engine_mis_run(PARAMS))


class TestChargeLedger:
    def test_events_carry_the_driver_line(self):
        led = ChargeLedger()
        sim = Simulator(2, CRAY_T3D, ledger=led)
        sim.compute(0, 5.0)  # <- the attributed line
        sim.barrier()
        sim.close()
        kinds = [ev.kind for ev in led.events]
        assert kinds == ["compute", "barrier"]
        assert all(ev.file.endswith("test_cost_model.py") for ev in led.events)
        assert led.total("compute") == 5.0
        assert led.count("barrier") == 1

    def test_ledgered_run_is_bit_identical(self):
        A = poisson2d(6)
        outs = []
        for ledger in (None, ChargeLedger()):
            sim = Simulator(2, CRAY_T3D, ledger=ledger)
            res = parallel_ilut(
                A, ILUTParams(fill=4, threshold=1e-3), 2, seed=0, transport=sim
            )
            stats = sim.stats()
            sim.close()
            outs.append((*_factor_bytes(res), _stats_tuple(stats)))
        assert outs[0] == outs[1]


class TestIlu0NeedRewriteOracle:
    """The vectorized per-class comm-charge computation in
    ``parallel_ilu0`` (the PERF001 fix) against the scalar pre-fix walk.
    """

    def test_need_dicts_bit_identical(self):
        from repro.kernels import csr_gather_rows

        A = poisson2d(8)
        decomp = decompose(A, 3, seed=0)
        res = parallel_ilu0(A, 3, decomp=decomp, seed=0, transport="none")
        factors = res.factors
        part = decomp.part
        perm = factors.perm
        n = perm.size
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n, dtype=np.int64)
        u_nnz = np.diff(factors.U.indptr)
        assert factors.levels.interface_levels, "instance must have interfaces"
        for positions in factors.levels.interface_levels:
            cls = perm[np.asarray(positions, dtype=np.int64)]
            # pre-fix oracle: scalar A.row walk, original condition order
            need_scalar: dict = {}
            for i in cls:
                r = int(part[i])
                cols, _ = A.row(int(i))
                for c in cols:
                    if pos[c] < pos[i] and decomp.is_interface[c]:
                        s = int(part[c])
                        if s != r:
                            nw = 2.0 * float(u_nnz[pos[c]])
                            need_scalar[(s, r)] = need_scalar.get((s, r), 0.0) + nw
            # the shipped vectorized shape
            ii, cc, _ = csr_gather_rows(A, np.asarray(cls, dtype=np.int64))
            earlier = (
                (pos[cc] < pos[ii])
                & decomp.is_interface[cc]
                & (part[cc] != part[ii])
            )
            need_vec: dict = {}
            for i, c in zip(ii[earlier], cc[earlier]):
                nw = 2.0 * float(u_nnz[pos[c]])
                key = (int(part[c]), int(part[i]))
                need_vec[key] = need_vec.get(key, 0.0) + nw
            # same keys, same insertion order, same float bit patterns
            assert list(need_scalar) == list(need_vec)
            for k in need_scalar:
                assert need_scalar[k].hex() == need_vec[k].hex()
