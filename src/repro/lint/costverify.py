"""Runtime cost certification: static charge models vs recorded charges.

The execution half of ``repro lint --verify-costs``.  The static half
(:mod:`repro.lint.flow.cost`) extracts every charge site reachable from
each certified comm root and carries the symbolic cost model; this
module runs each root on small seeded instances with a
:class:`~repro.machine.ledger.ChargeLedger` attached and certifies, per
root:

* **closed forms** — each structurally determined component (flops,
  messages, words, barriers, collectives) evaluates, on the concrete
  instance, to exactly the simulator's recorded total.  The structural
  parameters are computed by *independent* evaluators in this module
  (e.g. the triangular-solve consumer sets are recomputed from the raw
  CSR arrays with numpy, not via the driver's helper);
* **site coverage, both directions** — every ledger event joins to a
  statically known site, and every non-fault-path static site fires in
  at least one harness run;
* **per-site fire counts** — where the static loop-bound analysis
  derived a symbolic count (``p``, ``q``, ``rounds * 2 * p``, …), the
  ledger's event count at that site must match its concrete value;
* **measured components** — the data-dependent totals (ILUT flops and
  u-row traffic) are certified by dual accounting: the ledger total at
  the engine's ``_charge_ops`` site must equal the engine's own
  ``flops_total`` counter, ``_charge_copy`` must equal
  ``words_copied * COPY_OPS_PER_WORD``, every compute/word total must
  be integer-valued, and a repeated (or cross-backend) run must
  reproduce the stats and modeled time bit for bit;
* **the kernels surface** — no ledger event may ever attribute to a
  ``repro.kernels`` module (checked across every run of every root).

Any violated check is a DRIFT row; ``repro lint --verify-costs`` exits
1 — the same contract as ``--verify-protocol`` / ``--verify-transport``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .flow.cost import KERNELS_PREFIX, CostAnalysis, CostExpr, analyze_costs

if TYPE_CHECKING:
    from .runner import ProjectContext

__all__ = ["CostCheck", "CostReport", "verify_costs"]

#: rank count and mesh size of the certification instances — big enough
#: that every non-fault-path charge site fires, small enough for CI
_NRANKS = 3
_MESH = 8
_MIS_ROUNDS = 3


@dataclass
class CostCheck:
    """One certified (or drifted) comparison."""

    name: str
    status: str  # "ok" | "drift"
    expected: str
    actual: str
    detail: str = ""


@dataclass
class CostReport:
    """Certification outcome for one root (or the kernels surface)."""

    module: str
    qualname: str
    expressions: dict[str, str] = field(default_factory=dict)
    checks: list[CostCheck] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    runs: int = 0
    sites: int = 0

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"

    @property
    def certified(self) -> bool:
        return not self.problems and all(c.status == "ok" for c in self.checks)

    def check(self, name: str, expected, actual, detail: str = "") -> None:
        same = expected == actual
        self.checks.append(
            CostCheck(
                name=name,
                status="ok" if same else "drift",
                expected=repr(expected),
                actual=repr(actual),
                detail=detail,
            )
        )


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------


def _ledgered_sim(nranks: int):
    from ..machine import CRAY_T3D, ChargeLedger, Simulator

    ledger = ChargeLedger()
    return Simulator(nranks, CRAY_T3D, ledger=ledger), ledger


def _stats_tuple(stats) -> tuple:
    return (
        stats.nranks,
        stats.total_flops,
        stats.messages,
        stats.words_sent,
        stats.barriers,
        stats.collectives,
        tuple(stats.per_rank_flops),
    )


def _rel(file: str, root: Path) -> str:
    try:
        return Path(file).resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file


def _is_integral(x: float) -> bool:
    return float(x) == float(int(x))


@dataclass
class _Joiner:
    """Accumulates ledger<->static joins across a root's harness runs."""

    report: CostReport
    analysis: CostAnalysis
    root_dir: Path
    fired: set[tuple[str, str, int]] = field(default_factory=set)
    ledgers: list = field(default_factory=list)

    def join_run(self, ledger, env: dict[str, float], label: str) -> None:
        """Per-run site membership + fire-count checks."""
        self.report.runs += 1
        self.ledgers.append(ledger)
        static = {s.key: s for s in self.analysis.sites}
        counts: dict[tuple[str, str, int], int] = {}
        for ev in ledger.events:
            key = (ev.kind, _rel(ev.file, self.root_dir), ev.line)
            counts[key] = counts.get(key, 0) + 1
            self.fired.add(key)
            if key not in static:
                self.report.check(
                    f"{label}: site {key[1]}:{key[2]} ({ev.kind}) statically known",
                    True,
                    False,
                    detail="runtime charge from a line the analysis does not know",
                )
        for key, n in counts.items():
            site = static.get(key)
            if site is None or site.count_expr is None:
                continue
            try:
                expected = int(CostExpr(site.count_expr).evaluate(env))
            except (KeyError, ValueError):
                continue
            self.report.check(
                f"{label}: fire count of {site.module}:{site.line} "
                f"== {site.count_expr}",
                expected,
                n,
                detail=f"loop-nest derivation: {site.derivation}",
            )

    def finish(self) -> None:
        """Cross-run must-fire coverage."""
        for site in self.analysis.sites:
            if site.fault_path:
                continue
            if site.key not in self.fired:
                self.report.check(
                    f"site {site.module}:{site.line} ({site.kind}) exercised",
                    True,
                    False,
                    detail=f"in {site.function}; derivation {site.derivation}",
                )


def _check_components(
    report: CostReport, label: str, stats, env: dict[str, float]
) -> None:
    """Closed-form spec components against the recorded totals."""
    spec_map = report.expressions
    actual = {
        "flops": float(stats.total_flops),
        "messages": float(stats.messages),
        "words": float(stats.words_sent),
        "barriers": float(stats.barriers),
        "collectives": float(stats.collectives),
    }
    for component, text in spec_map.items():
        if text == "<measured>":
            continue
        expected = CostExpr(text).evaluate(env)
        report.check(
            f"{label}: {component} == {text}", float(expected), actual[component]
        )


def _spec_expressions(analysis: CostAnalysis) -> dict[str, str]:
    spec = analysis.spec
    if spec is None:
        return {}
    return {
        name: (text if text is not None else "<measured>")
        for name, text in spec.components().items()
    }


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
    """(messages, words) of both substitution sweeps, recomputed from the
    raw CSR arrays: for each interface-level column position ``c`` and
    each rank ``d`` owning a row that references ``c`` with ``d !=
    owner(c)``, one word flows — aggregated into one message per
    (level, direction, src, dst)."""
    levels = factors.levels
    owner = np.asarray(levels.owner, dtype=np.int64)
    n = factors.L.shape[0]
    level_of = np.full(n, -1, dtype=np.int64)
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
        # words: distinct (column, consumer-rank) pairs
        words += float(np.unique(np.stack([c, d]), axis=1).shape[1])
        # messages: distinct (level, src, dst) triples
        triples = np.stack([level_of[c], owner[c], d])
        messages += int(np.unique(triples, axis=1).shape[1])
    return messages, words


def _mis_graph(A):
    """The adjacency structure of ``A`` without the diagonal, as a Graph."""
    from ..graph import Graph

    rows, cols = _entry_endpoints(A)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    n = A.shape[0]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.add.at(xadj, rows + 1, 1)
    xadj = np.cumsum(xadj)
    return Graph(xadj.astype(np.int64), cols.astype(np.int64))


def _mis_boundary(graph, part: np.ndarray) -> tuple[int, float]:
    """(pairs, words-per-step): for each directed edge (v, u) crossing
    ranks, u's owner ships u's flag to v's owner — distinct (src, dst)
    pairs and distinct (src, dst, u) triples."""
    part = np.asarray(part, dtype=np.int64)
    v = np.repeat(
        np.arange(graph.nvertices, dtype=np.int64),
        np.diff(graph.xadj).astype(np.int64),
    )
    u = np.asarray(graph.adjncy, dtype=np.int64)
    cross = part[u] != part[v]
    if not np.any(cross):
        return 0, 0.0
    src, dst, shipped = part[u][cross], part[v][cross], u[cross]
    pairs = int(np.unique(np.stack([src, dst]), axis=1).shape[1])
    words = float(np.unique(np.stack([src, dst, shipped]), axis=1).shape[1])
    return pairs, words


def _ilu0_comm(A, decomp, factors) -> tuple[int, float]:
    """(messages, words) of the colour-class u-row exchanges, recomputed
    from the driver's *outputs*: per class, a row ``i`` needs the U row
    of every earlier-eliminated interface column on another rank; a
    needed row of ``nnz`` entries costs ``2 nnz`` words (indices +
    values), counted per referencing row as the driver charges it."""
    part = np.asarray(decomp.part, dtype=np.int64)
    is_interface = np.asarray(decomp.is_interface, dtype=bool)
    perm = np.asarray(factors.perm, dtype=np.int64)
    n = perm.size
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n, dtype=np.int64)
    u_nnz = np.diff(factors.U.indptr).astype(np.int64)  # indexed by position
    messages = 0
    words = 0.0
    for positions in factors.levels.interface_levels:
        need: dict[tuple[int, int], float] = {}
        for p_ in np.asarray(positions, dtype=np.int64):
            i = int(perm[p_])
            r = int(part[i])
            cols, _ = A.row(i)
            for c in cols:
                c = int(c)
                if pos[c] < pos[i] and is_interface[c] and int(part[c]) != r:
                    key = (int(part[c]), r)
                    need[key] = need.get(key, 0.0) + 2.0 * float(u_nnz[pos[c]])
        messages += len(need)
        words += sum(need.values())
    return messages, words


# --------------------------------------------------------------------------
# per-root harnesses
# --------------------------------------------------------------------------


def _verify_matvec(analysis: CostAnalysis, report: CostReport, root: Path) -> None:
    from ..decomp import decompose
    from ..matrices import poisson2d
    from ..solvers.parallel_matvec import parallel_matvec

    A = poisson2d(_MESH)
    decomp = decompose(A, _NRANKS, seed=0)
    x = np.linspace(-1.0, 1.0, A.shape[0])
    halo_pairs, halo_words = _halo_params(decomp)
    env = {
        "n": float(A.shape[0]),
        "p": float(_NRANKS),
        "nnz": float(A.nnz),
        "halo_pairs": float(halo_pairs),
        "halo_words": halo_words,
    }
    joiner = _Joiner(report, analysis, root)
    runs = {}
    for backend in ("reference", "vectorized"):
        sim, ledger = _ledgered_sim(_NRANKS)
        res = parallel_matvec(A, decomp, x, transport=sim, backend=backend)
        stats = sim.stats()
        sim.close()
        joiner.join_run(ledger, env, backend)
        _check_components(report, backend, stats, env)
        report.check(f"{backend}: result.flops == total_flops",
                     float(stats.total_flops), float(res.flops))
        runs[backend] = (res.modeled_time, _stats_tuple(stats))
    report.check(
        "cross-backend: modeled time and stats bit-identical",
        runs["reference"],
        runs["vectorized"],
    )
    joiner.finish()
    _no_kernel_charges(report, joiner, root)


def _verify_triangular(analysis: CostAnalysis, report: CostReport, root: Path) -> None:
    from ..ilu import parallel_ilut
    from ..ilu.params import ILUTParams
    from ..ilu.triangular import parallel_triangular_solve
    from ..matrices import poisson2d

    A = poisson2d(_MESH)
    fact = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), _NRANKS,
                         seed=0, transport="none")
    factors = fact.factors
    b = A @ np.ones(A.shape[0])
    q = len(factors.levels.interface_levels)
    tri_messages, tri_words = _triangular_comm(factors)
    env = {
        "n": float(A.shape[0]),
        "p": float(_NRANKS),
        "q": float(q),
        "nnz_L": float(factors.L.nnz),
        "nnz_U": float(factors.U.nnz),
        "tri_messages": float(tri_messages),
        "tri_words": tri_words,
    }
    joiner = _Joiner(report, analysis, root)
    runs = {}
    for backend in ("reference", "vectorized"):
        sim, ledger = _ledgered_sim(_NRANKS)
        sol = parallel_triangular_solve(
            factors, b, nranks=_NRANKS, transport=sim, backend=backend
        )
        stats = sim.stats()
        sim.close()
        joiner.join_run(ledger, env, backend)
        _check_components(report, backend, stats, env)
        report.check(f"{backend}: result.flops == total_flops",
                     float(stats.total_flops), float(sol.flops))
        runs[backend] = (sol.modeled_time, _stats_tuple(stats))
    report.check(
        "cross-backend: modeled time and stats bit-identical",
        runs["reference"],
        runs["vectorized"],
    )
    joiner.finish()
    _no_kernel_charges(report, joiner, root)


def _verify_mis(analysis: CostAnalysis, report: CostReport, root: Path) -> None:
    from ..decomp import decompose
    from ..graph.distributed_mis import distributed_two_step_luby_mis
    from ..matrices import poisson2d

    A = poisson2d(_MESH)
    decomp = decompose(A, _NRANKS, seed=0)
    graph = _mis_graph(A)
    pairs, words_per_step = _mis_boundary(graph, decomp.part)
    env = {
        "p": float(_NRANKS),
        "rounds": float(_MIS_ROUNDS),
        "nedges": float(graph.adjncy.size),
        "boundary_pairs": float(pairs),
        "boundary_words": words_per_step,
    }
    joiner = _Joiner(report, analysis, root)
    runs = []
    for attempt in ("run-1", "run-2"):
        sim, ledger = _ledgered_sim(_NRANKS)
        distributed_two_step_luby_mis(
            graph, decomp.part, sim, seed=0, rounds=_MIS_ROUNDS
        )
        stats = sim.stats()
        sim.close()
        joiner.join_run(ledger, env, attempt)
        _check_components(report, attempt, stats, env)
        runs.append((sim.elapsed(), _stats_tuple(stats)))
    report.check("repeat run bit-identical", runs[0], runs[1])
    joiner.finish()
    _no_kernel_charges(report, joiner, root)


def _site_totals_by_function(
    analysis: CostAnalysis, ledger, root: Path, kind: str
) -> dict[str, float]:
    """Ledger totals of ``kind`` grouped by the static site's function."""
    static = {s.key: s for s in analysis.sites}
    out: dict[str, float] = {}
    for key, total in ledger.totals_by_site().items():
        k = (key[0], _rel(key[1], root), key[2])
        site = static.get(k)
        if site is not None and site.kind == kind:
            out[site.function] = out.get(site.function, 0.0) + total
    return out


def _dual_accounting(
    report: CostReport,
    analysis: CostAnalysis,
    ledger,
    root: Path,
    label: str,
    flops_total: float,
    words_copied: float,
) -> None:
    """Join per-site ledger totals against the engine's own counters."""
    from ..ilu.elimination import COPY_OPS_PER_WORD

    by_fn = _site_totals_by_function(analysis, ledger, root, "compute")
    report.check(
        f"{label}: ledger@_charge_ops == engine flops_total",
        float(flops_total),
        by_fn.get("EliminationEngine._charge_ops", 0.0),
    )
    report.check(
        f"{label}: ledger@_charge_copy == words_copied * COPY_OPS_PER_WORD",
        float(words_copied) * COPY_OPS_PER_WORD,
        by_fn.get("EliminationEngine._charge_copy", 0.0),
    )
    report.check(
        f"{label}: every compute total integer-valued",
        True,
        _is_integral(ledger.total("compute") * 2.0),  # copy charges are k/2
        detail="flops are op counts; copy charges are half-words",
    )
    report.check(
        f"{label}: words sent integer-valued",
        True,
        _is_integral(ledger.total("send")),
    )


def _verify_elimination(analysis: CostAnalysis, report: CostReport, root: Path) -> None:
    from ..ilu import parallel_ilut
    from ..ilu.params import ILUTParams
    from ..matrices import poisson2d

    A = poisson2d(_MESH)
    joiner = _Joiner(report, analysis, root)
    runs = {}
    for backend in ("reference", "vectorized"):
        sim, ledger = _ledgered_sim(_NRANKS)
        res = parallel_ilut(
            A, ILUTParams(fill=5, threshold=1e-3), _NRANKS,
            seed=0, transport=sim, backend=backend,
        )
        stats = sim.stats()
        sim.close()
        env = {
            "p": float(_NRANKS),
            "levels": float(res.num_levels),
            "mis_rounds": 5.0,  # engine default
        }
        joiner.join_run(ledger, env, backend)
        _check_components(report, backend, stats, env)
        _dual_accounting(
            report, analysis, ledger, root, backend, res.flops, res.words_copied
        )
        report.check(
            f"{backend}: stats flops == sum of compute-site totals",
            float(stats.total_flops),
            float(ledger.total("compute")),
        )
        runs[backend] = (
            res.modeled_time,
            _stats_tuple(stats),
            float(res.factors.L.data.sum()),
            float(res.factors.U.data.sum()),
            res.factors.perm.tobytes(),
        )
    report.check(
        "cross-backend: modeled time, stats and factors bit-identical",
        runs["reference"],
        runs["vectorized"],
    )
    joiner.finish()
    _no_kernel_charges(report, joiner, root)


def _verify_interface_partition(
    analysis: CostAnalysis, report: CostReport, root: Path
) -> None:
    from ..ilu.interface_partition import parallel_ilut_partitioned
    from ..ilu.params import ILUTParams
    from ..matrices import poisson2d

    A = poisson2d(_MESH)
    joiner = _Joiner(report, analysis, root)
    runs = []
    for attempt in ("run-1", "run-2"):
        sim, ledger = _ledgered_sim(_NRANKS)
        res = parallel_ilut_partitioned(
            A, ILUTParams(fill=5, threshold=1e-3), _NRANKS, seed=0, transport=sim
        )
        stats = sim.stats()
        sim.close()
        env = {"p": float(_NRANKS), "levels": float(res.num_levels)}
        joiner.join_run(ledger, env, attempt)
        _check_components(report, attempt, stats, env)
        _dual_accounting(
            report, analysis, ledger, root, attempt, res.flops, res.words_copied
        )
        runs.append((res.modeled_time, _stats_tuple(stats), res.factors.perm.tobytes()))
    report.check("repeat run bit-identical", runs[0], runs[1])
    joiner.finish()
    _no_kernel_charges(report, joiner, root)


def _verify_ilu0(analysis: CostAnalysis, report: CostReport, root: Path) -> None:
    from ..decomp import decompose
    from ..ilu.parallel_ilu0 import parallel_ilu0
    from ..matrices import poisson2d

    A = poisson2d(_MESH)
    decomp = decompose(A, _NRANKS, seed=0)
    joiner = _Joiner(report, analysis, root)
    runs = []
    for attempt in ("run-1", "run-2"):
        sim, ledger = _ledgered_sim(_NRANKS)
        res = parallel_ilu0(A, _NRANKS, transport=sim, decomp=decomp, seed=0)
        stats = sim.stats()
        sim.close()
        messages, words = _ilu0_comm(A, decomp, res.factors)
        env = {
            "p": float(_NRANKS),
            "classes": float(res.num_levels),
            "ilu0_messages": float(messages),
            "ilu0_words": words,
        }
        joiner.join_run(ledger, env, attempt)
        _check_components(report, attempt, stats, env)
        report.check(
            f"{attempt}: result.flops == total_flops",
            float(stats.total_flops),
            float(res.flops),
        )
        report.check(
            f"{attempt}: compute totals integer-valued",
            True,
            _is_integral(ledger.total("compute")),
        )
        runs.append((res.modeled_time, _stats_tuple(stats), res.factors.perm.tobytes()))
    report.check("repeat run bit-identical", runs[0], runs[1])
    joiner.finish()
    _no_kernel_charges(report, joiner, root)


def _no_kernel_charges(report: CostReport, joiner: _Joiner, root: Path) -> None:
    """No charge may ever attribute to the kernels surface."""
    offenders = sorted(
        {
            f"{_rel(ev.file, root)}:{ev.line}"
            for ledger in joiner.ledgers
            for ev in ledger.events
            if _rel(ev.file, root).startswith(KERNELS_PREFIX)
        }
    )
    if offenders:
        report.check(
            "kernels surface charge-free at runtime", [], offenders,
            detail="ledger events attributed to repro.kernels modules",
        )


_HARNESSES = {
    "parallel_matvec": _verify_matvec,
    "parallel_triangular_solve": _verify_triangular,
    "distributed_two_step_luby_mis": _verify_mis,
    "EliminationEngine.run": _verify_elimination,
    "InterfacePartitionEngine.run": _verify_interface_partition,
    "parallel_ilu0": _verify_ilu0,
}


def verify_costs(project: "ProjectContext") -> list[CostReport]:
    """Certify every comm root's charges against its static model.

    ``project.root`` anchors the ledger's file paths to the module
    relpaths.
    """
    root = project.root
    reports: list[CostReport] = []
    for analysis in analyze_costs(project):
        report = CostReport(
            module=analysis.module,
            qualname=analysis.qualname,
            expressions=_spec_expressions(analysis),
            problems=list(analysis.problems),
            sites=len(analysis.sites),
        )
        harness = _HARNESSES.get(analysis.qualname)
        if harness is not None and not report.problems:
            try:
                harness(analysis, report, root)
            except Exception as err:  # noqa: BLE001 - surfaced as drift
                report.problems.append(
                    f"harness failed: {type(err).__name__}: {err}"
                )
        reports.append(report)
    return reports
