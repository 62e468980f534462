"""The two passes over a prepared workload.

``measure_pass`` times the stages with tracing off and is the only
source of end-to-end numbers.  ``traced_pass`` runs the same stages once
more per cycle under the profiler (see ``tracing``) and reads the counts
off the public result objects; its seconds are inflated by the profiler
and are only ever compared with each other.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

from repro.decomp import decompose
from repro.machine import SupervisionPolicy, resolve_transport
from repro.partition import partition_matrix_kway
from repro.solvers import parallel_matvec

import tracing
from workloads import Prepared

#: per cycle: one solve, one factorization, this many applies and GMRES
#: runs (the cheap stages get more samples for the same seconds)
APPLIES_PER_CYCLE = 3
GMRES_PER_CYCLE = 2


def timed_call(fn: Callable[[], Any]) -> tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Tally:
    """Attempted and failed operations; an operation is a timed call or
    an output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, what: str, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Time ``fn``; an exception is a failed operation, not a crash."""
        self.attempted += 1
        try:
            return timed_call(fn)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None, 0.0

    def check(self, what: str, out: Any, checker: Callable[[Any], str | None]) -> None:
        if out is None:
            return  # the call itself already failed
        self.attempted += 1
        reason = checker(out)
        if reason is not None:
            self._fail(f"{what}: {reason}")

    def _fail(self, line: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(line)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def measure_pass(p: Prepared, seconds: float, tally: Tally) -> dict[str, list[float]]:
    """Closed loop, one caller: cycle through the stages until ``seconds``
    have passed, at least once."""
    samples: dict[str, list[float]] = defaultdict(list)

    def timed(metric: str, stage: Callable[[], Any], checker: Callable[[Any], str | None]) -> None:
        out, dt = tally.run(metric, stage)
        tally.check(metric, out, checker)
        if out is not None:
            samples[metric].append(dt)

    deadline = time.perf_counter() + seconds
    with p.backend():
        while True:
            b = next(p.rhs)
            timed("time_to_solution_s", lambda: p.solve(b), lambda r: p.check_solution(r, b))
            timed("factor_s", p.factor, p.check_factor)
            for _ in range(APPLIES_PER_CYCLE):
                timed("apply_s", p.apply, p.check_apply)
            for _ in range(GMRES_PER_CYCLE):
                b = next(p.rhs)
                timed("gmres_s", lambda: p.gmres(b), lambda r: p.check_solution(r, b))
            if time.perf_counter() >= deadline:
                break
    return dict(samples)


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

_TRANSPORT_WAITS = ("wait", "fork", "pickle")


def _on_own_transport(p: Prepared, stage: Callable[[Any], Any]) -> tuple[Any, tracing.PardoMeter]:
    """Run ``stage(transport)`` on a transport built, metered and closed
    here, inside the caller's span — what passing the name does inside
    the library, plus the ``pardo`` meter."""
    transport = resolve_transport(p.wl.transport, p.wl.ranks)
    meter = tracing.PardoMeter(transport)
    try:
        return stage(transport), meter
    finally:
        if transport is not None:
            transport.close()


def _stage_values(stage: str, span: float, buckets: dict[str, float]) -> dict[str, float]:
    """Name one stage's buckets ``<layer>.<stage>_self_s``; the transport
    primitives are machine's, as ``machine.<stage>_{wait,fork,pickle}_s``."""
    out = {f"bench.{stage}_span_s": span}
    for bucket, seconds in buckets.items():
        if bucket in _TRANSPORT_WAITS:
            out[f"machine.{stage}_{bucket}_s"] = seconds
        else:
            out[f"{bucket}.{stage}_self_s"] = seconds
    return out


def traced_cycle(p: Prepared, tally: Tally) -> dict[str, float]:
    """Every per-layer value of one cycle, by metric name.  Only the
    output checks are operations here; an exception ends the pass."""
    wl = p.wl
    v: dict[str, float] = {"matrices.generate_s": p.generate_s}
    simulated = wl.transport == "simulator"

    # partition / decomp: plain spans around the public calls, then the
    # decomposition once more under the profiler for the layer split
    if wl.ranks > 1:
        part, v["partition.kway_s"] = timed_call(
            lambda: partition_matrix_kway(p.A, wl.ranks, seed=0)
        )
        v["partition.edge_cut"] = float(part.edge_cut)
        v["partition.imbalance"] = float(part.balance)
    _d, v["decomp.decompose_s"] = timed_call(lambda: decompose(p.A, wl.ranks, seed=0))
    v["decomp.interface_rows"] = float(p.decomp.n_interface)
    v["decomp.interface_fraction"] = float(p.decomp.interface_fraction())
    _d, span, buckets = tracing.profile_stage(lambda: decompose(p.A, wl.ranks, seed=0))
    v.update(_stage_values("decompose", span, buckets))

    # factor: traced with a metered transport, then untraced by name
    (fact, meter), span, buckets = tracing.profile_stage(
        lambda: _on_own_transport(p, p.factor)
    )
    tally.check("traced factor", fact, p.check_factor)
    v.update(_stage_values("factor", span, buckets))
    v["machine.factor_pardo_calls"] = float(meter.calls)
    v["machine.factor_pardo_s"] = meter.seconds
    v["ilu.num_levels"] = float(fact.num_levels)
    v["ilu.mean_level_size"] = float(np.mean(fact.level_sizes)) if fact.level_sizes else 0.0
    v["ilu.fill_nnz"] = float(fact.factors.L.nnz + fact.factors.U.nnz)
    v["ilu.factor_flops"] = float(fact.flops)
    v["ilu.words_copied"] = float(fact.words_copied)
    retries = fact.recoveries
    if fact.comm is not None:
        v["machine.factor_messages"] = float(fact.comm.messages)
        v["machine.factor_words_sent"] = float(fact.comm.words_sent)
        v["machine.factor_barriers"] = float(fact.comm.barriers)
        v["machine.load_imbalance"] = float(fact.comm.load_imbalance())
    if simulated:
        v["machine.modeled_factor_s"] = float(fact.modeled_time)

    _f, untraced = timed_call(p.factor)
    v["bench.untraced_factor_s"] = untraced
    v["bench.trace_overhead_ratio"] = span / untraced
    if wl.transport in ("threads", "processes"):
        # the pair is interleaved with the supervised sample just taken
        _f, raw = timed_call(lambda: p.factor(supervision=SupervisionPolicy(deadline=None)))
        v["machine.supervision_ratio"] = untraced / raw

    # apply: mean of a few traced applies
    acc: dict[str, float] = defaultdict(float)
    for _ in range(APPLIES_PER_CYCLE):
        (sol, meter), span, buckets = tracing.profile_stage(
            lambda: _on_own_transport(p, p.apply)
        )
        tally.check("traced apply", sol, p.check_apply)
        for name, seconds in _stage_values("apply", span, buckets).items():
            acc[name] += seconds / APPLIES_PER_CYCLE
        acc["machine.apply_pardo_s"] += meter.seconds / APPLIES_PER_CYCLE
    v.update(acc)
    v["machine.apply_pardo_calls"] = float(meter.calls)
    retries += sol.recoveries
    if sol.comm is not None:
        v["machine.apply_messages"] = float(sol.comm.messages)
        v["machine.apply_barriers"] = float(sol.comm.barriers)
    if simulated:
        v["machine.modeled_apply_s"] = float(sol.modeled_time)
    v["machine.region_retries"] = float(retries)

    # gmres
    res, span, buckets = tracing.profile_stage(lambda: p.gmres(p.b))
    tally.check("traced gmres", res, lambda r: p.check_solution(r, p.b))
    v.update(_stage_values("gmres", span, buckets))
    v["solvers.gmres_matvecs"] = float(res.num_matvec)
    v["solvers.rel_residual"] = p.rel_residual(res.x, p.b)

    # the matvec probe parallel_solve runs between factor and GMRES
    mv, v["solvers.parallel_matvec_s"] = timed_call(
        lambda: parallel_matvec(p.A, p.decomp, np.ones(p.A.shape[0]), transport=wl.transport)
    )
    if simulated:
        v["machine.modeled_matvec_s"] = float(mv.modeled_time)
    return v


def traced_pass(p: Prepared, seconds: float, min_cycles: int, tally: Tally) -> list[dict[str, float]]:
    """Traced cycles until ``seconds`` have passed (at least ``min_cycles``)."""
    cycles: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    with p.backend():
        while len(cycles) < min_cycles or time.perf_counter() < deadline:
            cycles.append(traced_cycle(p, tally))
    return cycles
