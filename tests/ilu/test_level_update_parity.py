"""The MIS engine's batched level update against the scalar row kernel.

``ScalarLevelEngine`` is the engine with one method swapped: its level
update is the inherited row-at-a-time ``_update_remaining`` — the path
phase 1 and the §7 partition engine still run, and what the MIS loop ran
before the level kernel existed.  Everything observable must be *equal*
between the two, not close: factor bits, permutation, level sizes, flop
and copy counters, modelled time, every ``CommStats`` field and the
tracer's cells.
"""

from dataclasses import asdict

import numpy as np
import pytest

import repro.ilu.parallel as parallel_module
from repro import ILUTParams
from repro.ilu import parallel_ilut, parallel_ilut_star
from repro.ilu.elimination import EliminationEngine
from repro.matrices import (
    anisotropic2d,
    convection_diffusion2d,
    poisson2d,
    random_diag_dominant,
    torso_like,
)


class ScalarLevelEngine(EliminationEngine):
    def _update_level(self, pivots):
        # ascending ordinals are ascending columns: the keys the MIS loop
        # used to pass, ``_pivot_keys(iset, iset)``, up to relabelling
        self._update_remaining(pivots.ordinal)


MATRICES = {
    "poisson": lambda: poisson2d(9),
    "poisson-rect": lambda: poisson2d(11, 7),
    "torso": lambda: torso_like(140, seed=1),
    "convdiff": lambda: convection_diffusion2d(9),
    "aniso": lambda: anisotropic2d(9),
    "rdd": lambda: random_diag_dominant(70, 6, seed=3),
    "rdd-unsym": lambda: random_diag_dominant(50, 5, seed=4, symmetric_pattern=False),
}
# (m, t, k): ILUT and ILUT*, incl. no threshold, no fill, the tightest cap
SETTINGS = [
    (5, 1e-3, None),
    (5, 1e-3, 2),
    (10, 1e-4, 2),
    (3, 0.0, None),
    (3, 0.0, 1),
    (0, 1e-2, None),
    (4, 1e-2, 1),
]


def factor(monkeypatch, engine, A, mtk, p, **kwargs):
    m, t, k = mtk
    monkeypatch.setattr(parallel_module, "EliminationEngine", engine)
    fn = parallel_ilut if k is None else parallel_ilut_star
    return fn(A, ILUTParams(fill=m, threshold=t, k=k), p, seed=0, **kwargs)


def observable(res):
    f = res.factors
    out = {
        name: (a.dtype, a.tobytes())
        for name, a in (
            ("L.indptr", f.L.indptr), ("L.indices", f.L.indices), ("L.data", f.L.data),
            ("U.indptr", f.U.indptr), ("U.indices", f.U.indices), ("U.data", f.U.data),
            ("perm", f.perm),
        )
    }
    out.update(
        level_sizes=res.level_sizes,
        flops=res.flops,
        words_copied=res.words_copied,
        modeled_time=res.modeled_time,
        comm=None if res.comm is None else asdict(res.comm),
        recoveries=res.recoveries,
    )
    if res.trace is not None:
        out["trace"] = [
            (key, [(a.rank, a.kind, a.clock, a.epoch, a.seq) for a in accesses])
            for key, accesses in res.trace.cells()
        ]
    return out


def assert_equal_runs(monkeypatch, A, mtk, p, **kwargs):
    batched = observable(factor(monkeypatch, EliminationEngine, A, mtk, p, **kwargs))
    scalar = observable(factor(monkeypatch, ScalarLevelEngine, A, mtk, p, **kwargs))
    for key in scalar:
        assert batched[key] == scalar[key], key
    return batched


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("name", list(MATRICES))
def test_simulator_runs_are_equal(monkeypatch, name, p):
    A = MATRICES[name]()
    for mtk in SETTINGS:
        out = assert_equal_runs(monkeypatch, A, mtk, p, backend="reference")
        assert p == 1 or sum(out["level_sizes"]) > 0, "no phase 2: nothing compared"


@pytest.mark.parametrize("name", ["torso", "convdiff", "rdd-unsym"])
def test_vectorized_backend_and_no_transport(monkeypatch, name):
    A = MATRICES[name]()
    for mtk in SETTINGS:
        assert_equal_runs(monkeypatch, A, mtk, 3, backend="vectorized")
        assert_equal_runs(monkeypatch, A, mtk, 4, transport="none")


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("name", ["poisson", "torso", "rdd-unsym"])
def test_traced_runs_declare_the_same_accesses(monkeypatch, name, backend):
    A = MATRICES[name]()
    for mtk in [(5, 1e-3, 2), (3, 0.0, None)]:
        out = assert_equal_runs(monkeypatch, A, mtk, 4, backend=backend, trace=True)
        assert any(space == "u-row" for (space, _), _ in out["trace"])


@pytest.mark.parametrize("transport", ["threads", "processes"])
def test_worker_transports_are_equal(monkeypatch, transport):
    # a forked replica inherits the patched engine class, so both sides
    # really run their own update on the workers
    A = MATRICES["torso"]()
    on_workers = assert_equal_runs(monkeypatch, A, (5, 1e-3, 2), 3, transport=transport)
    on_simulator = observable(
        factor(monkeypatch, EliminationEngine, A, (5, 1e-3, 2), 3, transport="simulator")
    )
    assert on_workers == on_simulator


def test_scalar_engine_really_takes_the_row_kernel(monkeypatch):
    """Guard the oracle: the subclass must never enter the level kernel,
    and the engine must never leave it for the row-at-a-time update."""
    calls = {"scalar": 0, "batched": 0}
    real_scalar = EliminationEngine._update_remaining
    real_batched = EliminationEngine._compute_level_update

    def scalar(self, pkey):
        calls["scalar"] += 1
        real_scalar(self, pkey)

    def batched(self, rows, pivots):
        calls["batched"] += 1
        return real_batched(self, rows, pivots)

    monkeypatch.setattr(EliminationEngine, "_update_remaining", scalar)
    monkeypatch.setattr(EliminationEngine, "_compute_level_update", batched)
    A = MATRICES["poisson"]()
    res = factor(monkeypatch, ScalarLevelEngine, A, (5, 1e-3, None), 4)
    assert calls == {"scalar": res.num_levels, "batched": 0}
    calls.update(scalar=0)
    factor(monkeypatch, EliminationEngine, A, (5, 1e-3, None), 4)
    assert calls["scalar"] == 0 and calls["batched"] > 0


def test_dependent_level_raises_instead_of_batching():
    """A pivot set that is not independent must not reach the kernel."""
    from repro.decomp import decompose

    class DependentLevels(EliminationEngine):
        def _mis_of_reduced(self, remaining, level):
            return remaining  # every remaining row at once: coupled pivots

    engine = DependentLevels(decompose(poisson2d(8), 4, seed=0), 5, 1e-3)
    with pytest.raises(ValueError, match="not independent"):
        engine.run()
