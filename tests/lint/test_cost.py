"""Cost certification: the ledger, the static analysis, drift detection.

Three layers under test:

* :class:`repro.machine.ChargeLedger` — charge events carry the driver
  source line, recording never perturbs results;
* :mod:`repro.lint.flow.cost` — the static side: charge-site
  extraction over the callgraph closure, loop-bound derivation, the
  symbolic expression evaluator, kernels-surface scanning;
* :mod:`repro.lint.costverify` — the runtime join: every root
  certifies on the seeded instances, and a wrong cost model (or an
  unknown charge site) is reported as drift, not silently absorbed.

Plus the bit-identity oracle for the PERF001 fix in ``parallel_ilu0``:
the vectorized per-class need computation must reproduce the scalar
``A.row`` walk's charge dictionaries exactly — same keys, same
insertion order, same float bit patterns.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.lint import LintConfig, ModuleContext, ProjectContext, load_project
from repro.lint.comm import COMM_ROOTS
from repro.lint.flow.cost import COST_SPECS, CostExpr, analyze_costs

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def project():
    return load_project([REPO / "src" / "repro"], LintConfig(project_root=REPO))


@pytest.fixture(scope="module")
def analyses(project):
    return {a.qualname: a for a in analyze_costs(project)}


class TestCostExpr:
    def test_evaluates_polynomials(self):
        e = CostExpr("2*nnz_L + 2*nnz_U - n")
        assert e.params == frozenset({"nnz_L", "nnz_U", "n"})
        assert e.evaluate({"nnz_L": 10, "nnz_U": 12, "n": 5}) == 39.0

    def test_missing_parameter_raises(self):
        with pytest.raises(KeyError):
            CostExpr("2*nnz").evaluate({"n": 4})

    def test_unsupported_syntax_rejected(self):
        with pytest.raises(ValueError):
            CostExpr("nnz**2").evaluate({"nnz": 3})
        with pytest.raises(ValueError):
            CostExpr("n if n else 1").evaluate({"n": 3})


class TestStaticAnalysis:
    def test_every_registered_root_is_analyzed(self, analyses):
        for _module, qualname in COMM_ROOTS:
            assert qualname in analyses, qualname

    def test_no_static_problems_in_repo(self, analyses):
        for a in analyses.values():
            assert a.problems == [], (a.qualname, a.problems)

    def test_matvec_site_inventory(self, analyses):
        a = analyses["parallel_matvec"]
        kinds = sorted(s.kind for s in a.sites)
        assert kinds == ["barrier", "compute", "send"]
        assert all(s.module == "src/repro/solvers/parallel_matvec.py" for s in a.sites)

    def test_mis_round_loop_count_derived(self, analyses):
        a = analyses["distributed_two_step_luby_mis"]
        by_kind = {s.kind: s for s in a.sites if s.count_expr}
        assert "compute" in by_kind
        # the per-round compute sits under rounds x ("insert","remove") x p
        assert "rounds" in by_kind["compute"].count_expr
        assert "2" in by_kind["compute"].count_expr

    def test_inherited_sites_resolved_through_mro(self, analyses):
        a = analyses["InterfacePartitionEngine.run"]
        mods = {s.module for s in a.sites}
        # the partitioned engine has no charge site of its own: every
        # charge goes through the inherited skeleton (_charge_ops et al.)
        assert mods == {"src/repro/ilu/elimination.py"}

    def test_kernels_surface_is_statically_charge_free(self, analyses):
        surface = analyses["<charge-free surface>"]
        assert surface.problems == []

    def test_charge_under_kernels_is_reported(self, project):
        bad = ModuleContext.from_source(
            "src/repro/kernels/rogue.py", "def f(sim):\n    sim.compute(0, 1.0)\n"
        )
        rogue = ProjectContext(REPO, [*project.modules, bad])
        out = {a.qualname: a for a in analyze_costs(rogue)}
        assert out["<charge-free surface>"].problems


class TestChargeLedger:
    def test_events_carry_the_driver_line(self):
        from repro.machine import CRAY_T3D, ChargeLedger, Simulator

        led = ChargeLedger()
        sim = Simulator(2, CRAY_T3D, ledger=led)
        sim.compute(0, 5.0)  # <- the attributed line
        sim.barrier()
        sim.close()
        kinds = [ev.kind for ev in led.events]
        assert kinds == ["compute", "barrier"]
        assert all(ev.file.endswith("test_cost.py") for ev in led.events)
        assert led.total("compute") == 5.0
        assert led.count("barrier") == 1

    def test_ledgered_run_is_bit_identical(self):
        from repro.ilu import parallel_ilut
        from repro.ilu.params import ILUTParams
        from repro.machine import CRAY_T3D, ChargeLedger, Simulator
        from repro.matrices import poisson2d

        A = poisson2d(6)
        outs = []
        for ledger in (None, ChargeLedger()):
            sim = Simulator(2, CRAY_T3D, ledger=ledger)
            res = parallel_ilut(
                A, ILUTParams(fill=4, threshold=1e-3), 2, seed=0, transport=sim
            )
            stats = sim.stats()
            sim.close()
            outs.append(
                (
                    res.modeled_time,
                    stats.total_flops,
                    stats.messages,
                    stats.words_sent,
                    res.factors.L.data.tobytes(),
                    res.factors.U.data.tobytes(),
                )
            )
        assert outs[0] == outs[1]


class TestVerifyCosts:
    @pytest.fixture(scope="class")
    def reports(self, project):
        from repro.lint.costverify import verify_costs

        return {r.qualname: r for r in verify_costs(project)}

    def test_all_roots_certified(self, reports):
        assert len(reports) == len(COMM_ROOTS) + 1  # + kernels surface
        for r in reports.values():
            bad = [c for c in r.checks if c.status != "ok"]
            assert r.certified, (r.qualname, r.problems, [c.name for c in bad])

    def test_every_root_ran_and_checked(self, reports):
        for _module, qualname in COMM_ROOTS:
            r = reports[qualname]
            assert r.runs == 2 and r.checks, qualname

    def test_wrong_closed_form_is_drift(self, project, monkeypatch):
        from repro.lint.costverify import verify_costs
        from repro.lint.flow import cost as cost_mod

        key = "src/repro/solvers/parallel_matvec.py::parallel_matvec"
        spec = cost_mod.COST_SPECS[key]
        import dataclasses

        monkeypatch.setitem(
            cost_mod.COST_SPECS, key, dataclasses.replace(spec, flops="3*nnz")
        )
        reports = {r.qualname: r for r in verify_costs(project)}
        r = reports["parallel_matvec"]
        assert not r.certified
        drifts = [c for c in r.checks if c.status == "drift"]
        assert any("flops == 3*nnz" in c.name for c in drifts)

    def test_unknown_charge_site_is_drift(self, analyses):
        from repro.lint import costverify
        from repro.machine import ChargeLedger

        led = ChargeLedger()
        led.record("compute", 0, 1.0)  # attributed to THIS test file
        report = costverify.CostReport(module="m", qualname="q")
        joiner = costverify._Joiner(
            report=report, analysis=analyses["parallel_matvec"], root_dir=REPO
        )
        joiner.join_run(led, {}, "probe")
        drifts = [c for c in report.checks if c.status == "drift"]
        assert any("statically known" in c.name for c in drifts)

    def test_unfired_site_is_drift(self, analyses):
        from repro.lint import costverify

        report = costverify.CostReport(module="m", qualname="q")
        joiner = costverify._Joiner(
            report=report, analysis=analyses["parallel_matvec"], root_dir=REPO
        )
        joiner.finish()  # no runs joined: every non-fault site unfired
        drifts = [c for c in report.checks if c.status == "drift"]
        assert len(drifts) == len(analyses["parallel_matvec"].sites)


class TestIlu0NeedRewriteOracle:
    """The vectorized per-class comm-charge computation in
    ``parallel_ilu0`` (the PERF001 fix) against the scalar pre-fix walk.
    """

    def test_need_dicts_bit_identical(self):
        from repro.decomp import decompose
        from repro.ilu.parallel_ilu0 import parallel_ilu0
        from repro.kernels import csr_gather_rows
        from repro.matrices import poisson2d

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

    def test_modeled_run_reproduces_exactly(self):
        from repro.decomp import decompose
        from repro.ilu.parallel_ilu0 import parallel_ilu0
        from repro.machine import CRAY_T3D, Simulator
        from repro.matrices import poisson2d

        A = poisson2d(8)
        decomp = decompose(A, 3, seed=0)
        runs = []
        for _ in range(2):
            sim = Simulator(3, CRAY_T3D)
            res = parallel_ilu0(A, 3, decomp=decomp, seed=0, transport=sim)
            stats = sim.stats()
            sim.close()
            runs.append(
                (
                    res.modeled_time,
                    stats.total_flops,
                    stats.messages,
                    stats.words_sent,
                    stats.barriers,
                    res.factors.L.data.tobytes(),
                    res.factors.U.data.tobytes(),
                )
            )
        assert runs[0] == runs[1]


def test_cost_specs_reference_registered_roots():
    keys = {f"{m}::{q}" for m, q in COMM_ROOTS}
    assert set(COST_SPECS) == keys
