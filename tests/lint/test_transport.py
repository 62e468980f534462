"""Transport-portability analyzer: real drivers certify, seeded bugs
don't, and a hazard anywhere in a driver's call closure fails it."""

import ast
from pathlib import Path

import pytest

from repro.lint.flow import analyze_transport, infer_types, verify_transport
from repro.lint import LintConfig, ModuleContext, ProjectContext, load_project
from repro.lint.flow.pytypes import dtype_violation

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _project(path: Path):
    return load_project([path], LintConfig(project_root=REPO))


def _source_project(relpath: str, source: str):
    return ProjectContext(REPO, [ModuleContext.from_source(relpath, source)])


@pytest.fixture(scope="module")
def repo_project():
    return _project(REPO / "src" / "repro")


@pytest.fixture(scope="module")
def repo_reports(repo_project):
    return verify_transport(repo_project)


# ---------------------------------------------------------------- repo


def test_every_driver_certifies(repo_reports):
    assert repo_reports
    for r in repo_reports:
        assert r.certified, [(p.rule, p.module, p.line, p.message) for p in r.problems]
    quals = {r.qualname for r in repo_reports}
    # the registered drivers plus the auto-discovered comm roots
    assert "EliminationEngine.run" in quals
    assert "parallel_triangular_solve" in quals
    assert "parallel_matvec" in quals


def test_certification_walks_real_closures(repo_reports):
    # the certificate is vacuous unless the analyzer actually walked
    # the functions the drivers call
    assert sum(r.functions for r in repo_reports) >= 20


def test_repo_comm_closure_has_no_problems(repo_project):
    assert analyze_transport(repo_project) == []


# ------------------------------------------------------------ fixtures


@pytest.mark.parametrize("name", ["trn003", "trn004"])
def test_seeded_fixture_fails_certification(name):
    reports = verify_transport(_project(FIXTURES / f"{name}_bad.py"))
    assert reports, "fixture comm roots not discovered as drivers"
    assert any(not r.certified for r in reports)
    rules = {p.rule for r in reports for p in r.problems}
    assert rules == {name.upper()}, rules


@pytest.mark.parametrize("name", ["trn003", "trn004"])
def test_clean_twin_certifies(name):
    reports = verify_transport(_project(FIXTURES / f"{name}_clean.py"))
    assert reports
    for r in reports:
        assert r.certified, [(p.rule, p.line, p.message) for p in r.problems]


def test_hazard_in_a_callee_fails_the_calling_driver():
    """Rank-executed code is the whole call closure: a thunk body two
    calls away from the driver is checked, and the problem names it."""
    src = (
        "import numpy as np\n"
        "\n"
        "def rows_of(n):\n"
        "    return np.arange(n)\n"
        "\n"
        "def thunk_body(n):\n"
        "    return rows_of(n)\n"
        "\n"
        "def driver(sim, rank, dst, n):\n"
        "    rows = thunk_body(n)\n"
        "    sim.exchange([(rank, dst, float(n))], tag='row')\n"
        "    return rows\n"
    )
    reports = verify_transport(_source_project("pkg/mod.py", src))
    assert [r.qualname for r in reports] == ["driver"]
    [report] = reports
    assert not report.certified and report.functions == 3
    assert [(p.rule, p.function) for p in report.problems] == [("TRN004", "rows_of")]


# ------------------------------------------------------------- pytypes


class TestTypeInference:
    def _env(self, src: str):
        func = ast.parse(src).body[0]
        return infer_types(func)

    def test_numpy_ctor_and_annotation_seeding(self):
        env = self._env(
            "def f(sim, n: int):\n"
            "    a = np.zeros(n)\n"
            "    b = np.arange(n)\n"
            "    m = n\n"
            "    rows = [m, 2]\n"
        )
        assert "sim" not in env  # unannotated: nothing definite
        assert env["n"] == env["m"] == "int"
        assert env["a"] == env["b"] == "ndarray"
        assert env["rows"] == "list"

    def test_conflicting_rebinds_merge_to_unknown(self):
        env = self._env(
            "def f(flag):\n"
            "    x = 1\n"
            "    x = 'two'\n"
        )
        assert env["x"] == "unknown"

    def test_dtype_violation_judgements(self):
        def first_call(src):
            tree = ast.parse(src, mode="eval")
            return tree.body

        assert dtype_violation(first_call("np.arange(5)"))
        assert not dtype_violation(first_call("np.arange(0.0, 1.0, 0.1)"))
        assert dtype_violation(first_call("np.asarray(x, dtype=np.float32)"))
        assert not dtype_violation(first_call("np.zeros(5)"))
        assert not dtype_violation(first_call("np.array(rows)"))  # unknown content
        assert dtype_violation(first_call("np.array([1, 2, 3])"))
        # int-kind names count as integer content
        assert dtype_violation(first_call("np.array([n, 2])"), {"n": "int"})
        assert not dtype_violation(first_call("np.array([n, 2])"), {"n": "unknown"})
