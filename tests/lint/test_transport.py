"""Transport-portability analyzer: real drivers certify, seeded bugs
don't, and the static pickle-safety judgement agrees with runtime
pickling (hypothesis)."""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lint.flow import (
    AbsType,
    analyze_transport,
    infer_types,
    is_pickle_safe,
    unsafe_reason,
    verify_transport,
)
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


def test_certification_covers_real_payloads(repo_reports):
    # the certificate is vacuous unless the analyzer actually walked
    # functions and payload expressions across the drivers
    assert sum(r.payloads for r in repo_reports) >= 5
    assert sum(r.functions for r in repo_reports) >= 20


def test_repo_comm_closure_has_no_problems(repo_project):
    assert analyze_transport(repo_project) == []


# ------------------------------------------------------------ fixtures


@pytest.mark.parametrize("name", ["trn001", "trn002", "trn003", "trn004"])
def test_seeded_fixture_fails_certification(name):
    reports = verify_transport(_project(FIXTURES / f"{name}_bad.py"))
    assert reports, "fixture comm roots not discovered as drivers"
    assert any(not r.certified for r in reports)
    rules = {p.rule for r in reports for p in r.problems}
    assert rules == {name.upper()}, rules


@pytest.mark.parametrize("name", ["trn001", "trn002", "trn003", "trn004"])
def test_clean_twin_certifies(name):
    reports = verify_transport(_project(FIXTURES / f"{name}_clean.py"))
    assert reports
    for r in reports:
        assert r.certified, [(p.rule, p.line, p.message) for p in r.problems]


def test_escape_is_interprocedural():
    """A payload posted by a *callee* still pins the caller's buffer."""
    src = (
        "def post_row(sim, rank, dst, row):\n"
        "    sim.send(rank, dst, row, 1.0, tag='row')\n"
        "\n"
        "def driver(sim, rank, dst, buf):\n"
        "    post_row(sim, rank, dst, buf)\n"
        "    buf[0] = 1.0\n"
        "    return sim.recv(rank, dst, tag='row')\n"
    )
    problems = analyze_transport(_source_project("pkg/mod.py", src))
    trn001 = [p for p in problems if p.rule == "TRN001"]
    assert len(trn001) == 1
    assert trn001[0].function == "driver"
    assert "post_row" in trn001[0].message


def test_mutation_before_post_is_fine():
    src = (
        "def driver(sim, rank, dst, buf):\n"
        "    buf[0] = 1.0\n"
        "    sim.send(rank, dst, buf, 1.0, tag='row')\n"
        "    return sim.recv(rank, dst, tag='row')\n"
    )
    assert analyze_transport(_source_project("pkg/mod.py", src)) == []


def test_mutation_in_loop_after_post_is_flagged():
    """The loop back-edge makes an earlier-line mutation follow the post."""
    src = (
        "def driver(sim, rank, dst, buf, n):\n"
        "    for i in range(n):\n"
        "        buf[i] = float(i)\n"
        "        sim.send(rank, dst, buf, 1.0, tag=i)\n"
        "    for i in range(n):\n"
        "        sim.recv(rank, dst, tag=i)\n"
    )
    problems = analyze_transport(_source_project("pkg/mod.py", src))
    assert [p.rule for p in problems] == ["TRN001"]


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
            "    c = np.arange(n, dtype=np.int64)\n"
        )
        assert env["sim"].kind == "simulator"
        assert env["n"].kind == "int"
        assert env["a"] == AbsType("ndarray", dtype="float64")
        assert env["b"].dtype == "int_default"
        assert env["c"] == AbsType("ndarray", dtype="int64", dtype_explicit=True)

    def test_conflicting_rebinds_merge_to_unknown(self):
        env = self._env(
            "def f(flag):\n"
            "    x = 1\n"
            "    x = 'two'\n"
        )
        assert env["x"].kind == "unknown"

    def test_unsafe_kinds_have_reasons(self):
        env = self._env(
            "def f():\n"
            "    guard = threading.Lock()\n"
            "    rule = lambda x: x\n"
            "    rows = (i for i in range(3))\n"
        )
        for name in ("guard", "rule", "rows"):
            assert unsafe_reason(env[name]), name
        assert not unsafe_reason(AbsType("ndarray"))
        assert not unsafe_reason(AbsType("unknown"))

    def test_container_of_unsafe_is_unsafe(self):
        t = AbsType("list", elems=(AbsType("lambda"),))
        assert "lambda" in unsafe_reason(t)
        assert not is_pickle_safe(t)

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


# ---------------------------------------------- pickle-safety property

_safe_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20)
)
_safe_values = st.recursive(
    _safe_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


def _abs_of(v) -> AbsType:
    """The abstract type of a concrete runtime value."""
    if v is None:
        return AbsType("none")
    if isinstance(v, bool):
        return AbsType("bool")
    if isinstance(v, int):
        return AbsType("int")
    if isinstance(v, float):
        return AbsType("float")
    if isinstance(v, str):
        return AbsType("str")
    if isinstance(v, bytes):
        return AbsType("bytes")
    if isinstance(v, np.ndarray):
        return AbsType("ndarray", dtype=str(v.dtype))
    if isinstance(v, (list, tuple, set)):
        kind = type(v).__name__
        return AbsType(kind, elems=tuple(_abs_of(e) for e in v) or (AbsType("none"),))
    if isinstance(v, dict):
        elems = tuple(_abs_of(e) for kv in v.items() for e in kv)
        return AbsType("dict", elems=elems or (AbsType("none"),))
    return AbsType("unknown")


@given(_safe_values)
def test_statically_safe_values_round_trip_pickle_equal(v):
    """The runtime oracle of ``is_pickle_safe``: everything the static
    judgement certifies really survives ``pickle`` unchanged."""
    t = _abs_of(v)
    assert is_pickle_safe(t), t
    assert pickle.loads(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL)) == v


@given(st.lists(st.floats(allow_nan=False), max_size=8))
def test_ndarray_payloads_round_trip_bit_identical(xs):
    a = np.asarray(xs, dtype=np.float64)
    assert is_pickle_safe(_abs_of(a))
    b = pickle.loads(pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL))
    assert b.dtype == a.dtype and np.array_equal(a, b)


def test_statically_unsafe_values_really_fail_pickle():
    for v in (lambda x: x, (i for i in range(3)),):
        with pytest.raises(Exception):
            pickle.dumps(v)
