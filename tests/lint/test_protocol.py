"""Symbolic protocol verifier: real drivers certify, seeded bugs don't."""

from pathlib import Path

import pytest

from repro.lint import LintConfig, load_project
from repro.lint.comm import COMM_ROOTS
from repro.lint.flow import verify_drivers

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _project(path: Path):
    return load_project([path], LintConfig(project_root=REPO))


@pytest.fixture(scope="module")
def repo_reports():
    return verify_drivers(_project(REPO / "src" / "repro"))


def test_all_registered_drivers_certify(repo_reports):
    by_qualname = {r.qualname: r for r in repo_reports}
    for _relpath, qualname in COMM_ROOTS:
        assert qualname in by_qualname, sorted(by_qualname)
        r = by_qualname[qualname]
        assert r.certified, [(p.kind, p.line, p.message) for p in r.problems]
        assert r.ranks == (2, 3, 4)
        assert r.paths >= 1


def test_certification_covers_real_communication(repo_reports):
    # the certificate is vacuous unless the executor actually walked
    # posts and drains across the drivers
    assert sum(r.posts for r in repo_reports) > 0
    assert sum(r.drains for r in repo_reports) > 0
    assert sum(r.collectives for r in repo_reports) > 0


def test_seeded_deadlock_fixture_is_detected():
    reports = verify_drivers(_project(FIXTURES / "deadlock_bad.py"))
    assert reports, "fixture driver not discovered"
    report = reports[0]
    assert not report.certified
    kinds = {p.kind for p in report.problems}
    assert "deadlock" in kinds, kinds
    assert "undrained-at-collective" in kinds, kinds
    lines = {p.line for p in report.problems if p.kind == "deadlock"}
    assert lines == {15}  # the mis-tagged recv


def test_clean_twin_certifies():
    reports = verify_drivers(_project(FIXTURES / "deadlock_clean.py"))
    assert reports
    report = reports[0]
    assert report.certified, [(p.kind, p.message) for p in report.problems]
    assert report.posts > 0 and report.drains > 0


def test_rank_count_is_parameterizable():
    reports = verify_drivers(_project(FIXTURES / "deadlock_clean.py"), ranks=(2,))
    assert reports and reports[0].ranks == (2,)
    assert reports[0].certified
