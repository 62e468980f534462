"""Every rule must flag its bad fixture and pass the clean twin.

The fixtures under ``fixtures/`` are the rules' self-test: one snippet
per rule exhibiting the defect (with the expected finding count) and a
clean twin exercising the rule's documented exemptions.
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

#: case -> (bad fixture, expected findings in it, clean twin); a case is
#: named by its rule id, plus a suffix for a rule's second pair
SNIPPET_CASES = {
    "DET001": ("det001_bad.py", 3, "det001_clean.py"),
    "DET002": ("det002_bad.py", 3, "det002_clean.py"),
    "DET003": ("det003_bad.py", 2, "det003_clean.py"),
    "DET004": ("det004_bad.py", 2, "det004_clean.py"),
    "PAR002": ("par002_bad.py", 2, "par002_clean.py"),
    "BRK001": ("brk001_bad.py", 2, "brk001_clean.py"),
    "TRN003": ("trn003_bad.py", 2, "trn003_clean.py"),
    "TRN004": ("trn004_bad.py", 2, "trn004_clean.py"),
    "PERF001": ("perf001_bad.py", 2, "perf001_clean.py"),
}


def lint_one(path: Path, rule: str):
    return run_lint([path], LintConfig(select=(rule,), project_root=FIXTURES))


@pytest.mark.parametrize("case", sorted(SNIPPET_CASES))
def test_bad_fixture_is_flagged(case):
    rule = case.split("-")[0]
    bad, expected, _clean = SNIPPET_CASES[case]
    findings = lint_one(FIXTURES / bad, rule)
    assert len(findings) == expected, [f.render() for f in findings]
    assert all(f.rule == rule for f in findings)
    assert all(f.line > 0 and f.message for f in findings)


@pytest.mark.parametrize("case", sorted(SNIPPET_CASES))
def test_clean_twin_passes(case):
    _bad, _expected, clean = SNIPPET_CASES[case]
    findings = lint_one(FIXTURES / clean, case.split("-")[0])
    assert findings == [], [f.render() for f in findings]


class TestRuleScoping:
    def test_select_restricts_rules(self):
        findings = run_lint(
            [FIXTURES / "det001_bad.py"],
            LintConfig(select=("TRN003",), project_root=FIXTURES),
        )
        assert findings == []

    def test_ignore_drops_rules(self):
        findings = run_lint(
            [FIXTURES / "det001_bad.py"],
            LintConfig(ignore=("DET001",), project_root=FIXTURES),
        )
        assert all(f.rule != "DET001" for f in findings)

    def test_findings_are_sorted(self):
        findings = run_lint([FIXTURES], LintConfig(project_root=FIXTURES))
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)


def test_repo_is_lint_clean():
    """The acceptance invariant, over exactly what CI lints (with the
    directory profiles): no findings, and nothing frozen or suppressed."""
    repo = Path(__file__).resolve().parents[2]
    findings = run_lint(
        [repo / "src" / "repro", repo / "tests", repo / "benchmarks"],
        LintConfig(project_root=repo),
    )
    assert findings == [], [f.render() for f in findings]


def test_perf001_counts_exchange_as_a_charge(tmp_path):
    """A function whose only charge is ``sim.exchange`` is cost-charged
    (``flow/cost.py`` always said so; the rule used its own list)."""
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def halo_walk(A, sim, messages):\n"
        "    for i in range(A.shape[0]):\n"
        "        cols, vals = A.row(i)\n"
        "    sim.exchange(messages, tag='halo')\n"
    )
    findings = run_lint([mod], LintConfig(select=("PERF001",), project_root=tmp_path))
    assert [(f.rule, f.line) for f in findings] == [("PERF001", 3)]
