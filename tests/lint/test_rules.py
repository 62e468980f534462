"""Every rule must flag its bad fixture and pass the clean twin.

The fixtures under ``fixtures/`` are the rules' self-test: one snippet
per rule exhibiting the defect (with the expected finding count) and a
clean twin exercising the rule's documented exemptions.
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (bad fixture, expected findings in it, clean twin)
SNIPPET_CASES = {
    "SPMD001": ("spmd001_bad.py", 2, "spmd001_clean.py"),
    "SPMD002": ("spmd002_bad.py", 2, "spmd002_clean.py"),
    "SPMD003": ("spmd003_bad.py", 1, "spmd003_clean.py"),
    "DET001": ("det001_bad.py", 3, "det001_clean.py"),
    "DET002": ("det002_bad.py", 3, "det002_clean.py"),
    "DET003": ("det003_bad.py", 2, "det003_clean.py"),
    "DET004": ("det004_bad.py", 2, "det004_clean.py"),
    "PAR002": ("par002_bad.py", 2, "par002_clean.py"),
    "BRK001": ("brk001_bad.py", 2, "brk001_clean.py"),
    "SPMD004": ("deadlock_bad.py", 3, "deadlock_clean.py"),
    "SPMD005": ("spmd005_bad.py", 2, "spmd005_clean.py"),
    "DET005": ("det005_bad.py", 3, "det005_clean.py"),
    "TRN001": ("trn001_bad.py", 2, "trn001_clean.py"),
    "TRN002": ("trn002_bad.py", 2, "trn002_clean.py"),
    "TRN003": ("trn003_bad.py", 2, "trn003_clean.py"),
    "TRN004": ("trn004_bad.py", 2, "trn004_clean.py"),
    "PERF001": ("perf001_bad.py", 2, "perf001_clean.py"),
}

#: rule id -> fixture the *syntactic* rule used to flag, discharged by
#: the dataflow upgrade (constant folding / reaching-def aliasing).
DATAFLOW_DISCHARGED = {
    "SPMD002": "spmd002_constprop_clean.py",
    "SPMD003": "spmd003_alias_clean.py",
}


def lint_one(path: Path, rule: str):
    return run_lint([path], LintConfig(select=(rule,), project_root=FIXTURES))


@pytest.mark.parametrize("rule", sorted(SNIPPET_CASES))
def test_bad_fixture_is_flagged(rule):
    bad, expected, _clean = SNIPPET_CASES[rule]
    findings = lint_one(FIXTURES / bad, rule)
    assert len(findings) == expected, [f.render() for f in findings]
    assert all(f.rule == rule for f in findings)
    assert all(f.line > 0 and f.message for f in findings)


@pytest.mark.parametrize("rule", sorted(SNIPPET_CASES))
def test_clean_twin_passes(rule):
    _bad, _expected, clean = SNIPPET_CASES[rule]
    findings = lint_one(FIXTURES / clean, rule)
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("rule", sorted(DATAFLOW_DISCHARGED))
def test_dataflow_discharges_syntactic_false_positive(rule):
    findings = lint_one(FIXTURES / DATAFLOW_DISCHARGED[rule], rule)
    assert findings == [], [f.render() for f in findings]


def _lint_project(name: str, rule: str):
    root = FIXTURES / name
    return run_lint(
        [root / "src"], LintConfig(select=(rule,), project_root=root)
    )


class TestProjectRules:
    def test_par001_flags_untested_kernel(self):
        findings = _lint_project("par_proj_bad", "PAR001")
        assert len(findings) == 1
        assert "widget_vec" in findings[0].message

    def test_par001_clean_project_passes(self):
        assert _lint_project("par_proj_clean", "PAR001") == []

    def test_par003_flags_missing_twin_docstring(self):
        findings = _lint_project("par_proj_bad", "PAR003")
        assert len(findings) == 1
        assert "reference twin" in findings[0].message

    def test_par003_clean_project_passes(self):
        assert _lint_project("par_proj_clean", "PAR003") == []


class TestRuleScoping:
    def test_select_restricts_rules(self):
        findings = run_lint(
            [FIXTURES / "det001_bad.py"],
            LintConfig(select=("SPMD001",), project_root=FIXTURES),
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
