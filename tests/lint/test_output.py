"""Renderer contracts: the text and JSON report shapes."""

import json

from repro.lint import Finding, Severity
from repro.lint.output import render_json, render_text

FINDINGS = [
    Finding(
        rule="DET003",
        severity=Severity.WARNING,
        path="src/repro/x.py",
        line=3,
        col=8,
        message="float equality against 0.5",
        snippet="if x == 0.5:",
    ),
    Finding(
        rule="TRN003",
        severity=Severity.ERROR,
        path="src/repro/y.py",
        line=7,
        col=0,
        message="module-global '_CACHE' mutated inside rank-executed code",
        snippet="_CACHE[key] = val",
    ),
]


class TestText:
    def test_counts_line(self):
        out = render_text(FINDINGS)
        assert out.endswith("2 finding(s)")
        assert "src/repro/x.py:3:9" in out

    def test_clean_run(self):
        assert render_text([]) == "0 finding(s)"


class TestJson:
    def test_document_shape(self):
        doc = json.loads(render_json(FINDINGS))
        assert doc["tool"] == "repro-lint"
        assert doc["new"] == 2
        assert len(doc["findings"]) == 2
        by_rule = {f["rule"]: f for f in doc["findings"]}
        assert by_rule["DET003"]["column"] == 9  # 1-indexed
        assert by_rule["TRN003"]["severity"] == "error"
        assert set(by_rule["DET003"]) == {
            "rule", "severity", "path", "line", "column", "message", "snippet",
        }
