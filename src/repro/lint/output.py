"""Finding renderers: human text, machine JSON, and GitHub Actions
workflow commands."""

from __future__ import annotations

import json

from .findings import Finding

__all__ = ["render_text", "render_json", "render_github"]


def render_text(findings: list[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


_GH_COMMAND = {"error": "error", "warning": "warning", "note": "notice"}


def _gh_escape(text: str, *, property_value: bool = False) -> str:
    """GitHub workflow-command escaping (data vs property positions)."""
    out = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property_value:
        out = out.replace(":", "%3A").replace(",", "%2C")
    return out


def render_github(findings: list[Finding]) -> str:
    """GitHub Actions workflow commands — one ``::error``/``::warning``
    per finding, annotated in the PR diff by the runner; the trailing
    summary line mirrors the text format for the job log.
    """
    lines: list[str] = []
    for f in findings:
        cmd = _GH_COMMAND.get(str(f.severity), "warning")
        props = (
            f"file={_gh_escape(f.path, property_value=True)},"
            f"line={f.line},col={f.col + 1},"
            f"title={_gh_escape(f.rule, property_value=True)}"
        )
        lines.append(f"::{cmd} {props}::{_gh_escape(f.message)}")
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    doc = {
        "tool": "repro-lint",
        "findings": [
            {
                "rule": f.rule,
                "severity": str(f.severity),
                "path": f.path,
                "line": f.line,
                "column": f.col + 1,
                "message": f.message,
                "snippet": f.snippet,
            }
            for f in findings
        ],
        "new": len(findings),
    }
    return json.dumps(doc, indent=2)
