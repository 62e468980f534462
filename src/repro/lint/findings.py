"""The :class:`Finding` record every lint rule emits."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(str, enum.Enum):
    """Finding severity."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is stored relative to the project root (POSIX separators)
    so reports are machine-independent.  ``snippet`` is the stripped
    source line, for display.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        return f"{self.location()}: {self.severity} {self.rule}: {self.message}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable order: path, line, column, rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
