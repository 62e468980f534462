"""Breakdown-typing rule (``BRK001``).

The resilience layer (:mod:`repro.resilience`) can only route a
numerical breakdown into the fallback/retry machinery if the raise site
uses the typed :class:`~repro.resilience.NumericalBreakdown` hierarchy.
A bare ``ZeroDivisionError`` or a ``ValueError("zero pivot ...")``
short-circuits that dispatch (and loses the ``row``/``value`` payload
failure reports localise with).
"""

from __future__ import annotations

import ast
import re

from ..astutil import literal_text
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..runner import ModuleContext

__all__ = ["UntypedBreakdownRaise"]

#: Message shapes that identify a raise as a *numerical* event (vs
#: argument validation, which legitimately stays a ValueError).
_NUMERIC_MESSAGE = re.compile(
    r"zero pivot|zero diagonal|stored diagonal|missing diagonal"
    r"|singular|non-?finite|\bnan\b|\binf(inite|inity)?\b|divide[sd]? by zero",
    re.IGNORECASE,
)

_SUGGESTION = {
    "ZeroDivisionError": "ZeroPivotError",
    "ValueError": "ZeroDiagonalError / NonFiniteError",
    "ArithmeticError": "NumericalBreakdown",
    "FloatingPointError": "NonFiniteError",
}


@register
class UntypedBreakdownRaise(Rule):
    """A numeric breakdown raised as a bare builtin exception.

    ``raise ZeroDivisionError`` is always a breakdown; ``raise
    ValueError``/``ArithmeticError`` count when the message text names a
    numerical event (zero/missing diagonal, zero pivot, singular,
    NaN/Inf).  The typed subclasses multiple-inherit the builtins, so
    switching a raise site never breaks existing ``except`` clauses.
    """

    id = "BRK001"
    name = "untyped-breakdown-raise"
    severity = Severity.ERROR
    description = (
        "numeric raise sites must use the typed NumericalBreakdown "
        "hierarchy so the resilience layer can dispatch on them"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        # the hierarchy's own module defines the types; skip it
        if module.relpath.endswith("resilience/breakdown.py"):
            return []
        out: list[Finding] = []
        for node in module.index.of(ast.Raise):
            if node.exc is None:
                continue
            exc = node.exc
            exc_name = ""
            message = ""
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                exc_name = exc.func.id
                if exc.args:
                    message = literal_text(exc.args[0])
            elif isinstance(exc, ast.Name):
                exc_name = exc.id
            if exc_name not in _SUGGESTION:
                continue
            if exc_name in ("ZeroDivisionError", "FloatingPointError") or (
                message and _NUMERIC_MESSAGE.search(message)
            ):
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"numerical breakdown raised as bare {exc_name}; use "
                        f"the typed hierarchy ({_SUGGESTION[exc_name]}) so "
                        "fallback/retry can dispatch and reports keep "
                        "row/value context",
                    )
                )
        return out
