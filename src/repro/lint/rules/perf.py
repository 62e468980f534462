"""Vectorization rule (``PERF001``).

Every scalar Python loop over CSR structures in a cost-charged driver
multiplies the wall-clock constant the modeled speedups are normalized
by.  ``PERF001`` flags a scalar per-row loop (``A.row(i)`` /
``iter_rows``) inside a function that charges the machine model
(:func:`repro.lint.comm.charged_as`: ``compute``, ``send``,
``exchange``, collectives), where the ``repro.kernels`` surface has a
vectorized twin.  Functions that dispatch on a ``backend`` parameter
(their scalar path *is* the documented reference twin) are exempt.

The profiles keep it scoped to library code (off under ``tests/`` and
``benchmarks/`` — tests exercise scalar shapes on purpose).
"""

from __future__ import annotations

import ast

from ..astutil import call_name
from ..comm import charged_as
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..runner import ModuleContext

__all__ = ["ScalarHotLoop"]

#: Scalar CSR row accessors with vectorized repro.kernels twins.
_SCALAR_ROW_CALLS = frozenset({"row", "iter_rows"})


def _has_backend_dispatch(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """The function routes between a reference and a vectorized path."""
    argnames = {
        a.arg
        for a in (*func.args.args, *func.args.kwonlyargs, *func.args.posonlyargs)
    }
    if "backend" in argnames:
        return True
    return any(
        isinstance(node, ast.Call) and call_name(node) == "resolve_backend"
        for node in ast.walk(func)
    )


def _docstring_mentions_reference(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    doc = ast.get_docstring(func) or ""
    return "reference" in doc.lower()


def _loops_in(func: ast.AST):
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While)):
            yield node


@register
class ScalarHotLoop(Rule):
    """Scalar per-row CSR iteration on the cost-charged path.

    ``A.row(i)`` in a Python loop materializes two slices per row and
    runs the numerics through the interpreter; the ``repro.kernels``
    CSR surface (``csr_matvec``, ``segment_sums``, the batched solvers)
    does the same work in a handful of array ops.  Functions that
    accept a ``backend`` parameter or call ``resolve_backend`` keep
    their scalar branch — it *is* the reference twin the parity suite
    diffs against — as do functions whose docstring says "reference".
    """

    id = "PERF001"
    name = "scalar-hot-loop"
    severity = Severity.WARNING
    description = (
        "cost-charged functions must not iterate CSR rows in scalar "
        "Python loops when a vectorized repro.kernels twin exists"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for func in module.index.functions:
            if not any(charged_as(c) for c in module.index.calls_under(func)):
                continue
            if _has_backend_dispatch(func) or _docstring_mentions_reference(func):
                continue
            flagged: dict[int, ast.Call] = {}
            for loop in _loops_in(func):
                for node in ast.walk(loop):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _SCALAR_ROW_CALLS
                    ):
                        flagged.setdefault(id(node), node)
            for call in flagged.values():
                out.append(
                    self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f".{call.func.attr}(...) per loop iteration in "
                        f"cost-charged {func.name!r}; use the vectorized "
                        "repro.kernels CSR surface (or dispatch on "
                        "backend= and keep this as the reference path)",
                    )
                )
        return out
