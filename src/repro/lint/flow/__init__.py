"""Whole-program analyses for the linter.

The syntactic rules of :mod:`repro.lint.rules` pattern-match single AST
shapes; this subpackage gives the transport rules and
``--verify-transport`` the cross-function view they need:

* :mod:`~repro.lint.flow.callgraph` — a project-wide call graph with
  class/method and import-aware name resolution, so call closures
  compose interprocedurally (built once per run and shared through
  :class:`repro.lint.runner.ProjectContext`);
* :mod:`~repro.lint.flow.pytypes` — flow-insensitive value kinds of a
  function's locals and the numpy dtype discipline;
* :mod:`~repro.lint.flow.portability` — hidden state and dtype drift in
  rank-executed code (the ``TRN`` rules, ``--verify-transport``).
"""

from .callgraph import CallGraph, build_call_graph
from .portability import (
    TransportProblem,
    TransportReport,
    analyze_transport,
    verify_transport,
)
from .pytypes import infer_expr, infer_types

__all__ = [
    "CallGraph",
    "build_call_graph",
    "TransportProblem",
    "TransportReport",
    "analyze_transport",
    "verify_transport",
    "infer_expr",
    "infer_types",
]
