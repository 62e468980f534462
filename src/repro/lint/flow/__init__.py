"""Intraprocedural dataflow + whole-program flow analyses for the linter.

The syntactic rules of :mod:`repro.lint.rules` pattern-match single AST
shapes; this subpackage gives them (and the certification tables) actual
program semantics to reason over:

* :mod:`~repro.lint.flow.cfg` — per-function control-flow graphs of
  basic blocks, the substrate every analysis runs on;
* :mod:`~repro.lint.flow.dataflow` — a generic monotone-framework
  worklist solver plus the instance the rules consume: constant
  (rank-value) propagation;
* :mod:`~repro.lint.flow.callgraph` — a project-wide call graph with
  class/method and import-aware name resolution, so call closures
  compose interprocedurally (built once per run and shared through
  :class:`repro.lint.runner.ProjectContext`);
* :mod:`~repro.lint.flow.taint` — rank-taint and RNG-taint def-use
  analyses with full chains for the finding messages;
* :mod:`~repro.lint.flow.portability` — hidden state and dtype drift in
  rank-executed code (the ``TRN`` rules, ``--verify-transport``), over
  the value kinds of :mod:`~repro.lint.flow.pytypes`;
* :mod:`~repro.lint.flow.cost` — symbolic loop-bound and cost analysis:
  extracts every simulator charge site reachable from the certified
  comm roots, derives per-site fire-count expressions from the loop
  nests, and carries the closed-form flop/comm models that
  ``repro lint --verify-costs`` certifies against runtime charges.
"""

from .callgraph import CallGraph, build_call_graph
from .cfg import CFG, BasicBlock, build_cfg, function_cfgs
from .cost import (
    COST_SPECS,
    ChargeSite,
    CostAnalysis,
    CostExpr,
    CostSpec,
    analyze_costs,
    extract_charge_sites,
)
from .dataflow import (
    NAC,
    UNDEF,
    ConstantPropagation,
    constant_env_at,
    eval_const_expr,
)
from .portability import (
    TransportProblem,
    TransportReport,
    analyze_transport,
    verify_transport,
)
from .pytypes import infer_expr, infer_types
from .taint import TaintChain, rank_tainted_names, rng_taint_chains

__all__ = [
    "CFG",
    "BasicBlock",
    "build_cfg",
    "function_cfgs",
    "NAC",
    "UNDEF",
    "ConstantPropagation",
    "constant_env_at",
    "eval_const_expr",
    "CallGraph",
    "build_call_graph",
    "COST_SPECS",
    "ChargeSite",
    "CostAnalysis",
    "CostExpr",
    "CostSpec",
    "analyze_costs",
    "extract_charge_sites",
    "TaintChain",
    "rank_tainted_names",
    "rng_taint_chains",
    "TransportProblem",
    "TransportReport",
    "analyze_transport",
    "verify_transport",
    "infer_expr",
    "infer_types",
]
