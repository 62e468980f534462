"""Intraprocedural dataflow + whole-program flow analyses for the linter.

The syntactic rules of :mod:`repro.lint.rules` pattern-match single AST
shapes; this subpackage gives them (and three new analyses) actual
program semantics to reason over:

* :mod:`~repro.lint.flow.cfg` — per-function control-flow graphs of
  basic blocks, the substrate every analysis runs on;
* :mod:`~repro.lint.flow.dataflow` — a generic monotone-framework
  worklist solver plus the two canonical instances the rules consume:
  reaching definitions and constant (rank-value) propagation;
* :mod:`~repro.lint.flow.callgraph` — a project-wide call graph with
  class/method and import-aware name resolution, so per-function
  communication summaries compose interprocedurally (built once per
  run and shared, with the summaries and call closures, through
  :class:`repro.lint.runner.ProjectContext`);
* :mod:`~repro.lint.flow.summary` — per-function communication
  summaries (posts, drains, collectives, loops, branches, calls) in a
  small IR;
* :mod:`~repro.lint.flow.protocol` — the static SPMD protocol verifier:
  symbolic execution of a composed summary over concrete rank counts,
  certifying drivers deadlock-free or producing located findings;
* :mod:`~repro.lint.flow.taint` — rank-taint and RNG-taint def-use
  analyses with full chains for the finding messages;
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
    ReachingDefinitions,
    constant_env_at,
    eval_const_expr,
)
from .escape import (
    TransportProblem,
    TransportReport,
    analyze_transport,
    verify_transport,
)
from .protocol import ProtocolProblem, ProtocolReport, verify_drivers, verify_function
from .pytypes import AbsType, infer_expr, infer_types, is_pickle_safe, unsafe_reason
from .summary import CommOp, FunctionSummary, summarize_function
from .taint import TaintChain, rank_tainted_names, rng_taint_chains

__all__ = [
    "CFG",
    "BasicBlock",
    "build_cfg",
    "function_cfgs",
    "NAC",
    "UNDEF",
    "ConstantPropagation",
    "ReachingDefinitions",
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
    "CommOp",
    "FunctionSummary",
    "summarize_function",
    "ProtocolProblem",
    "ProtocolReport",
    "verify_function",
    "verify_drivers",
    "TaintChain",
    "rank_tainted_names",
    "rng_taint_chains",
    "TransportProblem",
    "TransportReport",
    "analyze_transport",
    "verify_transport",
    "AbsType",
    "infer_expr",
    "infer_types",
    "is_pickle_safe",
    "unsafe_reason",
]
