"""Dataflow-powered rules (``SPMD005``, ``DET005``).

These rules consume the :mod:`repro.lint.flow` engine — the CFG/
dataflow layer and the taint analyses — and therefore see through
indirection the syntactic rules (DET001–004) cannot:

* ``SPMD005`` flags collectives that not every rank reaches once per
  superstep: guarded by a rank-derived value (``if rank == 0:``, or
  through copies and arithmetic, ``leader = rank == 0`` … ``if
  leader:``, with the def-use chain in the message), or issued inside a
  per-rank loop.
* ``DET005`` tracks RNG taint into dropping decisions — randomness
  crossing the dropping boundary breaks run-to-run reproducibility of
  the factorization.
"""

from __future__ import annotations

import ast

from ..astutil import ancestors, call_name, enclosing_function, names_in
from ..comm import RANK_NAMES, RANK_RANGE_MARKERS, classify
from ..findings import Finding, Severity
from ..flow import rank_tainted_names, rng_taint_chains
from ..flow.dataflow import NAC, constant_env_at, eval_const_expr
from ..registry import Rule, register
from ..runner import ModuleContext

__all__ = ["RankTaintedCollective", "RngTaintedDropping"]


def _const_folds(func: ast.AST | None, test: ast.expr) -> bool:
    """True when ``test`` evaluates to a compile-time constant here."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    env = constant_env_at(func, test)
    return eval_const_expr(test, env) is not NAC


def _branch_conditions(call: ast.Call) -> list[ast.expr]:
    """The ``if``/``while``/conditional-expression tests controlling
    reachability of ``call``, innermost first, stopping at the function
    boundary."""
    out: list[ast.expr] = []
    for anc in ancestors(call):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        if isinstance(anc, (ast.If, ast.While, ast.IfExp)):
            out.append(anc.test)
    return out


def _tainted_guard(call: ast.Call, func: ast.AST | None, tainted: dict) -> str | None:
    """Why a branch guarding ``call`` is rank-derived, or None.

    Conditions that constant-fold are discharged: they evaluate
    identically on every rank, however rank-flavoured their spelling.
    """
    for test in _branch_conditions(call):
        hit = sorted(names_in(test) & set(tainted))
        if not hit or _const_folds(func, test):
            continue
        return (
            f"collective guarded by rank-derived value {hit[0]!r} "
            f"(condition at line {test.lineno}); taint chain: "
            f"{tainted[hit[0]].describe()}"
        )
    return None


def _rank_loop(call: ast.Call) -> ast.For | None:
    """The nearest ``for`` over the ranks enclosing ``call`` in its
    function: a rank-named target or an iterable over the rank count."""
    for anc in ancestors(call):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        if isinstance(anc, ast.For) and (
            names_in(anc.target) & RANK_NAMES
            or any(m in ast.dump(anc.iter) for m in RANK_RANGE_MARKERS)
        ):
            return anc
    return None


@register
class RankTaintedCollective(Rule):
    """A collective that not every rank reaches once per superstep.

    ``barrier``/``allreduce``/``allgather`` synchronise *every* rank.
    Guarded by a condition derived from the rank — directly (``if rank
    == 0``) or through assignments (``leader = rank == 0``), the
    def-use chain in the message — some ranks may not arrive at all;
    issued inside a per-rank loop, it fires once per rank.  Either way
    ranks disagree on the superstep count: the classic SPMD
    collective-divergence deadlock.
    """

    id = "SPMD005"
    name = "rank-tainted-collective"
    severity = Severity.ERROR
    description = (
        "collectives must be reached once per superstep by every rank: "
        "no guard derived from the rank (taint tracked through copies "
        "and arithmetic) and no per-rank loop"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        taint_cache: dict[int, dict] = {}
        for call in module.index.of(ast.Call):
            if classify(call) != "collective":
                continue
            func = enclosing_function(call)
            tainted: dict = {}
            if func is not None:
                if id(func) not in taint_cache:
                    taint_cache[id(func)] = rank_tainted_names(func)
                tainted = taint_cache[id(func)]
            message = _tainted_guard(call, func, tainted)
            if message is None and (loop := _rank_loop(call)) is not None:
                message = (
                    f"collective inside a per-rank loop (line {loop.lineno}): "
                    "it would fire once per rank, not once per superstep"
                )
            if message is not None:
                out.append(self.finding(module, call.lineno, call.col_offset, message))
        return out


def _is_dropping_call(call: ast.Call) -> bool:
    name = call_name(call)
    return bool(name) and ("drop" in name or name in ("keep", "keep_entry"))


@register
class RngTaintedDropping(Rule):
    """RNG-derived data in a dropping decision.

    The paper's threshold-ILU dropping rule and the deterministic MIS
    are both designed so the factorization is a pure function of the
    matrix and the seed.  A drop/keep decision computed from an
    *unpinned* generator draw silently varies across runs; the
    finding's def-use chain shows where the randomness entered.
    """

    id = "DET005"
    name = "rng-tainted-dropping"
    severity = Severity.WARNING
    description = (
        "dropping decisions must not depend on RNG draws (taint tracked "
        "through assignments)"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        chains_cache: dict[int, dict] = {}
        for node in module.index.of(ast.Call):
            if not _is_dropping_call(node):
                continue
            func = enclosing_function(node)
            if func is None:
                continue
            if id(func) not in chains_cache:
                chains_cache[id(func)] = rng_taint_chains(func)
            chains = chains_cache[id(func)]
            for expr in node.args:
                hit = sorted(names_in(expr) & set(chains))
                if hit:
                    out.append(
                        self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"dropping decision {call_name(node)}() depends on "
                            f"RNG-derived value {hit[0]!r}; taint chain: "
                            f"{chains[hit[0]].describe()}",
                        )
                    )
                    break
        return out
