"""Dataflow-powered rules (``SPMD004``, ``SPMD005``, ``DET005``).

These rules consume the :mod:`repro.lint.flow` engine — the CFG/
dataflow layer, the project call graph, the symbolic protocol executor
and the taint analyses — and therefore see through indirection the
syntactic rules (SPMD003, DET001–004) cannot:

* ``SPMD004`` certifies whole drivers deadlock-free by symbolic
  execution over rank counts 2–4, composing per-function summaries
  interprocedurally.  It reports *semantic* protocol violations —
  drains with no matching post (an unmatched tag included),
  collectives reached with messages in flight, posts leaked at exit —
  each located at the offending call.
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
from ..comm import RANK_NAMES, RANK_RANGE_MARKERS, CommSite, branch_conditions
from ..findings import Finding, Severity
from ..flow import rank_tainted_names, rng_taint_chains, verify_drivers
from ..flow.dataflow import NAC, constant_env_at, eval_const_expr
from ..registry import Rule, register
from ..runner import ModuleContext, ProjectContext

__all__ = ["ProtocolDeadlock", "RankTaintedCollective", "RngTaintedDropping"]


@register
class ProtocolDeadlock(Rule):
    """Symbolic protocol execution found a deadlock or message leak.

    The verifier enumerates every driver path over 2–4 ranks; a finding
    here is a concrete schedule on which the simulator would hang or
    leave messages undrained (see ``repro lint --verify-protocol`` for
    the certification view of the same analysis).
    """

    id = "SPMD004"
    name = "protocol-deadlock"
    severity = Severity.ERROR
    description = (
        "symbolically executed send/recv/collective protocol must "
        "certify deadlock-free for 2-4 ranks"
    )

    def check_project(self, project: ProjectContext) -> list[Finding]:
        out: list[Finding] = []
        seen: set[tuple[str, str, int]] = set()
        for report in verify_drivers(project):
            for p in report.problems:
                module = project.by_relpath.get(p.module)
                if module is None:
                    continue
                # one finding per (kind, site): the executor reports the
                # same defect once per rank count / path otherwise
                key = (p.kind, p.module, p.line)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    self.finding(
                        module,
                        p.line,
                        0,
                        f"[{p.kind}] in {p.function}: {p.message}",
                    )
                )
        return out


def _const_folds(func: ast.AST | None, test: ast.expr) -> bool:
    """True when ``test`` evaluates to a compile-time constant here."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    env = constant_env_at(func, test)
    return eval_const_expr(test, env) is not NAC


def _tainted_guard(site: CommSite, tainted: dict) -> str | None:
    """Why a branch guarding ``site`` is rank-derived, or None.

    Conditions that constant-fold are discharged: they evaluate
    identically on every rank, however rank-flavoured their spelling.
    """
    for test in branch_conditions(site):
        hit = sorted(names_in(test) & set(tainted))
        if not hit or _const_folds(site.func, test):
            continue
        return (
            f"collective guarded by rank-derived value {hit[0]!r} "
            f"(condition at line {test.lineno}); taint chain: "
            f"{tainted[hit[0]].describe()}"
        )
    return None


def _rank_loop(site: CommSite) -> ast.For | None:
    """The nearest ``for`` over the ranks enclosing ``site`` in its
    function: a rank-named target or an iterable over the rank count."""
    for anc in ancestors(site.call):
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
        for site in module.comm_sites:
            if site.kind != "collective":
                continue
            tainted: dict = {}
            if site.func is not None:
                key = id(site.func)
                if key not in taint_cache:
                    taint_cache[key] = rank_tainted_names(site.func)
                tainted = taint_cache[key]
            message = _tainted_guard(site, tainted)
            if message is None and (loop := _rank_loop(site)) is not None:
                message = (
                    f"collective inside a per-rank loop (line {loop.lineno}): "
                    "it would fire once per rank, not once per superstep"
                )
            if message is not None:
                out.append(self.finding(module, site.line, site.col, message))
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
