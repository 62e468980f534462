"""Dataflow-powered rules (``SPMD004``, ``SPMD005``, ``DET005``).

These rules consume the :mod:`repro.lint.flow` engine — the CFG/
dataflow layer, the project call graph, the symbolic protocol executor
and the taint analyses — and therefore see through indirection the
syntactic rules (SPMD001–003, DET001–004) cannot:

* ``SPMD004`` certifies whole drivers deadlock-free by symbolic
  execution over rank counts 2–4, composing per-function summaries
  interprocedurally.  It reports *semantic* protocol violations —
  drains with no matching post, collectives reached with messages in
  flight, posts leaked at exit — each located at the offending call.
* ``SPMD005`` tracks rank taint through copies and arithmetic into
  branch conditions guarding collectives (``leader = rank == 0`` …
  ``if leader: sim.barrier()``), with the def-use chain in the message.
* ``DET005`` tracks RNG taint into posted payloads (``send``,
  ``exchange`` messages, ``allgather`` values) and dropping decisions — randomness crossing the communication or dropping
  boundary breaks run-to-run reproducibility of the factorization.
"""

from __future__ import annotations

import ast

from ..astutil import call_name, enclosing_function, names_in
from ..comm import RANK_NAMES, branch_conditions, payload_exprs
from ..findings import Finding, Severity
from ..flow import rank_tainted_names, rng_taint_chains, verify_drivers
from ..flow.dataflow import NAC, constant_env_at, eval_const_expr
from ..registry import Rule, register
from ..runner import ModuleContext, ProjectContext

__all__ = ["ProtocolDeadlock", "RankTaintedCollective", "RngTaintedComm"]


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


@register
class RankTaintedCollective(Rule):
    """A collective guarded by a condition *derived from* the rank.

    SPMD002 catches ``if rank == 0: sim.barrier()``; this rule follows
    the value through assignments (``leader = rank == 0``), reporting
    the def-use chain that carried the taint into the guard.
    """

    id = "SPMD005"
    name = "rank-tainted-collective"
    severity = Severity.ERROR
    description = (
        "collectives must not be guarded by values derived from the "
        "rank (taint tracked through copies and arithmetic)"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        taint_cache: dict[int, dict] = {}
        for site in module.comm_sites:
            if site.kind != "collective" or site.func is None:
                continue
            func = site.func
            if id(func) not in taint_cache:
                taint_cache[id(func)] = rank_tainted_names(func)
            tainted = taint_cache[id(func)]
            if not tainted:
                continue
            for test in branch_conditions(site):
                hit = sorted(names_in(test) & set(tainted))
                # direct rank names are SPMD002's report; only the
                # flowed-through ones are new information here
                hit = [n for n in hit if n not in RANK_NAMES]
                if not hit:
                    continue
                if _const_folds(func, test):
                    continue  # guard is actually compile-time constant
                chain = tainted[hit[0]].describe()
                out.append(
                    self.finding(
                        module,
                        site.line,
                        site.col,
                        f"collective guarded by rank-derived value "
                        f"{hit[0]!r} (condition at line {test.lineno}); "
                        f"taint chain: {chain}",
                    )
                )
                break
        return out


def _is_dropping_call(call: ast.Call) -> bool:
    name = call_name(call)
    return bool(name) and ("drop" in name or name in ("keep", "keep_entry"))


@register
class RngTaintedComm(Rule):
    """RNG-derived data in a posted payload or a dropping decision.

    The paper's threshold-ILU dropping rule and the deterministic MIS
    are both designed so the factorization is a pure function of the
    matrix and the seed.  A payload or drop/keep decision computed from
    an *unpinned* generator draw silently varies across runs; the
    finding's def-use chain shows where the randomness entered.
    """

    id = "DET005"
    name = "rng-tainted-comm"
    severity = Severity.WARNING
    description = (
        "posted payloads and dropping decisions must not depend on "
        "RNG draws (taint tracked through assignments)"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        chains_cache: dict[int, dict] = {}
        for node in module.index.of(ast.Call):
            exprs = payload_exprs(node)
            what = "posted payload"
            if not exprs and _is_dropping_call(node):
                exprs = list(node.args)
                what = f"dropping decision {call_name(node)}()"
            if not exprs:
                continue
            func = enclosing_function(node)
            if func is None:
                continue
            if id(func) not in chains_cache:
                chains_cache[id(func)] = rng_taint_chains(func)
            chains = chains_cache[id(func)]
            if not chains:
                continue
            for expr in exprs:
                hit = sorted(names_in(expr) & set(chains))
                if hit:
                    out.append(
                        self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"{what} depends on RNG-derived value "
                            f"{hit[0]!r}; taint chain: "
                            f"{chains[hit[0]].describe()}",
                        )
                    )
                    break
        return out
