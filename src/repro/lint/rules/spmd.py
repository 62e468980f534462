"""SPMD communication rules (``SPMD001``–``SPMD003``).

The phase-2 level loop of the parallel ILUT drivers, the triangular
solves and the distributed MIS all follow one discipline: every send is
paired with a recv of the same tag, collectives are reached by every
rank unconditionally, and the loop posting the sends runs over exactly
the pairs the receive loop drains.  These rules check that discipline on
the static communication sites (:mod:`repro.lint.comm`) of each module.
"""

from __future__ import annotations

import ast

from ..astutil import ancestors, names_in
from ..comm import (
    RANK_NAMES,
    RANK_RANGE_MARKERS,
    CommSite,
    branch_conditions,
    render_tag,
    tags_match,
)
from ..findings import Finding, Severity
from ..flow.dataflow import NAC, ReachingDefinitions, constant_env_at, eval_const_expr
from ..registry import Rule, register
from ..runner import ModuleContext, ProjectContext

__all__ = ["UnmatchedTag", "RankDependentCollective", "LoopBoundMismatch"]


def _concrete_pairs(sites: list[CommSite]) -> tuple[list[CommSite], list[CommSite]]:
    sends = [s for s in sites if s.kind == "send" and s.tag is not None]
    recvs = [s for s in sites if s.kind == "recv" and s.tag is not None]
    return sends, recvs


def _has_dynamic(sites: list[CommSite], kind: str) -> bool:
    return any(s.kind == kind and s.tag is None for s in sites)


@register
class UnmatchedTag(Rule):
    """A send (recv) whose tag no recv (send) in the module can match.

    Tags are matched after widening variable components to wildcards, so
    ``tag=("fwd", lvl_idx)`` pairs with ``tag=("fwd", other_var)``.
    Sites whose *entire* tag is dynamic are exempt — and, because such a
    site could match anything, their presence suppresses the
    opposite-direction check rather than silently satisfying it.

    Matching is attempted within the module first; a site unmatched
    locally is then checked against every other module's sites before
    being reported, so protocols whose post and drain halves live in
    sibling modules (the ``mis_comm_setup`` idiom) don't false-positive.
    """

    id = "SPMD001"
    name = "unmatched-tag"
    severity = Severity.ERROR
    description = (
        "point-to-point send/recv tags must pair up within the project "
        "(a one-sided tag is a static deadlock or message leak)"
    )

    def check_project(self, project: ProjectContext) -> list[Finding]:
        per_module = {m.relpath: m.comm_sites for m in project.modules}
        all_sends: list[CommSite] = []
        all_recvs: list[CommSite] = []
        for sites in per_module.values():
            s, r = _concrete_pairs(sites)
            all_sends.extend(s)
            all_recvs.extend(r)
        out: list[Finding] = []
        for module in project.modules:
            sites = per_module[module.relpath]
            sends, recvs = _concrete_pairs(sites)
            if not _has_dynamic(sites, "recv"):
                for s in sends:
                    assert s.tag is not None
                    if any(tags_match(s.tag, r.tag) for r in recvs if r.tag is not None):
                        continue
                    if any(
                        tags_match(s.tag, r.tag)
                        for r in all_recvs
                        if r.tag is not None
                    ):
                        continue  # drained by a sibling module
                    out.append(
                        self.finding(
                            module,
                            s.line,
                            s.col,
                            f"send with tag {render_tag(s.tag)} has no matching "
                            "recv in the project (undrained message)",
                        )
                    )
            if not _has_dynamic(sites, "send"):
                for r in recvs:
                    assert r.tag is not None
                    if any(tags_match(r.tag, s.tag) for s in sends if s.tag is not None):
                        continue
                    if any(
                        tags_match(r.tag, s.tag)
                        for s in all_sends
                        if s.tag is not None
                    ):
                        continue  # posted by a sibling module
                    out.append(
                        self.finding(
                            module,
                            r.line,
                            r.col,
                            f"recv with tag {render_tag(r.tag)} has no matching "
                            "send in the project (static deadlock)",
                        )
                    )
        return out


def _is_rank_dependent_test(test: ast.expr) -> bool:
    return bool(names_in(test) & RANK_NAMES)


def _folds_to_constant(site: CommSite, test: ast.expr) -> bool:
    """True when constant propagation pins ``test`` to one value.

    A guard like ``if r == 0:`` after ``r = 0`` only *looks* rank-
    dependent — every rank evaluates it identically, so the collective
    behind it is uniformly reachable.
    """
    if site.func is None:
        return False
    env = constant_env_at(site.func, test)
    return eval_const_expr(test, env) is not NAC


def _is_rank_loop(loop: ast.For | ast.While | None) -> bool:
    if not isinstance(loop, ast.For):
        return False
    if names_in(loop.target) & RANK_NAMES:
        return True
    rendered = ast.dump(loop.iter)
    return any(marker in rendered for marker in RANK_RANGE_MARKERS)


@register
class RankDependentCollective(Rule):
    """A collective reachable only under rank-dependent control flow.

    ``barrier``/``allreduce``/``allgather`` synchronise *every* rank; a
    call guarded by ``if rank == 0`` (or issued once per iteration of a
    per-rank loop) means some ranks arrive a different number of times —
    the classic SPMD collective-divergence deadlock.

    Conditions that constant-fold under intraprocedural constant
    propagation are discharged: they evaluate identically on every
    rank, however rank-flavoured their spelling.  (``SPMD005`` covers
    the converse gap — rank taint hiding behind a copy.)
    """

    id = "SPMD002"
    name = "rank-dependent-collective"
    severity = Severity.ERROR
    description = (
        "collectives must be reachable by all ranks: no enclosing "
        "rank-dependent branch and no per-rank loop"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for site in module.comm_sites:
            if site.kind != "collective":
                continue
            for test in branch_conditions(site):
                if _is_rank_dependent_test(test):
                    if _folds_to_constant(site, test):
                        continue  # dataflow: uniformly true/false guard
                    out.append(
                        self.finding(
                            module,
                            site.line,
                            site.col,
                            "collective under a rank-dependent branch "
                            f"(condition at line {test.lineno}): ranks may "
                            "disagree on reaching it",
                        )
                    )
                    break
            else:
                for anc in ancestors(site.call):
                    if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        break
                    if isinstance(anc, (ast.For, ast.While)) and _is_rank_loop(anc):
                        out.append(
                            self.finding(
                                module,
                                site.line,
                                site.col,
                                "collective inside a per-rank loop (line "
                                f"{anc.lineno}): it would fire once per rank, "
                                "not once per superstep",
                            )
                        )
                        break
        return out


def _resolved_iter(
    site: CommSite, rd_cache: dict[int, ReachingDefinitions]
) -> str | None:
    """Canonical dump of the site's loop iterable, copies resolved.

    A ``Name`` iterable with exactly one reaching definition that is a
    simple alias (``x = y`` / ``x = sorted(...)``) is replaced by the
    dump of the defining expression, iterated to a bounded fixpoint.
    """
    if not isinstance(site.loop, ast.For):
        return None
    if site.func is None:
        return ast.dump(site.loop.iter)
    if id(site.func) not in rd_cache:
        rd_cache[id(site.func)] = ReachingDefinitions(site.func)
    rd = rd_cache[id(site.func)]
    expr: ast.expr = site.loop.iter
    for _ in range(5):
        if not isinstance(expr, ast.Name):
            break
        defs = rd.defs_at(site.loop).get(expr.id)
        if defs is None or len(defs) != 1:
            break
        stmt = rd.def_exprs.get(next(iter(defs)))
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == expr.id
        ):
            expr = stmt.value
        else:
            break
    return ast.dump(expr)


@register
class LoopBoundMismatch(Rule):
    """Matched send/recv tags driven by loops over different iterables.

    The drain loop must enumerate exactly the pairs the post loop
    enumerated (the drivers share one ``sorted(...)`` expression for
    both); differing iterables mean dropped or phantom messages on some
    input.  Compared structurally on the nearest enclosing ``for``'s
    iterable, so variable renames of the loop *target* don't matter —
    and, via reaching definitions, a plain-``Name`` iterable is resolved
    through its (unique) defining assignment first, so ``pairs2 =
    pairs`` followed by ``for src, dst in pairs2`` matches a post loop
    over ``pairs``.
    """

    id = "SPMD003"
    name = "loop-bound-mismatch"
    severity = Severity.ERROR
    description = (
        "a recv loop must iterate the same bounds as the loop posting "
        "the matching sends"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        sites = module.comm_sites
        sends, recvs = _concrete_pairs(sites)
        rd_cache: dict[int, ReachingDefinitions] = {}
        out: list[Finding] = []
        for r in recvs:
            assert r.tag is not None
            partners = [s for s in sends if s.tag is not None and tags_match(r.tag, s.tag)]
            if not partners:
                continue  # SPMD001's territory
            r_iter = _resolved_iter(r, rd_cache)
            for s in partners:
                s_iter = _resolved_iter(s, rd_cache)
                if r_iter == s_iter:
                    break
            else:
                s0 = partners[0]
                out.append(
                    self.finding(
                        module,
                        r.line,
                        r.col,
                        f"recv loop bounds differ from the matching send's "
                        f"(tag {render_tag(r.tag)}; send at line {s0.line}): "
                        "the drain must enumerate exactly the posted pairs",
                    )
                )
        return out
