"""The syntactic SPMD rule (``SPMD003``).

The phase-2 level loop of the parallel ILUT drivers, the triangular
solves and the distributed MIS all follow one discipline: every send is
paired with a recv of the same tag, collectives are reached by every
rank unconditionally, and the loop posting the sends runs over exactly
the pairs the receive loop drains.  Pairing and leaks are ``SPMD004``'s
symbolic execution and collective reachability is ``SPMD005``'s taint
analysis (:mod:`repro.lint.rules.flow_rules`); this module keeps the
loop-bound check, which neither of them makes, on the static
communication sites (:mod:`repro.lint.comm`) of each module.
"""

from __future__ import annotations

import ast

from ..comm import CommSite, render_tag, tags_match
from ..findings import Finding, Severity
from ..flow.dataflow import ReachingDefinitions
from ..registry import Rule, register
from ..runner import ModuleContext

__all__ = ["LoopBoundMismatch"]


def _concrete_pairs(sites: list[CommSite]) -> tuple[list[CommSite], list[CommSite]]:
    sends = [s for s in sites if s.kind == "send" and s.tag is not None]
    recvs = [s for s in sites if s.kind == "recv" and s.tag is not None]
    return sends, recvs


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
                continue  # an unmatched tag is SPMD004's report
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
