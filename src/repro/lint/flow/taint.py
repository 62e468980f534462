"""Intraprocedural taint propagation with def-use provenance chains.

Two taint domains matter for reproducibility of the parallel ILU
drivers:

* **rank taint** — values derived from the executing rank (``rank``,
  ``src``, a ``range(nranks)`` loop variable, ``sim.rank`` …).  A rank-
  tainted branch condition guarding a *collective* means different
  ranks can disagree about reaching the collective: the classic SPMD
  divergence bug.  SPMD002 catches the syntactic case; the taint layer
  (SPMD005) catches it through copies and arithmetic.
* **RNG taint** — values derived from a random generator.  RNG-tainted
  data flowing into a posted payload or a drop/keep decision makes the
  factorization non-reproducible across seeds — exactly what the
  paper's deterministic-MIS construction is designed to avoid.

Propagation is a flow-insensitive fixpoint over the function's
assignments (sound for the lint use case: an over-approximation that
reports *how* the value got tainted).  Every tainted name carries a
:class:`TaintChain` — the def-use steps from seed to name — which the
rules render into the finding message so the report explains itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..comm import RANK_NAMES, RANK_RANGE_MARKERS

__all__ = [
    "TaintStep",
    "TaintChain",
    "rank_tainted_names",
    "rng_taint_chains",
]

_RANK_ATTRS = frozenset({"rank", "myrank", "pe"})

_RNG_CONSTRUCTORS = frozenset({"default_rng", "Random", "RandomState", "Generator"})
_RNG_METHODS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "rand",
        "randn",
        "uniform",
        "normal",
        "choice",
        "shuffle",
        "permutation",
        "sample",
        "integers",
        "standard_normal",
    }
)


@dataclass(frozen=True)
class TaintStep:
    """One hop of provenance: ``name`` became tainted at ``line``."""

    line: int
    name: str
    via: str

    def render(self) -> str:
        return f"{self.name} (line {self.line}: {self.via})"


@dataclass(frozen=True)
class TaintChain:
    """Def-use chain from taint seed to the queried name."""

    name: str
    steps: tuple[TaintStep, ...]

    def extended(self, step: TaintStep) -> "TaintChain":
        return TaintChain(name=step.name, steps=self.steps + (step,))

    def describe(self) -> str:
        return " -> ".join(s.render() for s in self.steps)


def _names_in(expr: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _target_names(target: ast.expr) -> list[str]:
    out: list[str] = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            out.append(node.id)
    return out


def _assignments(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[list[str], ast.expr, int, str]]:
    """``(target names, value expr, line, kind)`` for every binding."""
    out: list[tuple[list[str], ast.expr, int, str]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            continue  # nested scopes propagate separately
        if isinstance(node, ast.Assign):
            names: list[str] = []
            for t in node.targets:
                names.extend(_target_names(t))
            out.append((names, node.value, node.lineno, "assigned from"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            out.append(
                ([node.target.id], node.value, node.lineno, "augmented with")
            )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            out.append(
                (_target_names(node.target), node.value, node.lineno, "assigned from")
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            out.append(
                (_target_names(node.target), node.iter, node.lineno, "iterates over")
            )
        elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            out.append(([node.target.id], node.value, node.lineno, "assigned from"))
    return out


def _propagate(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    seeds: dict[str, TaintChain],
    seed_expr: "callable",
) -> dict[str, TaintChain]:
    """Fixpoint: targets of bindings whose value references a tainted
    name (or matches ``seed_expr``) become tainted, chains extended."""
    tainted = dict(seeds)
    bindings = _assignments(func)
    changed = True
    while changed:
        changed = False
        for names, value, line, kind in bindings:
            source: TaintChain | None = None
            via = ""
            seed_reason = seed_expr(value)
            if seed_reason:
                source = TaintChain(name="", steps=())
                via = seed_reason
            else:
                for ref in sorted(_names_in(value)):
                    if ref in tainted:
                        source = tainted[ref]
                        via = f"{kind} {ref}"
                        break
            if source is None:
                continue
            for name in names:
                if name in tainted:
                    continue
                tainted[name] = source.extended(
                    TaintStep(line=line, name=name, via=via)
                )
                changed = True
    return tainted


# ---------------------------------------------------------------- rank


def _rank_seed_expr(expr: ast.expr) -> str:
    """Non-empty reason when ``expr`` itself produces a rank value."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr in _RANK_ATTRS:
            return f"reads .{node.attr}"
    return ""


def rank_tainted_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, TaintChain]:
    """Names carrying rank-derived values, with provenance chains."""
    seeds: dict[str, TaintChain] = {}
    all_args = (
        func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    )
    for a in all_args:
        if a.arg in RANK_NAMES:
            seeds[a.arg] = TaintChain(
                name=a.arg,
                steps=(
                    TaintStep(
                        line=func.lineno, name=a.arg, via="rank-named parameter"
                    ),
                ),
            )
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_dump = ast.dump(node.iter)
            if any(m in iter_dump for m in RANK_RANGE_MARKERS):
                for name in _target_names(node.target):
                    seeds.setdefault(
                        name,
                        TaintChain(
                            name=name,
                            steps=(
                                TaintStep(
                                    line=node.lineno,
                                    name=name,
                                    via="iterates over the rank range",
                                ),
                            ),
                        ),
                    )
    return _propagate(func, seeds, _rank_seed_expr)


# ----------------------------------------------------------------- rng


def _rng_seed_expr(expr: ast.expr) -> str:
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _RNG_CONSTRUCTORS:
                return f"constructs RNG via {func.attr}()"
            if func.attr in _RNG_METHODS:
                chain = ast.dump(func.value)
                if "random" in chain or "rng" in chain.lower():
                    return f"draws from RNG via .{func.attr}()"
        elif isinstance(func, ast.Name) and func.id in _RNG_CONSTRUCTORS:
            return f"constructs RNG via {func.id}()"
    return ""


def rng_taint_chains(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, TaintChain]:
    """Names carrying RNG-derived values, with provenance chains.

    Parameters named like generators (``rng``, ``rand``, ``gen``) are
    seeded too: a caller passing a generator in is the common repro
    idiom (``default_rng`` happens at the driver boundary).
    """
    seeds: dict[str, TaintChain] = {}
    all_args = (
        func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    )
    for a in all_args:
        low = a.arg.lower()
        if low in ("rng", "rand", "random_state", "gen", "generator"):
            seeds[a.arg] = TaintChain(
                name=a.arg,
                steps=(
                    TaintStep(
                        line=func.lineno, name=a.arg, via="RNG parameter"
                    ),
                ),
            )
    return _propagate(func, seeds, _rng_seed_expr)
