"""Determinism rules (``DET001``–``DET004``).

The reproduction's headline property — bit-identical factors across
backends, replays and fault recoveries — dies the moment any numeric
path consults an unseeded RNG, iterates an unordered container where
order reaches the numerics or the message schedule, or branches on
fragile float equality.  These rules flag the syntactic shapes of those
mistakes.
"""

from __future__ import annotations

import ast

from ..astutil import call_name, dotted_name, is_sorted_call
from ..comm import is_comm
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..runner import ModuleContext

__all__ = [
    "UnseededRNG",
    "UnorderedIteration",
    "FloatEquality",
    "UnorderedReduction",
]

#: ``np.random.<fn>`` calls that consult the hidden module-level RNG.
_NP_GLOBAL_RNG = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "standard_normal",
        "uniform",
        "normal",
        "seed",
    }
)
#: stdlib ``random.<fn>`` equivalents.
_STDLIB_RNG = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "shuffle",
        "choice",
        "choices",
        "sample",
        "uniform",
        "gauss",
        "seed",
    }
)


@register
class UnseededRNG(Rule):
    """Module-level / unseeded randomness in library code.

    ``np.random.default_rng()`` with no seed, any ``np.random.<fn>``
    global-state call, and the stdlib ``random`` module all produce
    run-dependent streams; every RNG in this codebase must be an
    explicit ``np.random.default_rng(seed)`` Generator threaded through
    the call tree.
    """

    id = "DET001"
    name = "unseeded-rng"
    severity = Severity.ERROR
    description = (
        "randomness must flow through an explicitly seeded "
        "np.random.Generator, never module-level RNG state"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        imports_stdlib_random = any(
            alias.name == "random"
            for node in module.index.of(ast.Import)
            for alias in node.names
        )
        out: list[Finding] = []
        for node in module.index.of(ast.Call):
            dotted = dotted_name(node.func)
            if dotted in ("np.random.default_rng", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    out.append(
                        self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            "np.random.default_rng() without a seed draws "
                            "OS entropy; pass an explicit seed",
                        )
                    )
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] in _NP_GLOBAL_RNG
            ):
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"np.random.{parts[2]} uses the hidden global RNG; "
                        "use a seeded np.random.Generator",
                    )
                )
            elif (
                imports_stdlib_random
                and len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _STDLIB_RNG
            ):
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"stdlib random.{parts[1]} is process-global state; "
                        "use a seeded np.random.Generator",
                    )
                )
        return out


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _set_bound_names(nodes) -> set[str]:
    """Names assigned a set literal/call/comprehension among ``nodes``."""
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _unordered_iter_reason(node: ast.AST, set_names: set[str]) -> str | None:
    """Why iterating ``node`` is order-unstable, or None if it isn't."""
    if _is_set_expr(node):
        return "a set"
    if isinstance(node, ast.Name) and node.id in set_names:
        return f"the set {node.id!r}"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
    ):
        return f"dict .{node.func.attr}()"
    return None


@register
class UnorderedIteration(Rule):
    """Unordered-container iteration inside a communicating function.

    In a function that posts messages or reaches collectives, the
    iteration order of a ``set`` or a dict view decides the message
    schedule (and often float accumulation order).  Dict insertion order
    is deterministic *per process* but is an accident of construction
    order — rank-keyed maps must be drained in ``sorted(...)`` order,
    which is the established idiom everywhere else in the drivers.
    """

    id = "DET002"
    name = "unordered-iteration"
    severity = Severity.WARNING
    description = (
        "communication-bearing functions must iterate rank-keyed "
        "containers in sorted() order"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for func in module.index.functions:
            if not any(is_comm(c) for c in module.index.calls_under(func)):
                continue
            set_names = _set_bound_names(ast.walk(func))
            iters: list[tuple[ast.AST, int, int]] = []
            for node in ast.walk(func):
                if isinstance(node, ast.For):
                    iters.append((node.iter, node.lineno, node.col_offset))
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    for gen in node.generators:
                        iters.append((gen.iter, node.lineno, node.col_offset))
            for expr, line, col in iters:
                if is_sorted_call(expr):
                    continue
                reason = _unordered_iter_reason(expr, set_names)
                if reason is not None:
                    out.append(
                        self.finding(
                            module,
                            line,
                            col,
                            f"iteration over {reason} in a communicating "
                            "function; wrap the iterable in sorted(...) so "
                            "the message/accumulation order is canonical",
                        )
                    )
        return out


@register
class FloatEquality(Rule):
    """``==`` / ``!=`` against a nonzero float literal.

    Comparing against exactly ``0.0`` is the established breakdown-
    detection idiom (a product is zero iff a factor is zero) and is
    allowed; any other float-literal equality silently depends on
    rounding and evaluation order.
    """

    id = "DET003"
    name = "float-equality"
    severity = Severity.WARNING
    description = (
        "float equality against a nonzero literal is rounding-fragile; "
        "compare with a tolerance or restructure"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in module.index.of(ast.Compare):
            # pairwise operands: (left, comp0), (comp0, comp1), ...
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (lhs, rhs):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        and side.value != 0.0
                    ):
                        out.append(
                            self.finding(
                                module,
                                node.lineno,
                                node.col_offset,
                                f"float equality against {side.value!r}; only "
                                "exact-zero comparisons are rounding-safe",
                            )
                        )
                        break
        return out


_REDUCERS = frozenset({"sum", "fsum", "prod"})


@register
class UnorderedReduction(Rule):
    """Order-sensitive reduction over an unordered container.

    ``sum(...)`` over a set (directly or via a generator expression
    whose source is a set) accumulates floats in hash order; two runs
    with different interning can disagree in the last ulp — which is a
    different *bit pattern*, the thing the parity suite and fault-replay
    signatures compare.
    """

    id = "DET004"
    name = "unordered-reduction"
    severity = Severity.WARNING
    description = (
        "reductions over sets accumulate in hash order; sort the "
        "operands first"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        module_set_names = _set_bound_names(
            module.index.of(ast.Assign, ast.AnnAssign)
        )
        for node in module.index.of(ast.Call):
            name = call_name(node)
            if name not in _REDUCERS or not node.args:
                continue
            arg = node.args[0]
            target: ast.AST | None = None
            if _is_set_expr(arg) or (
                isinstance(arg, ast.Name) and arg.id in module_set_names
            ):
                target = arg
            elif isinstance(arg, ast.GeneratorExp):
                src = arg.generators[0].iter
                if _is_set_expr(src) or (
                    isinstance(src, ast.Name) and src.id in module_set_names
                ):
                    target = src
            if target is not None and not is_sorted_call(target):
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"{name}() over a set accumulates in hash order; "
                        "iterate sorted(...) instead",
                    )
                )
        return out
