"""A small monotone dataflow framework plus its constant-propagation instance.

The solver (:func:`solve_forward`) is the classic worklist iteration
over a :class:`~repro.lint.flow.cfg.CFG`: states live on block *entry*,
``transfer`` pushes a state through a block, ``join`` merges states at
confluence points.  Termination is guaranteed for the finite/bounded
lattices used here.

Instance
--------
:class:`ConstantPropagation`
    The standard constant lattice ``UNDEF < const < NAC`` per name,
    with an evaluator (:func:`eval_const_expr`) covering arithmetic,
    comparisons, boolean operators, tuples and a few pure builtins.
    The hypothesis property suite checks the evaluator against
    ``eval`` on generated straight-line programs; SPMD005 uses
    :func:`constant_env_at` to discharge branch conditions that only
    *look* rank-dependent.
"""

from __future__ import annotations

import ast
from typing import Any, Callable

from .cfg import CFG, build_cfg

__all__ = [
    "UNDEF",
    "NAC",
    "solve_forward",
    "ConstantPropagation",
    "eval_const_expr",
    "constant_env_at",
    "assigned_names",
    "stmt_mutations",
]


class _Sentinel:
    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return self.label


#: Lattice bottom: no definition reaches here (unknown-but-unique).
UNDEF = _Sentinel("UNDEF")
#: Lattice top: conflicting/unanalyzable value ("not a constant").
NAC = _Sentinel("NAC")


def assigned_names(stmt: ast.stmt) -> list[str]:
    """Plain names (re)bound by ``stmt`` (targets of assignments/loops)."""
    out: list[str] = []

    def targets(node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                targets(elt)
        elif isinstance(node, ast.Starred):
            targets(node.value)

    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            targets(t)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                targets(item.optional_vars)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            out.append((alias.asname or alias.name).split(".")[0])
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        out.append(stmt.name)
    return out


#: Method names that mutate their receiver in place (list/dict/set and
#: ndarray vocabulary).  ``sort``/``pop`` are deliberately included even
#: though some receivers return values — the receiver changes either way.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "update", "add", "discard", "setdefault", "popitem",
        "fill", "resize", "put", "itemset", "partition_inplace",
    }
)


def stmt_mutations(stmt: ast.stmt) -> list[tuple[str, str, int]]:
    """In-place mutations ``stmt`` performs, as ``(name, how, line)``.

    Covers subscript/attribute assignment and aug-assignment rooted at a
    bare name (``x[i] = v``, ``x.field += v``), aug-assignment of the
    name itself (``x += v`` — a rebind for scalars but an in-place
    ``__iadd__`` for ndarrays/lists), and mutator method calls
    (``x.append(v)``, ``x.fill(0)``).  Plain rebinding (``x = v``) is
    *not* a mutation: the old object is unaffected.
    """
    out: list[tuple[str, str, int]] = []

    def root(node: ast.expr) -> ast.expr:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node

    def record_target(target: ast.expr, how: str, line: int) -> None:
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = root(target)
            if isinstance(base, ast.Name):
                out.append((base.id, how, line))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                record_target(elt, how, line)

    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scopes are analysed on their own
        if isinstance(node, ast.Assign):
            for t in node.targets:
                record_target(t, "element/attribute assignment", node.lineno)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name) and isinstance(node, ast.AugAssign):
                out.append((node.target.id, "augmented assignment", node.lineno))
            else:
                record_target(node.target, "element/attribute assignment", node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                base = root(node.func.value)
                if isinstance(base, ast.Name):
                    out.append(
                        (base.id, f".{node.func.attr}() call", node.lineno)
                    )
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                record_target(t, "element deletion", node.lineno)
    return out


def solve_forward(
    cfg: CFG,
    initial: Any,
    transfer: Callable[[Any, ast.stmt], Any],
    join: Callable[[list[Any]], Any],
    *,
    max_iters: int = 10_000,
) -> dict[int, Any]:
    """Worklist fixpoint; returns the state at *entry* of every block."""
    states: dict[int, Any] = {cfg.entry: initial}
    order = cfg.rpo()
    work = list(order)
    iters = 0
    while work:
        iters += 1
        if iters > max_iters:  # defensive: bounded lattices converge long before
            break
        bid = work.pop(0)
        block = cfg.blocks[bid]
        preds_out = []
        for p in block.preds:
            if p in states:
                s = states[p]
                for stmt in cfg.blocks[p].stmts:
                    s = transfer(s, stmt)
                preds_out.append(s)
        entry_state = (
            initial if bid == cfg.entry else join(preds_out) if preds_out else None
        )
        if bid == cfg.entry and preds_out:  # loop back to entry (module CFGs)
            entry_state = join([initial, *preds_out])
        if entry_state is None:
            continue
        if bid not in states or states[bid] != entry_state:
            states[bid] = entry_state
            for s in block.succs:
                if s not in work:
                    work.append(s)
    return states


def _param_names(node: ast.AST | None) -> list[str]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    a = node.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return names


def _enclosing_stmt(node: ast.AST) -> ast.stmt | None:
    cur: ast.AST | None = node
    while cur is not None and not isinstance(cur, ast.stmt):
        cur = getattr(cur, "_lint_parent", None)
    return cur


# ----------------------------------------------------------------------
# constant propagation
# ----------------------------------------------------------------------

_PURE_BUILTINS: dict[str, Callable] = {
    "abs": abs,
    "min": min,
    "max": max,
    "len": len,
    "int": int,
    "float": float,
    "bool": bool,
    "str": str,
    "round": round,
    "sum": sum,
    "sorted": sorted,
    "tuple": tuple,
}


def eval_const_expr(expr: ast.expr, env: dict[str, Any]) -> Any:
    """Evaluate ``expr`` over the constant environment ``env``.

    ``env`` maps names to Python values, :data:`UNDEF` or :data:`NAC`.
    Returns a value, or :data:`NAC` when any input is non-constant or
    the operation is outside the supported pure subset.  Mirrors
    CPython semantics exactly on the supported subset (the hypothesis
    suite enforces agreement with ``eval``).
    """
    try:
        return _eval(expr, env)
    except _NotConst:
        return NAC
    except Exception:  # ZeroDivisionError, TypeError, overflow, ...
        return NAC


class _NotConst(Exception):
    pass


def _eval(expr: ast.expr, env: dict[str, Any]) -> Any:
    if isinstance(expr, ast.Constant):
        return expr.value
    if isinstance(expr, ast.Name):
        val = env.get(expr.id, NAC)
        if val is NAC or val is UNDEF:
            raise _NotConst
        return val
    if isinstance(expr, ast.Tuple):
        return tuple(_eval(e, env) for e in expr.elts)
    if isinstance(expr, ast.List):
        return [_eval(e, env) for e in expr.elts]
    if isinstance(expr, ast.UnaryOp):
        v = _eval(expr.operand, env)
        if isinstance(expr.op, ast.USub):
            return -v
        if isinstance(expr.op, ast.UAdd):
            return +v
        if isinstance(expr.op, ast.Not):
            return not v
        if isinstance(expr.op, ast.Invert):
            return ~v
        raise _NotConst
    if isinstance(expr, ast.BinOp):
        left = _eval(expr.left, env)
        right = _eval(expr.right, env)
        return _BINOPS[type(expr.op)](left, right)
    if isinstance(expr, ast.BoolOp):
        # Python's short-circuit value semantics
        result = _eval(expr.values[0], env)
        for v in expr.values[1:]:
            take_next = bool(result) if isinstance(expr.op, ast.And) else not bool(result)
            if not take_next:
                return result
            result = _eval(v, env)
        return result
    if isinstance(expr, ast.Compare):
        left = _eval(expr.left, env)
        for op, comparator in zip(expr.ops, expr.comparators):
            right = _eval(comparator, env)
            if not _CMPOPS[type(op)](left, right):
                return False
            left = right
        return True
    if isinstance(expr, ast.IfExp):
        return (
            _eval(expr.body, env) if _eval(expr.test, env) else _eval(expr.orelse, env)
        )
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        fn = _PURE_BUILTINS.get(expr.func.id)
        if fn is None or expr.keywords:
            raise _NotConst
        return fn(*[_eval(a, env) for a in expr.args])
    raise _NotConst


_BINOPS: dict[type, Callable] = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a**b,
    ast.LShift: lambda a, b: a << b,
    ast.RShift: lambda a, b: a >> b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitXor: lambda a, b: a ^ b,
}

_CMPOPS: dict[type, Callable] = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Is: lambda a, b: a is b,
    ast.IsNot: lambda a, b: a is not b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
}


class ConstantPropagation:
    """Per-name constant lattice over a function CFG."""

    def __init__(self, func: ast.AST) -> None:
        self.cfg = func if isinstance(func, CFG) else build_cfg(func)
        initial: dict[str, Any] = {p: NAC for p in _param_names(self.cfg.node)}
        self.entry_states = solve_forward(
            self.cfg, initial, self._transfer, self._join
        )

    @staticmethod
    def _transfer(state: dict, stmt: ast.stmt) -> dict:
        new = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                new = dict(state)
                new[target.id] = eval_const_expr(stmt.value, state)
            elif isinstance(target, ast.Tuple) and all(
                isinstance(e, ast.Name) for e in target.elts
            ):
                val = eval_const_expr(stmt.value, state)
                new = dict(state)
                if (
                    isinstance(val, (tuple, list))
                    and len(val) == len(target.elts)
                ):
                    for e, v in zip(target.elts, val):
                        new[e.id] = v  # type: ignore[attr-defined]
                else:
                    for e in target.elts:
                        new[e.id] = NAC  # type: ignore[attr-defined]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                new = dict(state)
                new[stmt.target.id] = eval_const_expr(stmt.value, state)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            new = dict(state)
            cur = state.get(stmt.target.id, UNDEF)
            if cur is NAC or cur is UNDEF:
                new[stmt.target.id] = NAC
            else:
                op = ast.BinOp(
                    left=ast.Constant(value=cur), op=stmt.op, right=stmt.value
                )
                new[stmt.target.id] = eval_const_expr(op, state)
        else:
            names = assigned_names(stmt)
            if names:
                new = dict(state)
                for n in names:
                    new[n] = NAC
        return state if new is None else new

    @staticmethod
    def _join(states: list[dict]) -> dict:
        keys = set()
        for s in states:
            keys |= set(s)
        out: dict[str, Any] = {}
        for k in keys:
            vals = [s.get(k, UNDEF) for s in states]
            merged: Any = UNDEF
            for v in vals:
                if v is UNDEF:
                    continue
                if merged is UNDEF:
                    merged = v
                elif merged is NAC or v is NAC:
                    merged = NAC
                elif type(merged) is type(v) and merged == v:
                    pass
                else:
                    merged = NAC
            out[k] = merged
        return out

    def env_at(self, node: ast.AST) -> dict[str, Any]:
        """Constant environment just before the statement holding ``node``."""
        stmt = node if isinstance(node, ast.stmt) else _enclosing_stmt(node)
        if stmt is None:
            return {}
        block = self.cfg.block_of(stmt)
        if block is None or block.id not in self.entry_states:
            return {}
        state = self.entry_states[block.id]
        for s in block.stmts:
            if s is stmt:
                return state
            state = self._transfer(state, s)
        return state


def constant_env_at(
    func: ast.FunctionDef | ast.AsyncFunctionDef, node: ast.AST
) -> dict[str, Any]:
    """Convenience wrapper: constants reaching ``node`` inside ``func``."""
    return ConstantPropagation(func).env_at(node)
