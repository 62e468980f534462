"""Abstract value kinds and numpy dtype discipline (``TRN004``).

Arrays built in rank-executed code must carry an explicit 64-bit
dtype: ``np.arange(n)`` yields the *platform default* integer
(``int32`` on Windows/LLP64), and ``float32`` narrowing changes the
bits of every downstream accumulation — either breaks the
cross-transport bit-identity contract (DESIGN.md §12).
:func:`dtype_violation` judges one constructor call.

Telling that ``np.array([n, m])`` builds integer content needs to know
which names hold ints, so :func:`infer_types` gives every local of a
function an abstract *kind* (``"int"``, ``"float"``, ``"ndarray"``,
``"list"`` …).  It is a flow-insensitive fixpoint over the function's
assignments: every binding whose right-hand side has an inferable kind
types its targets, and conflicting rebinds merge to :data:`UNKNOWN`.  The lattice
is sound for alarms: :data:`UNKNOWN` is never integer content, so every
report is a definite hazard, never a guess.
"""

from __future__ import annotations

import ast

from ..astutil import call_name, dotted_name

__all__ = ["UNKNOWN", "infer_expr", "infer_types", "dtype_violation"]

#: The kind of a value nothing definite is known about.
UNKNOWN = "unknown"

#: numpy constructors whose default dtype is float64 — deterministic
#: across platforms, so an implicit dtype is tolerated.
_FLOAT_DEFAULT_CTORS = frozenset(
    {"zeros", "ones", "empty", "linspace", "eye", "identity", "rand", "randn"}
)
#: numpy constructors whose dtype follows their *input* — the hazard.
_INPUT_DTYPE_CTORS = frozenset({"array", "asarray", "arange", "full", "fromiter"})
_NDARRAY_CTORS = (
    _FLOAT_DEFAULT_CTORS
    | _INPUT_DTYPE_CTORS
    | {"zeros_like", "ones_like", "empty_like", "full_like", "concatenate", "repeat"}
)

#: Explicit dtype spellings that violate the 64-bit contract (narrowing
#: or platform-width); anything else explicit passes.
_NARROW_DTYPES = frozenset(
    {
        "float32", "float16", "half", "single", "f4", "f2",
        "int32", "int16", "int8", "i4", "i2", "i1",
        "intc", "intp", "int", "int_", "long",
        "uint32", "uint16", "uint8", "uint64",
        "longdouble", "complex64",
    }
)

#: Positional index of the ``dtype`` argument per constructor.
_DTYPE_POS = {
    "zeros": 1, "ones": 1, "empty": 1, "array": 1, "asarray": 1,
    "full": 2, "arange": 3, "fromiter": 1, "eye": 2, "identity": 1,
}

#: Kinds of Python constants, by exact type.
_CONSTANT_KINDS = {
    type(None): "none", bool: "bool", int: "int", float: "float", str: "str", bytes: "bytes"
}
_SCALAR_CTORS = frozenset({"float", "int", "str", "bool", "bytes"})
_CONTAINER_CTORS = frozenset({"list", "tuple", "set", "dict"})


def _dtype_arg(call: ast.Call) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    pos = _DTYPE_POS.get(call_name(call))
    if pos is not None and len(call.args) > pos:
        return call.args[pos]
    return None


def _dtype_name(expr: ast.expr) -> str:
    """``np.float64`` / ``"int64"`` / ``float`` -> canonical spelling."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    name = dotted_name(expr)
    return name.rsplit(".", 1)[-1] if name else ""


def _is_numpy_call(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return name.startswith(("np.", "numpy.")) or call_name(call) in (
        "zeros_like", "ones_like", "empty_like", "full_like"
    )


def _int_valued(expr: ast.expr, env: dict[str, str]) -> bool:
    """Definitely-integer content: int constants, ``range(...)``, an
    int-kind name, or a list/tuple of such."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, int) and not isinstance(expr.value, bool)
    if isinstance(expr, (ast.List, ast.Tuple)):
        return bool(expr.elts) and all(_int_valued(e, env) for e in expr.elts)
    if isinstance(expr, ast.Call) and call_name(expr) == "range":
        return True
    if isinstance(expr, ast.Name):
        return env.get(expr.id) == "int"
    if isinstance(expr, ast.UnaryOp):
        return _int_valued(expr.operand, env)
    return False


def _float_valued(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, float)
    if isinstance(expr, ast.UnaryOp):
        return _float_valued(expr.operand)
    return False


def dtype_violation(call: ast.Call, env: dict[str, str] | None = None) -> str:
    """Why ``call`` breaks the 64-bit dtype contract ('' when it doesn't).

    Only definite violations are reported: an explicitly narrow or
    platform-default dtype, ``np.arange`` with no dtype (its result
    follows the platform integer unless an argument is a float), and
    ``np.array``/``asarray``/``full``/``fromiter`` over definitely-
    integer content with no dtype.  Unresolvable dtype expressions and
    float-defaulting constructors (``np.zeros(n)`` is float64 on every
    platform) pass.
    """
    name = call_name(call)
    if name not in _NDARRAY_CTORS or not _is_numpy_call(call):
        return ""
    env = env or {}
    dt = _dtype_arg(call)
    if dt is not None:
        spelled = _dtype_name(dt)
        if spelled in _NARROW_DTYPES:
            return (
                f"explicit dtype {spelled!r} is not 64-bit"
                + (" (platform-default width)" if spelled in ("int", "intc", "intp", "int_", "long") else "")
            )
        return ""  # wide or unresolvable: fine
    if name == "arange":
        if any(_float_valued(a) for a in call.args):
            return ""
        return "np.arange without dtype yields the platform-default integer"
    if name in ("array", "asarray", "fromiter") and call.args:
        if _int_valued(call.args[0], env):
            return f"np.{name} of integer content without dtype yields the platform-default integer"
        return ""
    if name == "full" and len(call.args) > 1 and _int_valued(call.args[1], env):
        return "np.full with an integer fill and no dtype yields the platform-default integer"
    return ""


# ----------------------------------------------------------------------
# kind inference
# ----------------------------------------------------------------------


def _merge(a: str, b: str) -> str:
    return a if a == b else UNKNOWN


def _call_kind(call: ast.Call, env: dict[str, str]) -> str:
    name = call_name(call)
    if name in _NDARRAY_CTORS and _is_numpy_call(call):
        return "ndarray"
    if isinstance(call.func, ast.Name) and name in _CONTAINER_CTORS | _SCALAR_CTORS:
        return name
    if name in ("copy", "deepcopy"):
        return infer_expr(call.args[0], env) if call.args else UNKNOWN
    return UNKNOWN


def infer_expr(expr: ast.expr, env: dict[str, str]) -> str:
    """Best-effort abstract kind of ``expr`` under ``env``."""
    if isinstance(expr, ast.Constant):
        return _CONSTANT_KINDS.get(type(expr.value), UNKNOWN)
    if isinstance(expr, ast.Name):
        return env.get(expr.id, UNKNOWN)
    if isinstance(expr, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, ast.Tuple):
        return "tuple"
    if isinstance(expr, ast.Call):
        return _call_kind(expr, env)
    if isinstance(expr, ast.IfExp):
        return _merge(infer_expr(expr.body, env), infer_expr(expr.orelse, env))
    return UNKNOWN


def _annotation_kind(ann: ast.expr) -> str:
    name = dotted_name(ann)
    leaf = name.rsplit(".", 1)[-1] if name else ""
    if leaf == "ndarray":
        return "ndarray"
    return leaf if leaf in _SCALAR_CTORS else UNKNOWN


def infer_types(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    """``name -> kind`` for every local of ``func`` (fixpoint).

    Parameters seed from their annotations; every assignment, annotated
    assignment, walrus and ``with ... as`` binding contributes.
    """
    env: dict[str, str] = {}
    all_args = list(func.args.posonlyargs + func.args.args + func.args.kwonlyargs)
    if func.args.vararg:
        all_args.append(func.args.vararg)
    for a in all_args:
        kind = _annotation_kind(a.annotation) if a.annotation else UNKNOWN
        if kind != UNKNOWN:
            env[a.arg] = kind
    bindings: list[tuple[list[str], ast.expr]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names:
                bindings.append((names, node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                bindings.append(([node.target.id], node.value))
            else:
                kind = _annotation_kind(node.annotation)
                if kind != UNKNOWN:
                    env.setdefault(node.target.id, kind)
        elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            bindings.append(([node.target.id], node.value))
        elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
            bindings.append(([node.optional_vars.id], node.context_expr))
    changed = True
    iters = 0
    while changed and iters < 50:
        changed = False
        iters += 1
        for names, value in bindings:
            kind = infer_expr(value, env)
            if kind == UNKNOWN:
                continue
            for name in names:
                old = env.get(name)
                new = kind if old is None else _merge(old, kind)
                if new != old:
                    env[name] = new
                    changed = True
    return env
