"""Abstract interpretation of Python value types and numpy dtypes.

The transport rules (TRN002/TRN004) need two judgements about a value
*before* any real message-passing transport exists to test it:

* **pickle safety** — would ``pickle.dumps`` accept the value a driver
  posts?  Locks, generators, lambdas, open files, live ``Simulator``
  handles and thread objects all fail (or, worse, round-trip into a
  semantically different object).
* **dtype discipline** — is a numpy array constructed with an explicit
  64-bit dtype?  ``np.arange(n)`` yields the *platform default* integer
  (``int32`` on Windows/LLP64), and ``float32`` narrowing changes the
  bits of every downstream accumulation — either breaks the
  cross-transport bit-identity contract of ROADMAP item 1.

The interpreter is a flow-insensitive fixpoint over a function's
assignments, mirroring the taint layer (:mod:`~repro.lint.flow.taint`):
every binding whose right-hand side has an inferable :class:`AbsType`
types its targets; conflicting rebinds merge to :data:`UNKNOWN`.  The
lattice is deliberately *sound for alarms*: :data:`UNKNOWN` is treated
as safe everywhere, so every report is a definite hazard, never a
guess.  The hypothesis suite pins the other direction — anything
:func:`is_pickle_safe` calls safe really does round-trip ``pickle``
equal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..astutil import call_name, dotted_name

__all__ = [
    "AbsType",
    "UNKNOWN",
    "infer_expr",
    "infer_types",
    "is_pickle_safe",
    "unsafe_reason",
    "dtype_violation",
]

#: Kinds whose values ``pickle`` rejects or mangles (definitely unsafe).
UNSAFE_KINDS: dict[str, str] = {
    "lock": "thread locks cannot be pickled",
    "generator": "generators cannot be pickled",
    "lambda": "lambdas cannot be pickled",
    "file": "open file handles cannot be pickled",
    "simulator": "a live Simulator/Transport handle must not cross the transport",
    "thread": "thread objects cannot be pickled",
    "module": "module objects cannot be pickled",
}

#: Kinds that definitely round-trip ``pickle.loads(pickle.dumps(v))``
#: equal (containers additionally need every element kind safe).
_SAFE_SCALARS = frozenset({"none", "bool", "int", "float", "str", "bytes"})
_SAFE_CONTAINERS = frozenset({"list", "tuple", "dict", "set", "ndarray"})


@dataclass(frozen=True)
class AbsType:
    """One point of the abstract type lattice.

    ``dtype``/``dtype_explicit`` are only meaningful for ``ndarray``;
    ``elems`` holds the (merged) element types of containers.
    """

    kind: str
    dtype: str = ""
    dtype_explicit: bool = False
    elems: tuple["AbsType", ...] = field(default_factory=tuple)

    def __repr__(self) -> str:
        extra = f"[{self.dtype}]" if self.dtype else ""
        return f"{self.kind}{extra}"


UNKNOWN = AbsType("unknown")

_LOCK_CTORS = frozenset({"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"})
_THREAD_CTORS = frozenset({"Thread", "Timer", "Process", "Pool", "ThreadPoolExecutor"})
_FILE_CTORS = frozenset({"open"})
# note: result dataclasses carry a *string* ``.transport`` field, so the
# bare word "transport" must NOT imply a live handle here
_SIM_NAMES = frozenset({"sim", "simulator", "machine"})
#: Constructors/factories that yield a live transport handle — as
#: un-picklable (and as forbidden inside a posted payload) as a bare
#: ``Simulator``: a worker holding one could issue coordinator-context
#: calls, which every real backend rejects.
_TRANSPORT_CTORS = frozenset(
    {
        "Simulator",
        "ThreadTransport",
        "ProcessTransport",
        "LocalTransport",
        "resolve_transport",
        "entry_transport",
    }
)

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

#: Explicit dtype spellings that satisfy the 64-bit contract.
_WIDE_DTYPES = frozenset(
    {"float64", "f8", "int64", "i8", "float", "double", "complex128", "bool", "bool_"}
)
#: Explicit dtype spellings that violate it (narrowing / platform ints).
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


def _int_valued(expr: ast.expr, env: dict[str, AbsType]) -> bool:
    """Definitely-integer content: int constants, ``range(...)``, an
    int-typed name, or a list/tuple of such."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, int) and not isinstance(expr.value, bool)
    if isinstance(expr, (ast.List, ast.Tuple)):
        return bool(expr.elts) and all(_int_valued(e, env) for e in expr.elts)
    if isinstance(expr, ast.Call) and call_name(expr) == "range":
        return True
    if isinstance(expr, ast.Name):
        return env.get(expr.id, UNKNOWN).kind == "int"
    if isinstance(expr, ast.UnaryOp):
        return _int_valued(expr.operand, env)
    return False


def _float_valued(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, float)
    if isinstance(expr, ast.UnaryOp):
        return _float_valued(expr.operand)
    return False


def dtype_violation(call: ast.Call, env: dict[str, AbsType] | None = None) -> str:
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
# expression typing
# ----------------------------------------------------------------------


def _ndarray_type(call: ast.Call, env: dict[str, AbsType]) -> AbsType:
    name = call_name(call)
    dt = _dtype_arg(call)
    if dt is not None:
        spelled = _dtype_name(dt)
        return AbsType("ndarray", dtype=spelled or "", dtype_explicit=bool(spelled))
    if name in _FLOAT_DEFAULT_CTORS:
        return AbsType("ndarray", dtype="float64", dtype_explicit=False)
    if name == "arange":
        if any(_float_valued(a) for a in call.args):
            return AbsType("ndarray", dtype="float64", dtype_explicit=False)
        return AbsType("ndarray", dtype="int_default", dtype_explicit=False)
    if name in ("array", "asarray", "fromiter") and call.args:
        if _int_valued(call.args[0], env):
            return AbsType("ndarray", dtype="int_default", dtype_explicit=False)
    return AbsType("ndarray")


def _call_type(call: ast.Call, env: dict[str, AbsType]) -> AbsType:
    name = call_name(call)
    if name in _LOCK_CTORS:
        return AbsType("lock")
    if name in _THREAD_CTORS:
        return AbsType("thread")
    if name in _FILE_CTORS and isinstance(call.func, ast.Name):
        return AbsType("file")
    if name in _TRANSPORT_CTORS:
        return AbsType("simulator")
    if name in _NDARRAY_CTORS and _is_numpy_call(call):
        return _ndarray_type(call, env)
    if name in ("list", "tuple", "set", "dict") and isinstance(call.func, ast.Name):
        if call.args:
            inner = infer_expr(call.args[0], env)
            elems = inner.elems if inner.elems else ()
            return AbsType(name, elems=elems)
        return AbsType(name)
    if name in ("copy", "deepcopy"):
        return infer_expr(call.args[0], env) if call.args else UNKNOWN
    if name in ("float", "int", "str", "bool", "bytes") and isinstance(
        call.func, ast.Name
    ):
        return AbsType({"float": "float", "int": "int", "str": "str",
                        "bool": "bool", "bytes": "bytes"}[name])
    return UNKNOWN


def infer_expr(expr: ast.expr, env: dict[str, AbsType]) -> AbsType:
    """Best-effort abstract type of ``expr`` under ``env``."""
    if isinstance(expr, ast.Constant):
        v = expr.value
        if v is None:
            return AbsType("none")
        if isinstance(v, bool):
            return AbsType("bool")
        if isinstance(v, int):
            return AbsType("int")
        if isinstance(v, float):
            return AbsType("float")
        if isinstance(v, str):
            return AbsType("str")
        if isinstance(v, bytes):
            return AbsType("bytes")
        return UNKNOWN
    if isinstance(expr, ast.Name):
        return env.get(expr.id, UNKNOWN)
    if isinstance(expr, ast.Lambda):
        return AbsType("lambda")
    if isinstance(expr, ast.GeneratorExp):
        return AbsType("generator")
    if isinstance(expr, (ast.ListComp, ast.SetComp)):
        kind = "list" if isinstance(expr, ast.ListComp) else "set"
        return AbsType(kind, elems=(infer_expr(expr.elt, env),))
    if isinstance(expr, ast.DictComp):
        return AbsType(
            "dict", elems=(infer_expr(expr.key, env), infer_expr(expr.value, env))
        )
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        kind = {ast.List: "list", ast.Tuple: "tuple", ast.Set: "set"}[type(expr)]
        elems = tuple(infer_expr(e, env) for e in expr.elts)
        return AbsType(kind, elems=elems)
    if isinstance(expr, ast.Dict):
        elems = tuple(
            infer_expr(e, env)
            for e in (*expr.keys, *expr.values)
            if e is not None
        )
        return AbsType("dict", elems=elems)
    if isinstance(expr, ast.Call):
        return _call_type(expr, env)
    if isinstance(expr, ast.IfExp):
        return _merge(infer_expr(expr.body, env), infer_expr(expr.orelse, env))
    if isinstance(expr, ast.Attribute):
        # ``self.sim`` / ``x.simulator``: the handle travels by attribute
        if expr.attr in _SIM_NAMES:
            return AbsType("simulator")
        return UNKNOWN
    return UNKNOWN


def _merge(a: AbsType, b: AbsType) -> AbsType:
    if a == b:
        return a
    if a.kind == b.kind:
        dtype = a.dtype if a.dtype == b.dtype else ""
        explicit = a.dtype_explicit and b.dtype_explicit and bool(dtype)
        elems = a.elems if a.elems == b.elems else ()
        return AbsType(a.kind, dtype=dtype, dtype_explicit=explicit, elems=elems)
    return UNKNOWN


# ----------------------------------------------------------------------
# fixpoint over a function body
# ----------------------------------------------------------------------


def _annotation_type(ann: ast.expr) -> AbsType:
    name = dotted_name(ann)
    leaf = name.rsplit(".", 1)[-1] if name else ""
    if leaf in ("Simulator", "Transport", "ThreadTransport", "ProcessTransport"):
        return AbsType("simulator")
    if leaf == "ndarray":
        return AbsType("ndarray")
    if leaf in ("int", "float", "str", "bool", "bytes"):
        return AbsType(leaf)
    return UNKNOWN


def infer_types(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, AbsType]:
    """``name -> AbsType`` for every local of ``func`` (fixpoint).

    Parameters seed from annotations plus the ``sim``/``simulator``
    naming convention; nested function definitions type their name as
    un-picklable closures would (a def used as a payload is as unsafe
    as a lambda, and generators are detected from ``yield``).
    """
    env: dict[str, AbsType] = {}
    all_args = list(func.args.posonlyargs + func.args.args + func.args.kwonlyargs)
    if func.args.vararg:
        all_args.append(func.args.vararg)
    for a in all_args:
        t = _annotation_type(a.annotation) if a.annotation else UNKNOWN
        if t is UNKNOWN and a.arg in _SIM_NAMES:
            t = AbsType("simulator")
        if t is not UNKNOWN:
            env[a.arg] = t
    bindings: list[tuple[list[str], ast.expr]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            kind = "generator" if any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node)
            ) else "lambda"
            env[node.name] = AbsType(kind)
            continue
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names:
                bindings.append((names, node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                bindings.append(([node.target.id], node.value))
            else:
                t = _annotation_type(node.annotation)
                if t is not UNKNOWN:
                    env.setdefault(node.target.id, t)
        elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            bindings.append(([node.target.id], node.value))
        elif isinstance(node, ast.withitem) and isinstance(
            node.optional_vars, ast.Name
        ):
            bindings.append(([node.optional_vars.id], node.context_expr))
    changed = True
    iters = 0
    while changed and iters < 50:
        changed = False
        iters += 1
        for names, value in bindings:
            t = infer_expr(value, env)
            if t is UNKNOWN:
                continue
            for name in names:
                old = env.get(name)
                new = t if old is None else _merge(old, t)
                if new != old:
                    env[name] = new
                    changed = True
    return env


# ----------------------------------------------------------------------
# pickle-safety judgements
# ----------------------------------------------------------------------


def unsafe_reason(t: AbsType) -> str:
    """Why a value of type ``t`` cannot cross a pickling transport
    ('' when not *definitely* unsafe — unknown is safe-for-alarms)."""
    if t.kind in UNSAFE_KINDS:
        return UNSAFE_KINDS[t.kind]
    if t.kind in _SAFE_CONTAINERS:
        for e in t.elems:
            reason = unsafe_reason(e)
            if reason:
                return f"contains an unpicklable element: {reason}"
    return ""


def is_pickle_safe(t: AbsType) -> bool:
    """*Definitely* safe: every such value round-trips pickle equal.

    The hypothesis suite generates values of these shapes and asserts
    ``pickle.loads(pickle.dumps(v)) == v`` — the static judgement's
    runtime oracle.  Unknown/opaque types return False here (they are
    merely not-reportable, not certified).
    """
    if t.kind in _SAFE_SCALARS:
        return True
    if t.kind == "ndarray":
        return True
    if t.kind in ("list", "tuple", "dict", "set"):
        return bool(t.elems) and all(is_pickle_safe(e) for e in t.elems)
    return False
