"""Project-wide call graph with import- and class-aware name resolution.

Built once per lint run from every parsed module (by
:attr:`repro.lint.runner.ProjectContext.call_graph`), the graph answers
the question every interprocedural analysis needs:
*which function body does this call site execute?* — across

* plain module-level calls (``helper(...)``),
* imported names (``from .elimination import EliminationEngine``,
  including relative imports and aliasing),
* module-attribute calls (``mod.helper(...)`` through ``import``),
* ``self.method(...)`` dispatch, resolved through a linearised
  single-inheritance MRO that itself follows imports (e.g.
  ``InterfacePartitionEngine`` inheriting ``EliminationEngine`` from a
  sibling module); a root named through a subclass that inherits it
  (``InterfacePartitionEngine.run``) is bound to that subclass, so the
  template method's ``self._run_level`` reaches the override.

Resolution is best-effort and *sound for composition*: an unresolvable
call simply contributes no callee (the analyses treat it as opaque),
never a wrong one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from ..comm import implements_transport

__all__ = ["FunctionDecl", "ClassDecl", "CallGraph", "build_call_graph"]


@dataclass
class FunctionDecl:
    """One function/method definition in the project."""

    module: str  # project-root-relative posix path
    qualname: str  # "func" or "Class.method"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: "ClassDecl | None" = None
    #: Every call beneath ``node`` (nested scopes included), from the
    #: module's node index.
    calls: list[ast.Call] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"

    @property
    def home(self) -> str:
        """The module a report files this function under: its class's
        for a method (so an inherited method bound to a subclass, see
        :meth:`CallGraph.lookup`, is filed with the subclass), else its
        own.  ``module`` stays where the body — and its line numbers —
        live."""
        return self.cls.module if self.cls is not None else self.module

    @property
    def is_transport_method(self) -> bool:
        """Methods of the class that *implements* ``exchange`` and
        ``barrier`` are the transport, not an SPMD driver — their posts
        are queue operations."""
        return self.cls is not None and implements_transport(self.cls.methods)


@dataclass
class ClassDecl:
    """One class definition with its (unresolved) base names."""

    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionDecl] = field(default_factory=dict)


def _dotted_module(relpath: str) -> str:
    """``src/repro/ilu/elimination.py`` -> ``repro.ilu.elimination``."""
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _is_mutable_value(expr: ast.expr) -> bool:
    """Module-level values whose in-place mutation TRN003 tracks."""
    if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = expr.func.attr if isinstance(expr.func, ast.Attribute) else (
            expr.func.id if isinstance(expr.func, ast.Name) else ""
        )
        return name in _MUTABLE_CTORS
    return False


def _attr_chain(node: ast.expr) -> str:
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return ""


@dataclass
class _ModuleInfo:
    relpath: str
    dotted: str
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    classes: dict[str, ClassDecl] = field(default_factory=dict)
    #: local name -> (defining module dotted name, remote name | None).
    #: remote None means the name *is* the module (``import x.y as z``).
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    #: Module-level names bound to mutable containers (list/dict/set
    #: displays or constructor calls) — the TRN003 mutation targets.
    mutable_globals: frozenset[str] = frozenset()


class CallGraph:
    """Declarations, import tables, and call-site resolution."""

    def __init__(self) -> None:
        self._by_dotted: dict[str, _ModuleInfo] = {}
        self._by_relpath: dict[str, _ModuleInfo] = {}

    # ------------------------------------------------------------ build

    def add_module(self, module) -> None:
        """Index one ``ModuleContext`` (``relpath``, ``tree``, ``index``)."""
        relpath, tree, index = module.relpath, module.tree, module.index
        info = _ModuleInfo(relpath=relpath, dotted=_dotted_module(relpath))
        is_pkg = relpath.replace("\\", "/").endswith("/__init__.py")
        info.mutable_globals = frozenset(
            t.id
            for node in tree.body
            if isinstance(node, ast.Assign) and _is_mutable_value(node.value)
            for t in node.targets
            if isinstance(t, ast.Name)
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = FunctionDecl(
                    module=relpath,
                    qualname=node.name,
                    node=node,
                    calls=index.calls_under(node),
                )
            elif isinstance(node, ast.ClassDef):
                cls = ClassDecl(
                    module=relpath,
                    name=node.name,
                    node=node,
                    bases=[b for b in map(_attr_chain, node.bases) if b],
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls.methods[item.name] = FunctionDecl(
                            module=relpath,
                            qualname=f"{node.name}.{item.name}",
                            node=item,
                            cls=cls,
                            calls=index.calls_under(item),
                        )
                info.classes[node.name] = cls
        for node in index.of(ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = (target, None)
        for node in index.of(ast.ImportFrom):
            base = self._resolve_relative(info.dotted, node, is_pkg=is_pkg)
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports[alias.asname or alias.name] = (base, alias.name)
        self._by_dotted[info.dotted] = info
        self._by_relpath[relpath] = info

    @staticmethod
    def _resolve_relative(
        dotted: str, node: ast.ImportFrom, *, is_pkg: bool = False
    ) -> str:
        if node.level == 0:
            return node.module or ""
        parts = dotted.split(".")
        # level 1 = current package.  A plain module's dotted path ends
        # with its own leaf name, so strip `level` components; a package
        # ``__init__``'s dotted path *is* the current package already,
        # so strip one fewer (``from .kway import ...`` inside
        # ``repro/partition/__init__.py`` stays in ``repro.partition``).
        drop = node.level - 1 if is_pkg else node.level
        parts = parts[: max(0, len(parts) - drop)]
        if node.module:
            parts += node.module.split(".")
        return ".".join(parts)

    # ---------------------------------------------------------- queries

    def mutable_globals(self, relpath: str) -> frozenset[str]:
        """Module-level mutable-container names of ``relpath``."""
        info = self._by_relpath.get(relpath)
        return info.mutable_globals if info is not None else frozenset()

    def functions(self) -> list[FunctionDecl]:
        out: list[FunctionDecl] = []
        for info in self._by_relpath.values():
            out.extend(info.functions.values())
            for cls in info.classes.values():
                out.extend(cls.methods.values())
        return out

    def lookup(self, relpath: str, qualname: str) -> FunctionDecl | None:
        info = self._by_relpath.get(relpath)
        if info is None:
            return None
        if "." in qualname:
            cls_name, _, meth = qualname.partition(".")
            cls = info.classes.get(cls_name)
            if cls is None:
                return None
            decl = self._method_in_mro(cls, meth)
            if decl is not None and decl.cls is not cls:
                # an inherited method as the subclass runs it: ``self.X``
                # in its body dispatches through the subclass's MRO, which
                # is how a template method reaches the overridden step
                decl = replace(decl, cls=cls, qualname=qualname)
            return decl
        return info.functions.get(qualname)

    def find(self, relpath: str, qualname: str) -> FunctionDecl | None:
        """:meth:`lookup`, tolerating a project root other than the repo
        checkout (tests, sub-trees): the module path may match by suffix."""
        decl = self.lookup(relpath, qualname)
        if decl is not None:
            return decl
        for d in self.functions():
            if d.qualname == qualname and (
                d.module.endswith("/" + relpath.lstrip("/"))
                or relpath.endswith("/" + d.module)
            ):
                return d
        return None

    def _resolve_name(
        self, info: _ModuleInfo, name: str, *, depth: int = 0
    ) -> FunctionDecl | ClassDecl | None:
        """A name in ``info``'s namespace -> its declaration (if ours)."""
        if depth > 8:
            return None
        if name in info.functions:
            return info.functions[name]
        if name in info.classes:
            return info.classes[name]
        if name in info.imports:
            src_dotted, remote = info.imports[name]
            src = self._by_dotted.get(src_dotted)
            if src is None or remote is None:
                return None
            return self._resolve_name(src, remote, depth=depth + 1)
        return None

    def mro(self, cls: ClassDecl) -> list[ClassDecl]:
        """Linearised single-inheritance chain (first base wins)."""
        out = [cls]
        seen = {id(cls)}
        cur: ClassDecl | None = cls
        while cur is not None and cur.bases:
            base_decl = None
            info = self._by_relpath.get(cur.module)
            if info is not None:
                for b in cur.bases:
                    resolved = self._resolve_name(info, b.split(".")[-1])
                    if isinstance(resolved, ClassDecl):
                        base_decl = resolved
                        break
            if base_decl is None or id(base_decl) in seen:
                break
            out.append(base_decl)
            seen.add(id(base_decl))
            cur = base_decl
        return out

    def _method_in_mro(self, cls: ClassDecl, name: str) -> FunctionDecl | None:
        for c in self.mro(cls):
            if name in c.methods:
                return c.methods[name]
        return None

    def callee(self, call: ast.Call, caller: FunctionDecl) -> FunctionDecl | None:
        """The project function a call inside ``caller``'s body executes,
        or None if opaque."""
        info = self._by_relpath.get(caller.module)
        if info is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self._resolve_name(info, func.id)
            if isinstance(resolved, FunctionDecl):
                return resolved
            if isinstance(resolved, ClassDecl):  # constructor: __init__
                return self._method_in_mro(resolved, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                if caller.cls is None:
                    return None
                return self._method_in_mro(caller.cls, func.attr)
            if isinstance(base, ast.Name) and base.id in info.imports:
                src_dotted, remote = info.imports[base.id]
                if remote is None:  # module alias: mod.func(...)
                    src = self._by_dotted.get(src_dotted)
                    if src is not None:
                        resolved = self._resolve_name(src, func.attr)
                        if isinstance(resolved, FunctionDecl):
                            return resolved
            return None
        return None


def build_call_graph(modules: list) -> CallGraph:
    """Build from the run's ``ModuleContext`` list."""
    cg = CallGraph()
    for m in modules:
        cg.add_module(m)
    return cg
