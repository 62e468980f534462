"""File collection, parsing, the per-run analysis contexts, and rule
execution.

A lint run (and every ``--verify-*`` table) parses each file once into a
:class:`ModuleContext` and wraps them in one :class:`ProjectContext`.
The contexts own what the analyses share: a module's node index, the
project's call graph, call closures, the set of communicating
functions, verification targets and the transport problem list are
each built lazily, once, by whichever rule or table asks first.
"""

from __future__ import annotations

import ast
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .astutil import NodeIndex
from .comm import COMM_ROOTS, classify, is_comm
from .findings import Finding, sort_findings
from .flow.callgraph import CallGraph, FunctionDecl, build_call_graph
from .flow.portability import TransportProblem, analyze_transport
from .registry import Rule, all_rules

__all__ = [
    "LintConfig",
    "ModuleContext",
    "ProjectContext",
    "load_project",
    "run_lint",
    "find_project_root",
    "DEFAULT_PROFILES",
    "DEFAULT_EXCLUDE",
]

#: Per-directory rule profiles: ``relpath prefix -> disabled rule-id
#: prefixes``.  The charge-parity rule and the transport-portability
#: rules describe obligations of the *drivers*; test and benchmark code
#: exercises the simulator in intentionally-partial ways, so only the
#: determinism/breakdown families apply there.  Tests additionally
#: assert exact float values against constructed data on purpose, so
#: DET003 (float-equality) is off for them.  The PERF vectorization
#: rule is likewise scoped to library code — tests and benchmarks build
#: scalar shapes deliberately (oracles, per-element assertions, timing
#: loops).
DEFAULT_PROFILES: dict[str, tuple[str, ...]] = {
    "tests/": ("PAR", "TRN", "DET003", "PERF"),
    "benchmarks/": ("PAR", "TRN", "PERF"),
}

#: Paths never linted: rule fixtures are deliberate violations.
DEFAULT_EXCLUDE: tuple[str, ...] = ("tests/lint/fixtures/",)


@dataclass
class LintConfig:
    """Knobs for a lint run (all optional)."""

    #: Restrict to these rule ids (empty = all registered).
    select: tuple[str, ...] = ()
    #: Drop these rule ids after selection.
    ignore: tuple[str, ...] = ()
    #: Project root; auto-discovered from the lint paths when None.
    project_root: Path | None = None
    #: ``relpath prefix -> disabled rule-id prefixes`` (see module docs).
    profiles: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )
    #: Project-relative path prefixes to skip entirely.
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE


@dataclass
class ModuleContext:
    """One parsed source file handed to ``check_module``."""

    path: Path
    relpath: str
    tree: ast.Module
    lines: list[str]
    #: Parent links + nodes by type, from one pass over ``tree``.
    index: NodeIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.index = NodeIndex(self.tree)

    @classmethod
    def from_source(
        cls, relpath: str, source: str, path: Path | None = None
    ) -> "ModuleContext":
        """Parse ``source`` (raises ``SyntaxError``/``ValueError``)."""
        path = path or Path(relpath)
        return cls(
            path=path,
            relpath=relpath,
            tree=ast.parse(source, filename=str(path)),
            lines=source.splitlines(),
        )


@dataclass
class ProjectContext:
    """Every module of one run plus the analyses they share."""

    root: Path
    modules: list[ModuleContext]
    config: LintConfig = field(default_factory=LintConfig)
    #: Relpaths of the files named explicitly on the command line.
    explicit: frozenset[str] = frozenset()
    _callees: dict[str, list[FunctionDecl]] = field(
        default_factory=dict, init=False, repr=False
    )

    @cached_property
    def call_graph(self) -> CallGraph:
        return build_call_graph(self.modules)

    @cached_property
    def by_relpath(self) -> dict[str, ModuleContext]:
        return {m.relpath: m for m in self.modules}

    def callees(self, decl: FunctionDecl) -> list[FunctionDecl]:
        """The project functions ``decl``'s body (nested scopes
        included) calls, each once, in call order."""
        out = self._callees.get(decl.key)
        if out is None:
            found: dict[str, FunctionDecl] = {}
            for call in decl.calls:
                callee = self.call_graph.callee(call, decl)
                if callee is not None:
                    found.setdefault(callee.key, callee)
            out = self._callees[decl.key] = list(found.values())
        return out

    def closure(self, seeds: list[FunctionDecl]) -> list[FunctionDecl]:
        """``seeds`` plus every project function reachable from them, in
        (module, qualname) order.

        Transport methods are left out, seeds included: the simulator's
        internals are the machine layer, not rank-executed driver code
        (the ledger attributes through them to the driver line for the
        same reason).
        """
        out: dict[str, FunctionDecl] = {}
        work = list(seeds)
        while work:
            decl = work.pop()
            if decl.key in out or decl.is_transport_method:
                continue
            out[decl.key] = decl
            work.extend(c for c in self.callees(decl) if c.key not in out)
        return sorted(out.values(), key=lambda d: (d.module, d.qualname))

    @cached_property
    def _communicating(self) -> frozenset[str]:
        """Keys of the functions that transitively exchange or
        synchronise: the direct callers of ``exchange`` or a collective,
        then their callers, in one backward pass over :meth:`callees`
        (transport methods are neither marked nor passed through, as in
        :meth:`closure`)."""
        callers: dict[str, list[str]] = {}
        work: list[str] = []
        for decl in self.call_graph.functions():
            if decl.is_transport_method:
                continue
            for callee in self.callees(decl):
                callers.setdefault(callee.key, []).append(decl.key)
            if any(is_comm(call) for call in decl.calls):
                work.append(decl.key)
        marked = set(work)
        while work:
            for caller in callers.get(work.pop(), ()):
                if caller not in marked:
                    marked.add(caller)
                    work.append(caller)
        return frozenset(marked)

    def has_comm(self, decl: FunctionDecl) -> bool:
        """Does ``decl`` transitively exchange or synchronise?"""
        return decl.key in self._communicating

    def targets(self) -> list[FunctionDecl]:
        """What ``--verify-transport`` certifies: the
        registered :data:`~repro.lint.comm.COMM_ROOTS` plus every other
        call-graph root whose own body calls ``exchange`` (helpers
        compose into their callers instead)."""
        cg = self.call_graph
        found: dict[str, FunctionDecl] = {}
        for relpath, qualname in COMM_ROOTS:
            decl = cg.find(relpath, qualname)
            if decl is not None:
                found.setdefault(decl.key, decl)
        functions = cg.functions()
        called = {c.key for d in functions for c in self.callees(d)}
        for decl in functions:
            if decl.key in called or decl.is_transport_method:
                continue
            if any(classify(call) == "exchange" for call in decl.calls):
                found.setdefault(decl.key, decl)
        return sorted(found.values(), key=lambda d: (d.module, d.qualname))

    @cached_property
    def transport_problems(self) -> list[TransportProblem]:
        """Every TRN problem in the project-wide communication closure."""
        return analyze_transport(self)


@dataclass
class LintStats:
    """Optional per-run instrumentation (``repro lint --stats``).

    Shared analyses are built lazily, so their cost lands on the first
    rule that asks (the call graph and the whole transport analysis on
    TRN003).
    """

    rule_seconds: dict[str, float] = field(default_factory=dict)
    files: int = 0
    parse_seconds: float = 0.0
    total_seconds: float = 0.0

    def add(self, rule_id: str, seconds: float) -> None:
        self.rule_seconds[rule_id] = self.rule_seconds.get(rule_id, 0.0) + seconds

    def render(self) -> str:
        lines = [
            f"{self.files} file(s) analyzed, {self.total_seconds:.3f}s total "
            f"({self.parse_seconds:.3f}s parse + index)"
        ]
        for rid, sec in sorted(
            self.rule_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {rid:<8} {sec * 1000:8.1f} ms")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable form for the CI timing artifact."""
        return json.dumps(
            {
                "files": self.files,
                "parse_seconds": round(self.parse_seconds, 6),
                "total_seconds": round(self.total_seconds, 6),
                "rule_seconds": {
                    rid: round(sec, 6)
                    for rid, sec in sorted(self.rule_seconds.items())
                },
            },
            indent=2,
            sort_keys=True,
        )


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the nearest ``pyproject.toml``/``.git``."""
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return cur


def collect_files(paths: list[Path]) -> list[Path]:
    """Expand directories to ``**/*.py``, de-duplicated, sorted."""
    seen: dict[Path, None] = {}
    for p in paths:
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                seen.setdefault(f.resolve(), None)
        elif p.suffix == ".py":
            seen.setdefault(p.resolve(), None)
    return sorted(seen)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_module(path: Path, root: Path) -> ModuleContext | None:
    """Parse one file; unreadable/unparsable files are skipped (None)."""
    try:
        return ModuleContext.from_source(
            _relpath(path, root), path.read_text(encoding="utf-8"), path=path
        )
    except (OSError, SyntaxError, ValueError):
        return None


def load_project(
    paths: list[Path | str], config: LintConfig | None = None
) -> ProjectContext:
    """Parse ``paths`` (files or directories) into one project context.

    A file named explicitly is always included, and later linted with
    every rule — the exclude list and the directory profiles govern
    *discovered* files only.
    """
    config = config or LintConfig()
    path_objs = [Path(p) for p in paths]
    root = config.project_root or (
        find_project_root(path_objs[0]) if path_objs else Path.cwd()
    )
    explicit = {p.resolve() for p in path_objs if p.is_file()}
    modules = [
        m
        for f in collect_files(path_objs)
        if (f in explicit or not _excluded(_relpath(f, root), config))
        and (m := parse_module(f, root)) is not None
    ]
    return ProjectContext(
        root=root,
        modules=modules,
        config=config,
        explicit=frozenset(m.relpath for m in modules if m.path.resolve() in explicit),
    )


def _active_rules(config: LintConfig) -> list[Rule]:
    rules = all_rules()
    if config.select:
        rules = [r for r in rules if r.id in config.select]
    if config.ignore:
        rules = [r for r in rules if r.id not in config.ignore]
    return rules


def _disabled_prefixes(relpath: str, config: LintConfig) -> tuple[str, ...]:
    for prefix, disabled in config.profiles.items():
        if relpath.startswith(prefix):
            return disabled
    return ()


def _rule_allowed(rule_id: str, relpath: str, config: LintConfig) -> bool:
    return not any(
        rule_id.startswith(p) for p in _disabled_prefixes(relpath, config)
    )


def _excluded(relpath: str, config: LintConfig) -> bool:
    return any(relpath.startswith(p) for p in config.exclude)


def run_lint(
    paths: list[Path | str],
    config: LintConfig | None = None,
    stats: LintStats | None = None,
) -> list[Finding]:
    """Lint ``paths`` (files or directories) and return sorted findings.

    Per-module rules honour the directory profiles; project rules always
    run, with their findings filtered through the same profiles
    afterwards.
    """
    t_start = time.perf_counter()
    project = load_project(paths, config)
    config = project.config
    rules = _active_rules(config)
    if stats is not None:
        stats.files += len(project.modules)
        stats.parse_seconds = time.perf_counter() - t_start

    def allowed(rule_id: str, relpath: str) -> bool:
        return relpath in project.explicit or _rule_allowed(rule_id, relpath, config)

    findings: list[Finding] = []
    for module in project.modules:
        for rule in rules:
            if not allowed(rule.id, module.relpath):
                continue
            t0 = time.perf_counter()
            findings.extend(rule.check_module(module))
            if stats is not None:
                stats.add(rule.id, time.perf_counter() - t0)

    for rule in rules:
        t0 = time.perf_counter()
        findings.extend(
            f for f in rule.check_project(project) if allowed(f.rule, f.path)
        )
        if stats is not None:
            stats.add(rule.id, time.perf_counter() - t0)

    if stats is not None:
        stats.total_seconds = time.perf_counter() - t_start
    return sort_findings(findings)
