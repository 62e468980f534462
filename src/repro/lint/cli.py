"""The ``python -m repro lint`` command.

Exit status: 0 when there are no findings, 1 otherwise — the CI
contract.  ``--verify-transport`` prints a per-root certification table
of the transport-portability analysis (hidden state, dtype discipline);
``--verify-costs`` certifies the statically derived flop/comm cost
models against the simulator's recorded charges on small seeded
instances.  The two flags compose: the files are parsed once, one call
graph serves both tables, they print in transport → costs order, and
the exit status is 1 if any row is not CERTIFIED.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from .output import render_github, render_json, render_text
from .registry import all_rules
from .runner import (
    LintConfig,
    LintStats,
    ProjectContext,
    find_project_root,
    load_project,
    run_lint,
)

__all__ = ["add_lint_parser", "cmd_lint"]


def add_lint_parser(sub: "argparse._SubParsersAction") -> argparse.ArgumentParser:
    p = sub.add_parser(
        "lint",
        help="static SPMD/determinism/accounting analysis",
        description=(
            "AST-based static analysis: SPMD communication discipline, "
            "determinism hazards, integral flop charges, breakdown typing, "
            "transport portability, and the transport / cost "
            "certification tables. Exit 1 on any finding or uncertified row."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text; github = workflow commands)",
    )
    p.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only files modified per `git status` (pre-commit mode)",
    )
    p.add_argument("--select", default="", help="comma-separated rule ids to run")
    p.add_argument("--ignore", default="", help="comma-separated rule ids to skip")
    p.add_argument(
        "--verify-transport",
        action="store_true",
        help=(
            "certify the comm roots transport-portable (hidden state, "
            "dtype discipline)"
        ),
    )
    p.add_argument(
        "--verify-costs",
        action="store_true",
        help=(
            "certify the symbolic flop/comm cost models against the "
            "simulator's recorded charges on small seeded instances"
        ),
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule timing statistics to stderr",
    )
    p.add_argument(
        "--stats-json",
        default=None,
        metavar="FILE",
        help="also write the timing statistics as JSON to FILE",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule registry and exit"
    )
    p.set_defaults(func=cmd_lint)
    return p


def _git_changed_files(root: Path) -> list[Path] | None:
    """Modified/added/untracked .py files per git, or None if git fails."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    out: list[Path] = []
    for line in proc.stdout.splitlines():
        if len(line) < 4 or line[0] == "D" or line[1] == "D":
            continue
        name = line[3:].split(" -> ")[-1].strip().strip('"')
        if name.endswith(".py"):
            p = root / name
            if p.exists():
                out.append(p)
    return out


def _restrict_to_changed(paths: list[Path], root: Path) -> list[Path]:
    changed = _git_changed_files(root)
    if changed is None:
        return paths  # not a git checkout: lint everything requested
    requested = [p.resolve() for p in paths]
    picked = []
    for c in changed:
        rc = c.resolve()
        for req in requested:
            if rc == req or req in rc.parents:
                picked.append(c)
                break
    return picked


def _print_table(reports: list, what: str, footer: str, render_row) -> bool:
    """Print one certification table; True when every row certified."""
    if not reports:
        print(f"no {what} found to verify")
        return False
    for r in reports:
        render_row(r)
    certified = sum(1 for r in reports if r.certified)
    print(f"{certified}/{len(reports)} {footer}")
    return certified == len(reports)


def _transport_row(r) -> None:
    status = "CERTIFIED" if r.certified else "FAILED"
    print(f"{status:<9} {r.module}::{r.qualname}  functions={r.functions}")
    for p in r.problems:
        print(
            f"  {p.rule} [{p.kind}] {p.module}:{p.line} "
            f"in {p.function}: {p.message}"
        )


def _costs_row(r) -> None:
    status = "CERTIFIED" if r.certified else "DRIFT"
    model = ", ".join(f"{name}={text}" for name, text in r.expressions.items())
    print(
        f"{status:<9} {r.module}::{r.qualname}  "
        f"runs={r.runs} sites={r.sites} checks={len(r.checks)}"
    )
    if model:
        print(f"  model: {model}")
    for p in r.problems:
        print(f"  problem: {p}")
    for c in r.checks:
        if c.status != "ok":
            print(
                f"  drift: {c.name}: expected {c.expected}, got {c.actual}"
                + (f" ({c.detail})" if c.detail else "")
            )


def _cmd_verify(args: argparse.Namespace, project: ProjectContext) -> int:
    """Every requested certification table over one project context."""
    from .costverify import verify_costs
    from .flow import verify_transport

    ok = True
    if args.verify_transport:
        ok &= _print_table(
            verify_transport(project),
            "drivers",
            "driver(s) certified transport-portable",
            _transport_row,
        )
    if args.verify_costs:
        ok &= _print_table(
            verify_costs(project),
            "cost roots",
            "cost model(s) certified against runtime charges",
            _costs_row,
        )
    return 0 if ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.severity:<7}  {rule.name}: {rule.description}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {missing[0]}", file=sys.stderr)
        return 2
    root = find_project_root(paths[0])
    config = LintConfig(
        select=tuple(s for s in args.select.split(",") if s),
        ignore=tuple(s for s in args.ignore.split(",") if s),
        project_root=root,
    )

    if args.verify_transport or args.verify_costs:
        return _cmd_verify(args, load_project(paths, config))

    if args.changed_only:
        paths = _restrict_to_changed(paths, root)
        if not paths:
            print("0 finding(s)")
            return 0

    stats = LintStats() if (args.stats or args.stats_json) else None
    findings = run_lint(paths, config, stats)
    if stats is not None:
        if args.stats:
            print(stats.render(), file=sys.stderr)
        if args.stats_json:
            Path(args.stats_json).write_text(stats.to_json() + "\n", encoding="utf-8")

    render = {"json": render_json, "github": render_github, "text": render_text}
    print(render[args.format](findings))
    return 1 if findings else 0
