"""Rule protocol and the plugin registry.

A rule is a class with an ``id``, a ``severity`` and one or both hooks:

* ``check_module(module)`` — called once per parsed source file; the
  vast majority of rules live here.
* ``check_project(project)`` — called once per lint run with every
  parsed module plus the project root; for cross-file disciplines like
  the transport-portability closure.

Registering is one decorator::

    @register
    class MyRule(Rule):
        id = "XYZ001"
        ...

Third-party extensions can register the same way before calling
:func:`repro.lint.run_lint`; the CLI's ``--select``/``--ignore`` filter
by id against whatever is registered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .findings import Finding, Severity

if TYPE_CHECKING:
    from .runner import ModuleContext, ProjectContext

__all__ = ["Rule", "register", "all_rules", "get_rule"]


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    #: Stable identifier, e.g. ``"SPMD005"`` — used in output and
    #: ``--select``/``--ignore``.
    id: str = ""
    #: Short human name, e.g. ``"rank-tainted-collective"``.
    name: str = ""
    severity: Severity = Severity.WARNING
    #: One-line description (shown by ``--list-rules``).
    description: str = ""

    def check_module(self, module: "ModuleContext") -> list[Finding]:
        return []

    def check_project(self, project: "ProjectContext") -> list[Finding]:
        return []

    # ------------------------------------------------------------------

    def finding(
        self,
        module: "ModuleContext",
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` at ``line`` (1-based) in ``module``."""
        snippet = ""
        if 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add ``cls`` to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY and type(_REGISTRY[rule.id]) is not cls:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id (imports the built-ins)."""
    from . import rules as _builtin  # noqa: F401  (registration side effect)

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    from . import rules as _builtin  # noqa: F401

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None
