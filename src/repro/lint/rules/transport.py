"""Transport-portability rules (``TRN003``/``TRN004``).

Both filter one run of :mod:`repro.lint.flow.portability` (held by
:attr:`ProjectContext.transport_problems`) over the project's
communication closure — the functions that transitively communicate
plus everything they call.  Under the simulator every "rank" shares one
address space and one platform; these rules certify what a
multi-process, multi-platform run additionally demands of rank-executed
code.  What crosses a process boundary is a thunk's return value, and
whether it pickles is the process transport's runtime check
(``ResultUnpicklable``).  ``repro lint --verify-transport`` presents the
same analysis as a per-driver certification table.
"""

from __future__ import annotations

from ..findings import Finding, Severity
from ..registry import Rule, register
from ..runner import ProjectContext

__all__ = ["HiddenState", "DtypeDrift"]


class _TransportRule(Rule):
    """Shared plumbing: filter the analysis output by rule id."""

    def check_project(self, project: ProjectContext) -> list[Finding]:
        out: list[Finding] = []
        for p in project.transport_problems:
            if p.rule != self.id:
                continue
            module = project.by_relpath.get(p.module)
            if module is None:
                continue
            out.append(
                self.finding(
                    module,
                    p.line,
                    p.col,
                    f"[{p.kind}] in {p.function}: {p.message}",
                )
            )
        return out


@register
class HiddenState(_TransportRule):
    """Module-global or enclosing-scope state written in rank-executed code.

    Under the simulator every "rank" shares one address space, so a
    ``global``/``nonlocal`` write or a module-container mutation is
    visible everywhere; under a process transport each rank has its own
    copy and the others silently compute with stale state.
    """

    id = "TRN003"
    name = "hidden-state"
    severity = Severity.ERROR
    description = (
        "rank-executed code must not write module-global or "
        "enclosing-scope state (invisible to other processes)"
    )


@register
class DtypeDrift(_TransportRule):
    """An array in rank-executed code follows the platform-default dtype.

    ``np.arange(n)`` is ``int32`` on LLP64 platforms and ``int64``
    elsewhere; ``float32`` narrowing changes every downstream
    accumulation.  Both break the cross-transport bit-identity contract
    the factorization tests rely on.
    """

    id = "TRN004"
    name = "dtype-drift"
    severity = Severity.WARNING
    description = (
        "rank-executed arrays must carry explicit 64-bit dtypes "
        "(float64/int64) for cross-platform bit-identity"
    )
