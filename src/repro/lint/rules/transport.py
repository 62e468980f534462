"""Transport-portability rules (``TRN001``–``TRN004``).

All four filter one run of the interprocedural escape/aliasing
analysis (:mod:`repro.lint.flow.escape`, held by
:attr:`ProjectContext.transport_problems`) over the project's
communication closure — the functions that transitively communicate
plus everything they call.  The simulator delivers payloads by
reference and shares one address space across "ranks"; these rules
certify the properties a *serializing, multi-process* transport will
additionally demand, so the transport refactor of ROADMAP item 1 can
land without behavioural surprises.  ``repro lint --verify-transport``
presents the same analysis as a per-driver certification table.
"""

from __future__ import annotations

from ..findings import Finding, Severity
from ..registry import Rule, register
from ..runner import ProjectContext

__all__ = [
    "AliasedPayload",
    "UnsafePayload",
    "HiddenState",
    "DtypeDrift",
]

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
class AliasedPayload(_TransportRule):
    """A posted payload is aliased and mutated after the post.

    The simulator hands the receiver the very object the sender later
    mutates; a real transport serializes at post time — the two deliver
    different values.  Fix by copying before the post
    (``payload.copy()``) or by not touching the buffer until the drain.
    """

    id = "TRN001"
    name = "aliased-payload"
    severity = Severity.ERROR
    description = (
        "posted payloads must not be mutated after the post "
        "(reference-passing vs serializing transports diverge)"
    )


@register
class UnsafePayload(_TransportRule):
    """A posted payload's inferred type cannot cross a pickling transport.

    Locks, generators, lambdas, open files and live ``Simulator``
    handles either fail ``pickle.dumps`` outright or round-trip into a
    semantically different object on the remote side.
    """

    id = "TRN002"
    name = "unsafe-payload"
    severity = Severity.ERROR
    description = (
        "posted payloads must be pickle-safe (no locks, generators, "
        "lambdas, files, or simulator handles)"
    )


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
