"""Verification subsystem: race detection + structural invariant checks.

Two pillars (see DESIGN.md §7):

* :mod:`repro.verify.trace` / :mod:`repro.verify.race` — a
  happens-before **race detector** for the SPMD simulator.  Create the
  simulator with ``trace=True``, run an instrumented parallel driver,
  then :func:`find_races` flags any pair of conflicting cross-rank
  accesses not ordered by a barrier, collective, or send→recv edge.
* :mod:`repro.verify.invariants` — composable ``check_*`` functions for
  CSR well-formedness, LU factor validity (including the dual-dropping
  and 3rd-dropping fill bounds, and each level's independence),
  reduced-matrix invariants, and partition/interface classification
  consistency.

``python -m repro check`` drives both pillars end to end.
"""

from .invariants import (
    InvariantViolation,
    check_csr,
    check_decomposition,
    check_lu_factors,
    check_reduced_rows,
    require,
)
from .race import Race, find_races, racy_toy_driver
from .trace import READ, WRITE, Access, AccessTracer, happens_before

__all__ = [
    "READ",
    "WRITE",
    "Access",
    "AccessTracer",
    "happens_before",
    "Race",
    "find_races",
    "racy_toy_driver",
    "InvariantViolation",
    "check_csr",
    "check_decomposition",
    "check_lu_factors",
    "check_reduced_rows",
    "require",
]
