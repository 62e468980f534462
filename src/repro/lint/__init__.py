"""``repro.lint`` — static SPMD / determinism / accounting analyzer.

The simulator-driven algorithms in this library obey disciplines that
runtime checks (the race detector, the fault journal, the oracle
tests) only exercise on the inputs a given run happens to execute.  This
package checks the same disciplines *statically*, on every code path:

* **SPMD collectives** (``SPMD005``) — collectives reachable under
  rank-derived control flow or inside per-rank loops.  Point-to-point
  messages need no rule: ``exchange`` posts and drains in one call, so
  a deadlock or an unmatched post cannot be written.
* **Determinism** (``DET00x``) — unseeded RNG, iteration over unordered
  containers in communication-bearing functions, float ``==``
  comparisons, order-sensitive reductions over unordered containers.
* **Accounting parity** (``PAR002``) — simulator flop charges must be
  integral expressions.
* **Breakdown typing** (``BRK001``) — numeric raise sites must use the
  typed :mod:`repro.resilience` hierarchy, not bare builtins.

* **Transport portability** (``TRN00x``) — hidden module/closure
  state and platform-default dtypes in rank-executed code.
* **Vectorization** (``PERF001``) — scalar per-row CSR loops in
  cost-charged functions.

All of them read one shared analysis: :mod:`repro.lint.comm` is the
single transport vocabulary, and the per-run
:class:`~repro.lint.runner.ProjectContext` owns the call graph and
call closures that the rules and the two ``--verify-transport`` /
``--verify-costs`` certification tables are views of.

Run it as ``python -m repro lint [paths...]``; see
:mod:`repro.lint.cli` for the output formats (text/json/github) and the
certification tables.
"""

from .findings import Finding, Severity
from .registry import Rule, all_rules, get_rule, register
from .runner import (
    LintConfig,
    LintStats,
    ModuleContext,
    ProjectContext,
    load_project,
    run_lint,
)

__all__ = [
    "LintStats",
    "Finding",
    "Severity",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "LintConfig",
    "ModuleContext",
    "ProjectContext",
    "load_project",
    "run_lint",
]
