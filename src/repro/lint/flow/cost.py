"""Static cost analysis: charge-site extraction + symbolic cost models.

The second certification surface (after the transport verifier):
every modeled-speedup figure the reproduction reports is a
sum of charges the drivers push into the simulator, and this module
derives — statically — where those charges come from and how many of
them the loop structure implies, as symbolic expressions over the
structural parameters of an instance (``n``, ``nnz``, fill ``m``,
levels ``q``, ranks ``p``, MIS ``rounds``).

Three artefacts per certified comm root:

* the **charge-site inventory**: every call
  :func:`repro.lint.comm.charged_as` recognises (``sim.compute`` /
  ``sim.exchange`` / ``sim.barrier`` / collectives)
  reachable from the root through the project call graph, located by
  (kind, module, line) — the join key the runtime
  :class:`~repro.machine.ledger.ChargeLedger` records;
* a **per-site loop bound**: the product of the recognised bounds of
  the site's enclosing loops (``for r in range(nranks)`` → ``p``,
  ``for lvl, pos in enumerate(levels.interface_levels)`` → ``q``,
  ``while self.remaining.size`` → ``levels``, …) — a symbolic fire-count that
  :mod:`repro.lint.costverify` checks against the ledger's per-site
  event counts;
* the **cost model** (:data:`COST_SPECS`): closed-form totals for the
  flop/message/word/barrier components that are structurally
  determined, and explicit *measured* markers for the data-dependent
  ones (ILUT flops depend on the numeric fill pattern), which the
  runtime harness certifies by dual accounting against the engines'
  own counters instead.

Soundness boundary (DESIGN.md §15): extraction recognises charges by
receiver shape (an attribute call on a name ending in ``sim`` /
``simulator`` / ``transport``), resolves callees through the same
best-effort call graph as the transport verifier (unresolvable calls are
opaque), and attributes ``self.X`` dispatch through the static MRO.
Anything the static side misses is caught at runtime: a ledger event
from a line outside the inventory is cost-model drift.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..astutil import ancestors
from ..comm import COMM_ROOTS, amount_expr, charged_as, classify
from .callgraph import FunctionDecl

if TYPE_CHECKING:
    from ..runner import ProjectContext

__all__ = [
    "COST_SPECS",
    "KERNELS_PREFIX",
    "ChargeSite",
    "CostAnalysis",
    "CostExpr",
    "CostSpec",
    "analyze_costs",
    "extract_charge_sites",
]

#: Module-path prefix of the kernels surface, certified charge-free: the
#: vectorized kernels compute numerics, never cost accounting.
KERNELS_PREFIX = "src/repro/kernels/"


# --------------------------------------------------------------------------
# symbolic expressions
# --------------------------------------------------------------------------


class CostExpr:
    """A symbolic cost expression over named structural parameters.

    The grammar is deliberately tiny — integer literals, parameter
    names, ``+ - *`` and unary minus — evaluated by walking the parsed
    AST (never ``eval``).  ``params`` is the free-variable set, so a
    caller knows which instance quantities it must supply.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self._tree = ast.parse(text, mode="eval").body
        self.params = frozenset(
            node.id for node in ast.walk(self._tree) if isinstance(node, ast.Name)
        )

    def __repr__(self) -> str:
        return f"CostExpr({self.text!r})"

    def evaluate(self, env: dict[str, float]) -> float:
        missing = self.params - env.keys()
        if missing:
            raise KeyError(f"cost expression {self.text!r} missing {sorted(missing)}")
        return self._eval(self._tree, env)

    def _eval(self, node: ast.expr, env: dict[str, float]) -> float:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            return float(env[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._eval(node.operand, env)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
        raise ValueError(
            f"unsupported construct {ast.dump(node)} in cost expression {self.text!r}"
        )


# --------------------------------------------------------------------------
# cost specs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CostSpec:
    """The symbolic cost model of one comm root.

    Each component is a :class:`CostExpr` source string, or ``None``
    when the total is data-dependent (*measured*): the runtime harness
    then certifies it by dual accounting (per-site ledger totals against
    the engine's own ``flops_total`` / ``words_copied`` counters),
    integrality, and repeat-run bit-equality instead of a closed
    form.

    ``once`` lists the qualnames executed exactly once per driver run —
    only charge sites inside those bodies get a per-site fire-count
    expression (for every other function the static call multiplicity is
    unknown, the documented soundness boundary).
    """

    module: str
    qualname: str
    flops: str | None
    messages: str | None
    words: str | None
    barriers: str | None
    collectives: str
    params: tuple[str, ...]
    once: frozenset[str] = frozenset()

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"

    def components(self) -> dict[str, str | None]:
        return {
            "flops": self.flops,
            "messages": self.messages,
            "words": self.words,
            "barriers": self.barriers,
            "collectives": self.collectives,
        }


#: kind of simulator charge -> the spec component its totals certify
COMPONENT_OF_KIND = {
    "compute": "flops",
    "send": "words",  # each send also counts one message
    "barrier": "barriers",
    "allreduce": "collectives",
    "allgather": "collectives",
    "advance": "advance",
}

COST_SPECS: dict[str, CostSpec] = {
    spec.key: spec
    for spec in (
        CostSpec(
            module="src/repro/solvers/parallel_matvec.py",
            qualname="parallel_matvec",
            # 2 flops per stored entry
            flops="2*nnz",
            # one aggregated message per halo (src, dst) pair
            messages="halo_pairs",
            words="halo_words",
            barriers="1",
            collectives="0",
            params=("n", "p", "nnz", "halo_pairs", "halo_words"),
            once=frozenset({"parallel_matvec", "_matvec_on"}),
        ),
        CostSpec(
            module="src/repro/ilu/triangular.py",
            qualname="parallel_triangular_solve",
            # forward: 2 flops per L entry; backward: 2(row nnz - 1) + 1
            # per U row -> 2 nnz(U) - n in total
            flops="2*nnz_L + 2*nnz_U - n",
            messages="tri_messages",
            words="tri_words",
            # the paper's q implicit synchronisation points, both sweeps,
            # plus one barrier after each interior phase
            barriers="2*q + 2",
            collectives="0",
            params=("n", "p", "q", "nnz_L", "nnz_U", "tri_messages", "tri_words"),
            once=frozenset({"parallel_triangular_solve", "_solve_on"}),
        ),
        CostSpec(
            module="src/repro/graph/distributed_mis.py",
            qualname="distributed_two_step_luby_mis",
            # setup scan + two scans per round over every adjacency entry
            flops="nedges*(1 + 2*rounds)",
            messages="2*rounds*boundary_pairs",
            words="2*rounds*boundary_words",
            barriers="1 + 2*rounds",
            collectives="0",
            params=("p", "rounds", "nedges", "boundary_pairs", "boundary_words"),
            once=frozenset({"distributed_two_step_luby_mis", "mis_comm_setup"}),
        ),
        CostSpec(
            module="src/repro/ilu/elimination.py",
            qualname="EliminationEngine.run",
            # ILUT flops/comm depend on the numeric fill pattern: measured,
            # certified by dual accounting + integrality + repeat run
            flops=None,
            messages=None,
            words=None,
            # phase-1 barrier, then per level: one level barrier plus the
            # two-step MIS barrier pair every round
            barriers="1 + levels*(2*mis_rounds + 1)",
            collectives="0",
            params=("p", "levels", "mis_rounds"),
            once=frozenset({"EliminationEngine.run", "EliminationEngine._run_phase1"}),
        ),
        CostSpec(
            module="src/repro/ilu/interface_partition.py",
            qualname="InterfacePartitionEngine.run",
            flops=None,
            messages=None,
            words=None,
            # phase-1 barrier + exactly one synchronisation per round —
            # the §7 trade this engine exists to make
            barriers="1 + levels",
            collectives="0",
            params=("p", "levels"),
            once=frozenset(
                {"InterfacePartitionEngine.run", "EliminationEngine._run_phase1"}
            ),
        ),
        CostSpec(
            module="src/repro/ilu/parallel_ilu0.py",
            qualname="parallel_ilu0",
            flops=None,  # pivot count depends on numeric zeros: measured
            messages="ilu0_messages",
            words="ilu0_words",
            barriers="1 + classes",
            collectives="0",
            params=("p", "classes", "ilu0_messages", "ilu0_words"),
            once=frozenset({"parallel_ilu0", "_factor_on"}),
        ),
    )
}


# --------------------------------------------------------------------------
# loop-bound recognition
# --------------------------------------------------------------------------

#: (pattern over the unparsed loop header, symbolic bound).  First match
#: wins; a loop matching nothing gets an unknown bound (no fire count).
_LOOP_BOUND_PATTERNS: tuple[tuple[str, str], ...] = (
    (r"mis_rounds", "mis_rounds"),
    (r"max\(0,\s*rounds\)", "rounds"),
    (r"\brange\(rounds\)", "rounds"),
    (r"nranks", "p"),
    (r"interface_levels", "q"),
    (r"enumerate\(classes\)", "classes"),
)


def _loop_bound(node: ast.For | ast.AsyncFor | ast.While) -> str | None:
    """The symbolic iteration count of one loop, if recognised."""
    if isinstance(node, ast.While):
        header = ast.unparse(node.test)
        if "self.remaining" in header:
            # the phase-2 driver loop: one iteration per interface level
            return "levels"
        return None
    header = ast.unparse(node.iter)
    if isinstance(node.iter, (ast.Tuple, ast.List)) and all(
        isinstance(e, ast.Constant) for e in node.iter.elts
    ):
        return str(len(node.iter.elts))
    for pattern, bound in _LOOP_BOUND_PATTERNS:
        if re.search(pattern, header):
            return bound
    return None


# --------------------------------------------------------------------------
# charge-site extraction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChargeSite:
    """One static charge into the simulator, with its loop context."""

    kind: str  # compute | advance | send | barrier | allreduce | allgather
    module: str  # project-relative posix path
    line: int
    col: int
    function: str  # qualname of the enclosing project function
    amount: str  # source text of the charged quantity ("" for barrier)
    #: recognised bounds of the enclosing loops, outermost first
    #: (``None`` entries are loops the analysis could not bound)
    loops: tuple[str | None, ...]
    #: symbolic fire count (product of the loop bounds) — only set when
    #: every enclosing loop is bounded, the site is not inside a nested
    #: ``def``, and the enclosing function runs once per driver call
    count_expr: str | None

    @property
    def key(self) -> tuple[str, str, int]:
        """The join key against :class:`ChargeLedger` events."""
        return (self.kind, self.module, self.line)

    @property
    def derivation(self) -> str:
        """Human-readable loop-nest derivation for the report."""
        if not self.loops:
            return "1"
        return " x ".join(b if b is not None else "?" for b in self.loops)


def extract_charge_sites(
    project: "ProjectContext", root: FunctionDecl, once: frozenset[str] = frozenset()
) -> list[ChargeSite]:
    """Every charge site reachable from ``root``, with loop bounds."""
    sites: list[ChargeSite] = []
    for decl in project.closure([root]):
        for node in decl.calls:
            kind = charged_as(node)
            if kind is None:
                continue
            # an exchange fires once per message: an unbounded implicit loop
            loops: list[str | None] = [None] if classify(node) == "exchange" else []
            nested = False
            for cur in ancestors(node):
                if cur is decl.node:
                    break
                if isinstance(cur, (ast.For, ast.AsyncFor, ast.While)):
                    loops.append(_loop_bound(cur))
                elif isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    nested = True
            loops.reverse()
            count_expr: str | None = None
            if (
                not nested
                and decl.qualname in once
                and all(b is not None for b in loops)
            ):
                count_expr = " * ".join(loops) if loops else "1"
            amount = amount_expr(node)
            sites.append(
                ChargeSite(
                    kind=kind,
                    module=decl.module,
                    line=node.lineno,
                    col=node.col_offset,
                    function=decl.qualname,
                    amount=ast.unparse(amount) if amount is not None else "",
                    loops=tuple(loops),
                    count_expr=count_expr,
                )
            )
    sites.sort(key=lambda s: (s.module, s.line, s.col))
    return sites


# --------------------------------------------------------------------------
# whole-project analysis
# --------------------------------------------------------------------------


@dataclass
class CostAnalysis:
    """Static cost-analysis product for one root (or the kernels surface)."""

    module: str
    qualname: str
    spec: CostSpec | None
    sites: list[ChargeSite] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"

    def sites_of_kind(self, kind: str) -> list[ChargeSite]:
        return [s for s in self.sites if s.kind == kind]


def _check_spec_site_consistency(analysis: CostAnalysis) -> None:
    """A closed-form component with no charge site of its kind (or vice
    versa, charges of a kind the model says cannot occur) is drift
    before anything even runs."""
    spec = analysis.spec
    if spec is None:
        return
    kinds_present = {s.kind for s in analysis.sites}
    for kind, component in COMPONENT_OF_KIND.items():
        expr = spec.components().get(component)
        if component == "collectives":
            if kind in kinds_present and expr == "0":
                analysis.problems.append(
                    f"model declares no collectives but a {kind} site exists"
                )
            continue
        if component == "advance":
            if kind in kinds_present:
                analysis.problems.append(
                    "drivers must not charge wall-clock directly (advance site found)"
                )
            continue
        if expr is not None and kind not in kinds_present:
            analysis.problems.append(
                f"component {component!r} has closed form {expr!r} "
                f"but no {kind} charge site is reachable"
            )


def analyze_costs(project: "ProjectContext") -> list[CostAnalysis]:
    """Static cost analysis of every certified root + the kernels surface.

    Purely static — :func:`repro.lint.costverify.verify_costs` adds the
    runtime certification on top.
    """
    out: list[CostAnalysis] = []
    for relpath, qualname in COMM_ROOTS:
        spec = COST_SPECS.get(f"{relpath}::{qualname}")
        analysis = CostAnalysis(module=relpath, qualname=qualname, spec=spec)
        decl = project.call_graph.find(relpath, qualname)
        if decl is None:
            analysis.problems.append("root not found in the analysed modules")
        else:
            analysis.module = decl.home
            analysis.sites = extract_charge_sites(
                project, decl, spec.once if spec is not None else frozenset()
            )
            if not analysis.sites:
                analysis.problems.append("no charge sites reachable from the root")
            _check_spec_site_consistency(analysis)
        out.append(analysis)

    # the kernels surface: numerics only, certified charge-free
    kernels = CostAnalysis(
        module=KERNELS_PREFIX.rstrip("/"), qualname="<charge-free surface>", spec=None
    )
    for m in project.modules:
        if not m.relpath.startswith(KERNELS_PREFIX):
            continue
        for node in m.index.of(ast.Call):
            kind = charged_as(node)
            if kind is not None:
                kernels.problems.append(
                    f"kernels module {m.relpath}:{node.lineno} charges the "
                    f"cost model ({kind}) — kernels must stay charge-free"
                )
    out.append(kernels)
    return out
