"""Backend-parity rules (``PAR001``–``PAR003``).

The vectorized kernel layer is only trustworthy because every kernel
has a scalar reference twin and a bit-exactness test; the simulator's
accounting is only comparable across backends because flop charges are
integral (float summation of integers is exact, so batched and scalar
accumulation agree bit for bit).  These rules keep both disciplines
from eroding as kernels are added.
"""

from __future__ import annotations

import ast

from ..comm import flop_charge_amount
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..runner import ModuleContext, ProjectContext

__all__ = ["MissingParityTest", "FractionalFlopCharge", "MissingReferenceTwin"]


def _kernels_modules(project: ProjectContext) -> list[ModuleContext]:
    return [
        m
        for m in project.modules
        if "/kernels/" in f"/{m.relpath}" and not m.relpath.endswith("__init__.py")
    ]


def _module_all(module: ModuleContext) -> tuple[list[str], int]:
    """The ``__all__`` string list of a module and its line number."""
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                names = [
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ]
                return names, node.lineno
    return [], 0


def _test_corpus(project: ProjectContext) -> str:
    test_dir = project.root / project.config.kernels_test_dir
    if not test_dir.is_dir():
        return ""
    chunks = []
    for f in sorted(test_dir.glob("*.py")):
        try:
            chunks.append(f.read_text(encoding="utf-8"))
        except OSError:
            continue
    return "\n".join(chunks)


@register
class MissingParityTest(Rule):
    """A public kernels symbol with no test under ``tests/kernels``.

    Public means listed in the module's ``__all__``.  The parity suite
    is the oracle that keeps the vectorized backend bit-exact with the
    reference; a kernel nothing references there is unverified.
    """

    id = "PAR001"
    name = "missing-parity-test"
    severity = Severity.ERROR
    description = (
        "every public repro.kernels symbol must be exercised by the "
        "parity suite under tests/kernels"
    )

    def check_project(self, project: ProjectContext) -> list[Finding]:
        kernels = _kernels_modules(project)
        if not kernels:
            return []
        corpus = _test_corpus(project)
        out: list[Finding] = []
        for module in kernels:
            names, line = _module_all(module)
            for name in names:
                if name not in corpus:
                    out.append(
                        self.finding(
                            module,
                            line or 1,
                            0,
                            f"public kernel {name!r} has no parity test under "
                            f"{project.config.kernels_test_dir}",
                        )
                    )
        return out


@register
class MissingReferenceTwin(Rule):
    """A kernels module whose docstring names no reference twin.

    Each vectorized module documents the scalar implementation it is
    bit-exact against (e.g. "Selection-identical to
    :mod:`repro.ilu.dropping`"); the cross-reference is what reviewers
    and the parity suite key off.  The check is lexical: the module
    docstring must mention "reference" or cross-reference a ``repro.``
    module outside ``kernels``.
    """

    id = "PAR003"
    name = "missing-reference-twin"
    severity = Severity.WARNING
    description = (
        "kernels modules must document the scalar reference twin they "
        "are bit-exact against"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        if "/kernels/" not in f"/{module.relpath}" or module.relpath.endswith(
            "__init__.py"
        ):
            return []
        doc = ast.get_docstring(module.tree) or ""
        if "reference" in doc.lower() or "repro." in doc.replace("repro.kernels", ""):
            return []
        return [
            self.finding(
                module,
                1,
                0,
                "kernels module docstring names no reference twin "
                '(mention the scalar module it is bit-exact against)',
            )
        ]


def _non_integral_part(expr: ast.AST) -> tuple[str, int] | None:
    """A reason ``expr`` is not statically integral, or None if it is OK.

    The check is a denylist, not a type proof: true division and
    non-integral float literals are the two shapes that make a flop
    charge fractional; integer-valued literals like ``2.0`` and
    ``float(...)`` promotions of integer counts are exact and allowed.
    """
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return ("true division '/' (use '//' or int(...))", node.lineno)
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and not float(node.value).is_integer()
        ):
            return (f"non-integral literal {node.value!r}", node.lineno)
    return None


@register
class FractionalFlopCharge(Rule):
    """A simulator flop charge that is statically non-integral.

    ``Simulator.compute`` charges feed the cross-backend accounting
    equality (reference and vectorized runs must report identical
    ``modeled_time``); that equality relies on every charge being an
    integer value, because float addition of integers is exact while
    fractional charges make the batched/scalar accumulation orders
    observable.
    """

    id = "PAR002"
    name = "fractional-flop-charge"
    severity = Severity.ERROR
    description = (
        "flop charges (sim.compute / _charge_ops / charge) must be "
        "integral expressions"
    )

    def check_module(self, module: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in module.index.of(ast.Call):
            amount = flop_charge_amount(node)
            problem = _non_integral_part(amount) if amount is not None else None
            if problem is not None:
                reason, line = problem
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"flop charge contains {reason}: charges must be "
                        "integral for cross-backend accounting equality",
                    )
                )
        return out
