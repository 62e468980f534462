"""Accounting-parity rule (``PAR002``).

The simulator's accounting is bit-identical on every transport and
schedule only because flop charges are integral: float summation of
integers is exact, so batched and scalar accumulation agree bit for bit.
This rule keeps that discipline from eroding as charge sites are added.
"""

from __future__ import annotations

import ast

from ..comm import flop_charge_amount
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..runner import ModuleContext

__all__ = ["FractionalFlopCharge"]


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

    ``Simulator.compute`` charges feed accounting that must be equal on
    every transport and schedule (per-row and batched replays must
    report identical ``modeled_time``); that equality relies on every
    charge being an integer value, because float addition of integers
    is exact while fractional charges make the accumulation order
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
                        "integral for order-independent accounting",
                    )
                )
        return out
