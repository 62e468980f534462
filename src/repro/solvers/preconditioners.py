"""Preconditioner protocol for the iterative solvers.

A preconditioner is an object with three methods:

* ``setup(A) -> self`` — bind to / factor the system matrix (idempotent:
  a second call is a no-op once configured),
* ``apply(r) -> ndarray`` — compute ``M^{-1} r``,
* ``flops() -> float`` — estimated floating-point cost of one
  :meth:`apply` (0.0 when unknown), used by the modelled-time reports.

Solvers accept any conformer (or any bare object with ``apply``) and
call :func:`prepare_preconditioner` once at entry, so a preconditioner
may be passed either pre-configured — ``ILUPreconditioner(factors)`` —
or deferred — ``DiagonalPreconditioner()`` /
``ILUPreconditioner(params=ILUTParams(10, 1e-4))`` — and be set up from
the solve's own matrix.  The paper's Table 3 compares ILUT/ILUT*
against the diagonal (Jacobi) preconditioner; identity is provided for
unpreconditioned runs.
"""

from __future__ import annotations

import numpy as np

from ..ilu.factors import ILUFactors
from ..ilu.params import ILUTParams
from ..resilience import PivotPolicy, ZeroDiagonalError, assert_finite
from ..sparse import CSRMatrix

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "DiagonalPreconditioner",
    "ILUPreconditioner",
    "ILU0Preconditioner",
    "prepare_preconditioner",
]


class Preconditioner:
    """Base protocol: subclasses implement :meth:`apply`."""

    def setup(self, A: CSRMatrix) -> "Preconditioner":
        """Bind to the system matrix; the base class needs nothing."""
        return self

    def apply(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def flops(self) -> float:
        """Estimated flops of one :meth:`apply` (0.0 when unknown)."""
        return 0.0

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)


class IdentityPreconditioner(Preconditioner):
    """No preconditioning: ``M = I``."""

    def apply(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(r, dtype=np.float64).copy()


class DiagonalPreconditioner(Preconditioner):
    """Jacobi: ``M = diag(A)`` (the paper's weakest baseline).

    Construct with the matrix — ``DiagonalPreconditioner(A)`` — or defer
    and let the solver call :meth:`setup` with its own matrix.
    """

    def __init__(self, A: CSRMatrix | None = None) -> None:
        self._inv_diag: np.ndarray | None = None
        if A is not None:
            self.setup(A)

    def setup(self, A: CSRMatrix) -> "DiagonalPreconditioner":
        if self._inv_diag is not None:
            return self
        d = A.diagonal()
        if np.any(d == 0.0):
            row = int(np.flatnonzero(d == 0.0)[0])
            raise ZeroDiagonalError(
                f"diagonal preconditioner requires a zero-free diagonal "
                f"(row {row} is zero)",
                row=row,
                value=0.0,
            )
        self._inv_diag = 1.0 / d
        return self

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self._inv_diag is None:
            raise RuntimeError(
                "DiagonalPreconditioner not set up; pass A to the constructor "
                "or call setup(A)"
            )
        return self._inv_diag * np.asarray(r, dtype=np.float64)

    def flops(self) -> float:
        return float(self._inv_diag.size) if self._inv_diag is not None else 0.0


class ILUPreconditioner(Preconditioner):
    """Wrap :class:`~repro.ilu.factors.ILUFactors` as ``M = (I+L) U``.

    Construct from existing factors — ``ILUPreconditioner(factors)`` —
    or from parameters — ``ILUPreconditioner(params=ILUTParams(10,
    1e-4))`` — in which case :meth:`setup` factors the solve's matrix
    with sequential ILUT.  :meth:`apply` is
    :meth:`ILUFactors.solve <repro.ilu.factors.ILUFactors.solve>`: level
    schedules analysed once per factors object, then one array pass per
    level.

    With ``guard=True`` every :meth:`apply` output is checked for
    NaN/Inf and a :class:`~repro.resilience.NonFiniteError` raised on a
    hit — the apply-boundary detection the resilience layer (fallback
    chains, retry policies) keys on.
    """

    def __init__(
        self,
        factors: ILUFactors | None = None,
        *,
        params: ILUTParams | None = None,
        guard: bool = False,
        pivot_policy: PivotPolicy | None = None,
    ) -> None:
        if factors is None and params is None:
            raise TypeError("ILUPreconditioner requires factors or params")
        if factors is not None and params is not None:
            raise TypeError("ILUPreconditioner takes factors or params, not both")
        self.factors = factors
        self.params = params
        self.guard = guard
        self.pivot_policy = pivot_policy

    def setup(self, A: CSRMatrix) -> "ILUPreconditioner":
        if self.factors is not None:
            return self
        from ..ilu.ilut import ilut

        self.factors = ilut(A, self.params, pivot_policy=self.pivot_policy)
        return self

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self.factors is None:
            raise RuntimeError(
                "ILUPreconditioner not set up; pass factors to the constructor "
                "or call setup(A)"
            )
        out = self.factors.solve(r)
        if self.guard:
            assert_finite(out, where="ILUT preconditioner apply")
        return out

    def flops(self) -> float:
        if self.factors is None:
            return 0.0
        n = self.factors.n
        # forward: one multiply-add per L entry; backward: the same per
        # strict-upper U entry plus one divide per row
        return float(2 * self.factors.L.nnz + 2 * (self.factors.U.nnz - n) + n)


class ILU0Preconditioner(Preconditioner):
    """Zero-fill ILU(0) as a preconditioner (the paper's static-pattern
    baseline, and the mid-strength tier of the resilience fallback
    chain: cheaper and more breakdown-resistant than ILUT on the
    original pattern, stronger than Jacobi).

    Construct with the matrix or defer to :meth:`setup`; ``guard=True``
    adds the NaN/Inf apply-boundary check.  ``diag_guard=False`` lets a
    zero pivot surface as a typed
    :class:`~repro.resilience.ZeroPivotError` instead of being patched —
    the right setting inside a fallback chain, where the next tier
    should take over.  It is ``diag_guard``, not ``pivot_policy=``, as in
    :func:`~repro.ilu.ilu0.ilu0`: the guard substitutes the row norm, not
    :class:`~repro.resilience.PivotPolicy`'s ``tau``.
    """

    def __init__(
        self,
        A: CSRMatrix | None = None,
        *,
        guard: bool = False,
        diag_guard: bool = True,
    ) -> None:
        self.factors: ILUFactors | None = None
        self.guard = guard
        self.diag_guard = diag_guard
        if A is not None:
            self.setup(A)

    def setup(self, A: CSRMatrix) -> "ILU0Preconditioner":
        if self.factors is not None:
            return self
        from ..ilu.ilu0 import ilu0

        self.factors = ilu0(A, diag_guard=self.diag_guard)
        return self

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self.factors is None:
            raise RuntimeError(
                "ILU0Preconditioner not set up; pass A to the constructor "
                "or call setup(A)"
            )
        out = self.factors.solve(r)
        if self.guard:
            assert_finite(out, where="ILU(0) preconditioner apply")
        return out

    def flops(self) -> float:
        if self.factors is None:
            return 0.0
        n = self.factors.n
        return float(2 * self.factors.L.nnz + 2 * (self.factors.U.nnz - n) + n)


def prepare_preconditioner(M: object | None, A: object) -> Preconditioner:
    """Resolve the solver's ``M`` argument to a ready preconditioner.

    ``None`` becomes the identity; a conformer gets ``setup(A)`` called
    (a no-op for already-configured instances); a bare object with only
    ``apply`` is passed through untouched.
    """
    if M is None:
        return IdentityPreconditioner()
    setup = getattr(M, "setup", None)
    if callable(setup):
        return setup(A)
    return M  # duck-typed: anything with apply()
