"""Factorization parameter bundle shared by every ILUT entry point.

The paper's methods form a family — ILUT(m, t) sequential, parallel
ILUT(m, t), parallel ILUT*(m, t, k) — distinguished only by their
parameters.  :class:`ILUTParams` carries those three knobs as one frozen
validated value so call sites, benchmarks and result metadata all speak
the same vocabulary: every entry point takes it as its second argument.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ILUTParams"]


@dataclass(frozen=True)
class ILUTParams:
    """Parameters of an ILUT-family factorization.

    Attributes
    ----------
    fill:
        ``m`` — the per-row cap on off-diagonal entries kept in L and
        (separately) in U by the 2nd dropping rule.
    threshold:
        ``t`` — the relative drop tolerance; row ``i`` drops entries
        below ``t * ||a_i||_2``.
    k:
        The ILUT* reduced-row cap multiplier: a partially-eliminated
        interface row keeps at most ``k * fill`` entries in its reduced
        part (3rd dropping rule).  ``None`` means plain ILUT (threshold
        only, no reduced cap).
    """

    fill: int
    threshold: float
    k: int | None = None

    def __post_init__(self) -> None:
        if self.fill < 0:
            raise ValueError(f"fill must be non-negative, got {self.fill}")
        if not self.threshold >= 0:
            raise ValueError(
                f"threshold must be non-negative, got {self.threshold}"
            )
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1 (or None), got {self.k}")

    @property
    def reduced_cap(self) -> int | None:
        """The ILUT* interface-row cap ``k * fill`` (``None`` for ILUT)."""
        if self.k is None:
            return None
        return self.k * self.fill

    def relaxed(self, factor: float = 10.0) -> "ILUTParams":
        """A more breakdown-resistant variant of these parameters.

        Multiplies the drop threshold by ``factor`` (dropping more
        aggressively pushes the factor toward the diagonally dominant
        end of the spectrum, where elimination rarely breaks down) —
        the step the retry/fallback layers take between attempts.  A
        zero threshold relaxes to a small absolute one so repeated
        relaxation still makes progress.
        """
        if factor <= 1.0:
            raise ValueError(f"relaxation factor must be > 1, got {factor}")
        new_t = self.threshold * factor if self.threshold > 0 else 1e-8 * factor
        return ILUTParams(fill=self.fill, threshold=new_t, k=self.k)

    def describe(self) -> str:
        if self.k is None:
            return f"ILUT(m={self.fill}, t={self.threshold:g})"
        return f"ILUT*(m={self.fill}, t={self.threshold:g}, k={self.k})"
