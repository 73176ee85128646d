"""Cardinality bounds for phase retrieval in C^n.

Integer arithmetic only: the module imports no numpy, so ``framecert
bounds`` starts without it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CardinalityBounds", "hmw_lower_bound"]


@dataclass(frozen=True)
class CardinalityBounds:
    """Cardinality landscape for phase retrieval in C^n: the parity-corrected
    topological lower bound, the trivial 2n bound, the count 4n-4 from which
    generic vectors are injective for n >= 2 (Conca-Edidin-Hering-Vinzant
    2015; the field keeps its JSON key; 1 in C^1), and the generic
    sufficient count 4n-2.
    4n-4 is no lower bound: Vinzant (2015) gives 11 injective vectors in C^4."""

    n: int
    hmw_lower: int
    two_n: int
    conjectured_critical: int
    generic_upper: int


def hmw_lower_bound(n: int) -> CardinalityBounds:
    """Cardinality bounds for phase retrieval in C^n.

    For n >= 2 the lower bound is 4n - 2 - 2b plus a parity correction,
    where b is the number of ones in the binary expansion of n - 1: add 2
    when n is odd and b = 3 mod 4, add 1 when n is odd and b = 2 mod 4,
    else add 0.  In C^1 one nonzero vector already determines |x|, so the
    bound there is 1, not the formula's 2, and so is the critical count.
    For n >= 2, 4n-4 generic vectors are injective
    (Conca-Edidin-Hering-Vinzant 2015), and 11 vectors in C^4, one fewer,
    can be (Vinzant 2015).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    b = (n - 1).bit_count()
    correction = 0
    if n % 2 == 1 and b % 4 == 3:
        correction = 2
    elif n % 2 == 1 and b % 4 == 2:
        correction = 1
    return CardinalityBounds(
        n=n,
        hmw_lower=1 if n == 1 else 4 * n - 2 - 2 * b + correction,
        two_n=2 * n,
        conjectured_critical=1 if n == 1 else 4 * n - 4,
        generic_upper=4 * n - 2,
    )
