"""Staircase index and exact coefficient tables of the piecewise formula.

The two coefficient families weighting the products K^{d-m} I^m are

    C_jm = sum_{n=m}^{j}     binom(d,n) binom(n,m) i^{2n-d-m}
    D_jm = sum_{n=m}^{d-j-1} binom(d,n) binom(n,m) i^{d+m-2n}

Because i^{2n-d-m} = (-1)^n i^{-(d+m)} (and the mirror identity for D), each
coefficient is an exact integer magnitude times a quarter-turn phase; the
tables below store exactly that, in arbitrary-precision integer arithmetic,
so no floating-point cancellation can ever occur.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PhasedInteger", "CoefficientTable", "check_dimension", "staircase_j", "staircase_js",
    "coefficient_table",
]


@dataclass(frozen=True)
class PhasedInteger:
    """A signed arbitrary-precision integer times i**phase, phase in {0,..,3}.

    The canonical form keeps the (possibly negative) magnitude as the signed
    alternating sum and reduces the phase mod 4; ``complex_value`` applies the
    quarter turn exactly.
    """

    magnitude: int
    phase: int

    def __post_init__(self):
        if self.phase not in (0, 1, 2, 3):
            raise ValueError(f"phase must be reduced mod 4, got {self.phase}")

    @property
    def complex_value(self) -> complex:
        m = self.magnitude
        return (complex(m, 0), complex(0, m), complex(-m, 0), complex(0, -m))[self.phase]


@dataclass(frozen=True)
class CoefficientTable:
    """Exact C and D coefficients for one (d, j) piece.

    ``c[m]`` for m = 0..j weights the e^{-omega tau} sum, ``dcoef[m]`` for
    m = 0..d-j-1 the e^{+omega tau} sum; either tuple is empty when its sum
    is absent (j = -1 or j = d).
    """

    d: int
    j: int
    c: tuple[PhasedInteger, ...]
    dcoef: tuple[PhasedInteger, ...]


def check_dimension(d: int) -> None:
    """Raise DomainError unless d is a positive integer (bool excluded)."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")


def staircase_js(d: int, omegas) -> np.ndarray:
    """Piece selector floor((omega+d)/2), clamped to [-1, d], of every
    frequency of a 1-D grid, as an int array.

    Outside the clamp range one of the two sums would be indexed out of its
    defining range; clamping puts all weight in the surviving sum, which is
    exact because the complementary sum is empty there.
    """
    check_dimension(d)
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ValueError(f"omegas must be one-dimensional, got shape {omegas.shape}")
    if not np.isfinite(omegas).all():
        bad = omegas[~np.isfinite(omegas)][0]
        raise DomainError(f"omega must be finite, got {float(bad)!r}")
    return np.minimum(np.maximum(np.floor((omegas + d) / 2.0), -1), d).astype(int)


def staircase_j(d: int, omega: float) -> int:
    """The piece of one frequency; see ``staircase_js``."""
    return int(staircase_js(d, [float(omega)])[0])


def _alternating_sum(d: int, m: int, n_hi: int) -> int:
    # sum_{n=m}^{n_hi} (-1)^n binom(d,n) binom(n,m)
    #   = (-1)^{n_hi} binom(d,m) binom(d-m-1, n_hi-m)   for m < d;
    # the only m = d term is n = d, where binom(-1, 0) = 1 is outside math.comb
    if m == d:
        return (-1) ** d
    magnitude = math.comb(d, m) * math.comb(d - m - 1, n_hi - m)
    return -magnitude if n_hi & 1 else magnitude


# typed: True and numpy integers equal to a cached int must still reach the
# validation below instead of hitting the cache; bounded like term_table,
# since every piece for d <= 120 is 7,500 exact tables
@functools.lru_cache(maxsize=1024, typed=True)
def coefficient_table(d: int, j: int) -> CoefficientTable:
    """Exact coefficient table for piece j of dimension d, cached by (d, j)."""
    check_dimension(d)
    if not isinstance(j, int) or isinstance(j, bool) or not -1 <= j <= d:
        raise DomainError(f"j must lie in [-1, {d}], got {j!r}")
    c = tuple(
        PhasedInteger(_alternating_sum(d, m, j), (-(d + m)) % 4)
        for m in range(j + 1)
    )
    dcoef = tuple(
        PhasedInteger(_alternating_sum(d, m, d - j - 1), (d + m) % 4)
        for m in range(d - j)
    )
    return CoefficientTable(d=d, j=j, c=c, dcoef=dcoef)
