"""Staircase index and the exact coefficients of the piecewise formula.

Piece j of G_d weights K^{d-m} I^m e^{-omega tau} with C_jm and
K^{d-m} I^m e^{+omega tau} with -D_jm, where

    C_jm = sum_{n=m}^{j}     binom(d,n) binom(n,m) i^{2n-d-m}
    D_jm = sum_{n=m}^{d-j-1} binom(d,n) binom(n,m) i^{d+m-2n}.

Since i^{2n} = (-1)^n, each is a quarter turn times the alternating sum

    sum_{n=m}^{N} (-1)^n binom(d,n) binom(n,m) = (-1)^N binom(d,m) binom(d-m-1, N-m)

(m < d; the m = d sum is its one n = d term), which ``coefficient_table``
turns into one exact signed integer weight per term.  No floating-point
cancellation occurs in forming them; as floats, the weights of every piece
of d <= 652 fit the double range (see ``integrand.term_weights``).
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError

__all__ = ["check_dimension", "staircase_j", "staircase_js", "coefficient_table"]


def check_dimension(d) -> int:
    """d as a Python int; raise DomainError unless d is a positive integer
    (any ``numbers.Integral``, numpy's included, but not a bool)."""
    if not isinstance(d, numbers.Integral) or isinstance(d, bool) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    return int(d)


def staircase_js(d: int, omegas) -> np.ndarray:
    """Piece selector floor((omega+d)/2), clamped to [-1, d], of every
    frequency of a 1-D grid, as an int array.

    Outside the clamp range one of the two sums would be indexed out of its
    defining range; clamping puts all weight in the surviving sum, which is
    exact because the complementary sum is empty there.
    """
    d = check_dimension(d)
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


def coefficient_table(d: int, j: int) -> tuple[int, ...]:
    """The exact signed weight w of every term of piece j of dimension d:
    C_jm = w[m] i^{(d+m) mod 2} and D_jm = -w[d+1+m] i^{(d+m) mod 2}, so
    each term is w times i^{(d+m) mod 2} times its product, real when d+m
    is even and imaginary when it is odd.

    The 2(d+1) slots run in the order of ``integrand.term_exponents``: C
    m = 0..d, then D m = 0..d.  By the alternating sum above,

        w[m]       = (-1)^{j + ceil((d+m)/2)}  binom(d,m) binom(d-m-1, j-m)
        w[d+1+m]   = (-1)^{d-j + floor((d+m)/2)} binom(d,m) binom(d-m-1, d-j-1-m)

    for m < d, w[d] = 1 when j = d and w[2d+1] = -1 when j = -1.  Every
    other weight is 0: binom is 0 where its lower index exceeds the upper,
    so outside the band (j = -1 or j = d) only the m = d weight is nonzero,
    and inside it the d+1 weights C m = 0..j, D m = 0..d-j-1 are.
    """
    d = check_dimension(d)
    if not isinstance(j, int) or isinstance(j, bool) or not -1 <= j <= d:
        raise DomainError(f"j must lie in [-1, {d}], got {j!r}")
    w = [0] * (2 * d + 2)
    for m in range(min(j, d - 1) + 1):
        w[m] = (-1) ** (j + (d + m + 1) // 2) * math.comb(d, m) * math.comb(d - m - 1, j - m)
    for m in range(min(d - j - 1, d - 1) + 1):
        w[d + 1 + m] = ((-1) ** (d - j + (d + m) // 2) * math.comb(d, m)
                        * math.comb(d - m - 1, d - j - 1 - m))
    if j == d:
        w[d] = 1
    if j == -1:
        w[2 * d + 1] = -1
    return tuple(w)
