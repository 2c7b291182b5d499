"""G_d(omega) in the band at large d from the Gaussian series (mpmath).

Write J0(t)^d = e^{-d t^2/4} exp(d R(t)), where

    R(t) = log J0(t) + t^2/4 = sum_{k>=2} l_k t^{2k},
    exp(d R(t)) = sum_n e_n t^{2n}.

The l_k come from J0's power series, and the e_n from the l_k, both by the
log-derivative recurrence, as exact rationals (e_n is a polynomial in d of
degree <= n/2).  Then, term by term,

    G_d(omega) = -i int_0^inf e^{i omega t} J0(t)^d dt ~ -i sum_{n<=N} e_n M_n,
    M_n = int_0^inf t^{2n} e^{i omega t - d t^2/4} dt
        = (-1)^n d^{-n} (pi/d)^{1/2} w^{(2n)}(omega/sqrt(d)),

with w(z) = e^{-z^2} erfc(-iz) the Faddeeva function, whose derivatives
follow upward from w' = -2z w + 2i/sqrt(pi) by
w^{(k+1)} = -2z w^{(k)} - 2k w^{(k-1)} (DLMF 7.10).

The series cannot see J0^d past J0's first zero, about 0.403^d relative to
G, so it is an oracle from d = 40 on (at d = 20 it stalls near 1.7e-8).
The upward recurrence loses digits as |omega|/sqrt(d) grows, so it is for
in-band frequencies, with ``TERMS`` terms at ``DPS`` digits.  It does not
grade a tiny Im G in the band tails, since it is exact only relative to |G|.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial

import mpmath as mp

DPS = 60
TERMS = 45


@functools.lru_cache(maxsize=None)
def log_coefficients(n: int = TERMS) -> tuple[Fraction, ...]:
    """l_0..l_n of R(t) = log J0(t) + t^2/4, in powers of t^2 (l_0 = l_1 = 0)."""
    # J0(t) = sum_k a_k t^{2k}, a_0 = 1; log J0 = sum_k c_k t^{2k} from
    # k a_k = sum_{j=1}^{k} j c_j a_{k-j}
    a = [Fraction((-1) ** k, 4**k * factorial(k) ** 2) for k in range(n + 1)]
    c = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        c[k] = a[k] - sum((j * c[j] * a[k - j] for j in range(1, k)), Fraction(0)) / k
    c[1] += Fraction(1, 4)
    return tuple(c)


@functools.lru_cache(maxsize=None)
def exp_coefficients(d: int, n: int = TERMS) -> tuple[Fraction, ...]:
    """e_0..e_n of exp(d R(t)), in powers of t^2, from
    k e_k = sum_{j=1}^{k} j d l_j e_{k-j}."""
    s = [d * l for l in log_coefficients(n)]
    e = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        e[k] = sum((j * s[j] * e[k - j] for j in range(2, k + 1)), Fraction(0)) / k
    return tuple(e)


def faddeeva_derivatives(z, k: int) -> list:
    """w(z), w'(z), .., w^{(k)}(z) by the upward recurrence."""
    w = [mp.exp(-z * z) * mp.erfc(-1j * z)]
    w.append(-2 * z * w[0] + 2j / mp.sqrt(mp.pi))
    for j in range(1, k):
        w.append(-2 * z * w[j] - 2 * j * w[j - 1])
    return w


def green_gaussian(d: int, omega: float, terms: int = TERMS, dps: int = DPS) -> complex:
    """G_d(omega) by the Gaussian series with ``terms`` terms at ``dps``
    digits, rounded to a complex double."""
    e = exp_coefficients(d, terms)
    with mp.workdps(dps):
        dm = mp.mpf(d)
        w = faddeeva_derivatives(mp.mpf(omega) / mp.sqrt(dm), 2 * terms)
        total = mp.mpc(0)
        for n in range(terms + 1):
            if e[n]:
                en = mp.mpf(e[n].numerator) / e[n].denominator
                total += en * (-1) ** n * w[2 * n] / dm**n
        return complex(-1j * mp.sqrt(mp.pi / dm) * total)
