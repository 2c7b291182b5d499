"""The integrand of the piecewise formula for given (d, omega): its piece,
exact coefficients, net exponents and evaluation.

Piece j of G_d weights K^{d-m} I^m e^{-omega tau} with C_jm and
K^{d-m} I^m e^{+omega tau} with -D_jm, where

    C_jm = sum_{n=m}^{j}     binom(d,n) binom(n,m) i^{2n-d-m}
    D_jm = sum_{n=m}^{d-j-1} binom(d,n) binom(n,m) i^{d+m-2n}.

Since i^{2n} = (-1)^n, each is a quarter turn times the alternating sum

    sum_{n=m}^{N} (-1)^n binom(d,n) binom(n,m) = (-1)^N binom(d,m) binom(d-m-1, N-m)

(m < d; the m = d sum is its one n = d term), which ``coefficient_table``
turns into one exact signed integer weight w per term.  A piece has
2(d+1) slots, C m = 0..d then D m = 0..d, a term being imaginary when d+m
is odd.  Inside the band (0 <= j <= d-1) the d+1 slots C m = 0..j and
D m = 0..d-j-1 are nonzero; outside it (j = -1 or j = d) only the m = d
one is, and the integrand is the single term +-I0(tau)^d e^{-|omega| tau}.
``admit`` is the one way in: it checks d (1 <= d <= 1,023, see below) and
the frequencies by the input rule and gives each frequency's piece and
slot exponents, to a point (``build_integrand``) and a sweep alike.

Writing K = kbar e^{-tau} and I = ibar e^{+tau}, each product
K^{d-m} I^m e^{-/+ omega tau} collapses to kbar^{d-m} ibar^m e^{q tau} with a
single analytically-formed net exponent q = 2m - d -/+ omega.  Every term
that piece j forms has q <= 0, so the exponential growth of K and I never
reaches floating point, and each term is the plain product
w * (kbar^{d-m} ibar^m * e^{q tau}).  This holds in floating point too:
``staircase_js`` picks the piece by exact comparisons of omega with the van
Hove frequencies, each q is one rounded difference of such a frequency and
omega, and since rounding is monotone and x - y is 0 only when x == y, the
rounded q keeps its sign, and is exactly 0 only at an exact van Hove input.

Inside the band that product has a limit at large d.  The band terms
alternate, and near tau = 0 they behave like |ln tau|^d, a cancellation
that doubles cannot resolve from d of about 8 on; at large d the powers
leave the double range at the smallest nodes, a non-finite value that the
quadrature flags.  So the evaluator takes the band pieces of d >= 8 on the
t0 contour (contour.py), and this formula serves every piece of d <= 7 and
the outside of the band at any d.  There the one term left,
ibar^d e^{q tau}, stays finite up to d = 1,023: ibar^d tends to 2^d as
tau -> 0, which leaves the double range from d = 1,024 on, before the 1/2^d
scale, so ``admit`` refuses d > 1,023.

Only q depends on omega.  The weights are ``coefficient_table``'s as
floats (``term_weights``); every piece of d <= 652 can be formed, and from
d = 653 on ``term_weights`` raises ``DomainError`` for a band piece whose
weights leave the double range (the evaluator forms none of them).  The
Bessel pair is a ``BesselPair`` of arrays built once per set of nodes;
``eval_terms`` evaluates frequencies ordered by piece, each run of one
piece as one (frequencies x nodes) block of that piece's terms alone, so
a frequency outside the band costs one term at any d.  A run also forms
only the parities and the powers its terms have.  A part (real or
imaginary) that no term reaches stays the scalar 0.0, which adds to the
complex result exactly what a block of zeros would: the one term outside
the band (m = d) is real, so such a row builds no imaginary block.  The
m = d and m = 0 factors are ibar^d and kbar^d, since x**0 is exactly 1
and 1*x is exactly x.  So neither moves a bit.  A piece's terms and each
d's van Hove grid are built on first use and shared read-only.

Every frequency has one distance delta to its nearest van Hove frequency
(``van_hove_distance``):

    delta = min over the 2(d+1) slots of |q| = min over v of |omega - v|,

since the two halves of the slots give the same |q| (-v is a van Hove
frequency with v).  delta is minus q_max, the largest exponent among the
terms the piece forms: inside the band (v_j <= omega < v_{j+1}) those are
v_j - omega and omega - v_{j+1}, and outside it the one term's is
-(|omega| - d).  delta is 0 exactly at a van Hove input, where the
tau^{-d/2} tail diverges for d <= 2.

The factor 1/2^d scales the sum, not the weights, on purpose: folded into
the weights it would flip signed zeros and subnormal bits that the
per-piece bitwise reference sees.
"""
from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .bessel import BesselPair, i0e, k0e
from .errors import DomainError, check_integer, check_reals

__all__ = [
    "IntegrandSpec",
    "TailKind",
    "TailClass",
    "admit",
    "van_hove_distance",
    "coefficient_table",
    "bessel_table",
    "build_integrand",
    "term_weights",
    "eval_integrand",
    "eval_terms",
    "tail_class",
]

class IntegrandSpec(NamedTuple):
    """The integrand of one (d, omega): the piece j, and the weight
    (``term_weights``) and net exponent (``term_exponents``) of every slot,
    both read-only arrays.  No caller compares or hashes specs: with its
    arrays, ``==`` between two specs raises unless they share them, and a
    spec has no hash."""

    d: int
    omega: float
    j: int
    weights: np.ndarray
    exponents: np.ndarray

    @property
    def terms(self) -> tuple[int, ...]:
        """The slots of the terms the piece forms (``_terms``): those with
        a nonzero weight, in slot order."""
        return tuple(k for k, _, _ in _terms(self.d, self.j))


class TailKind(Enum):
    EXPONENTIAL = "exponential"
    POWER_LAW = "power_law"
    DIVERGENT = "divergent"


class TailClass(NamedTuple):
    kind: TailKind
    # decay rate for EXPONENTIAL, tail power (-d/2) for POWER_LAW
    parameter: float = 0.0


@functools.lru_cache(maxsize=1024)
def _van_hove_grid(d: int) -> np.ndarray:
    """The van Hove frequencies -d, -d+2, .., d, which are also the slot
    exponents' 2m - d (m = 0..d): one read-only array per d, built on first
    use."""
    grid = np.arange(-d, d + 1, 2.0)
    grid.flags.writeable = False
    return grid


def staircase_js(d: int, omegas: np.ndarray) -> np.ndarray:
    """The piece j of every frequency of a grid, as an int array: the number
    of van Hove frequencies -d, -d+2, .., d at or below omega, less one, so
    j in [-1, d].  It compares omega with the van Hove frequencies exactly,
    where floor((omega+d)/2) would round omega + d.  It checks nothing:
    callers go through ``admit``."""
    return np.searchsorted(_van_hove_grid(d), omegas, side="right") - 1


def coefficient_table(d: int, j: int) -> tuple[int, ...]:
    """The exact signed weight w of every slot of piece j of dimension d:
    C_jm = w[m] i^{(d+m) mod 2} and D_jm = -w[d+1+m] i^{(d+m) mod 2}.  By
    the alternating sum above,

        w[m]       = (-1)^{j + ceil((d+m)/2)}  binom(d,m) binom(d-m-1, j-m)
        w[d+1+m]   = (-1)^{d-j + floor((d+m)/2)} binom(d,m) binom(d-m-1, d-j-1-m)

    for m < d, w[d] = 1 when j = d and w[2d+1] = -1 when j = -1, and every
    other weight is 0: binom is 0 where its lower index exceeds the upper.
    """
    d = check_integer("d", d, 1)
    j = check_integer("j", j, -1, d)
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


def term_exponents(d: int, omegas: np.ndarray) -> np.ndarray:
    """The net exponent q = 2m - d -/+ omega of every slot, as a
    (frequencies x 2(d+1)) array, each one rounded difference.  It checks
    nothing: callers go through ``admit``."""
    omegas = omegas.reshape(-1, 1)
    base = _van_hove_grid(d)  # 2m - d, m = 0..d
    return np.concatenate((base - omegas, base + omegas), axis=1)


def van_hove_distance(exponents: np.ndarray) -> np.ndarray:
    """delta = min |q| over the slots of each row of ``term_exponents``: the
    distance from its frequency to the nearest van Hove frequency, and minus
    its piece's largest exponent (see the module docstring)."""
    return np.abs(exponents).min(axis=-1)


def admit(d: int, omegas) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(d, omegas, js, exponents): d and the frequencies checked once by the
    input rule (``errors.check_integer``, ``errors.check_reals``), with the
    piece (``staircase_js``) and slot exponents (``term_exponents``) of each.
    d is at most 1,023, the largest d for which 2^d is a double."""
    d = check_integer("d", d, 1, 1023)
    omegas = check_reals("omega", omegas)
    return d, omegas, staircase_js(d, omegas), term_exponents(d, omegas)


def build_integrand(d: int, omega: float) -> IntegrandSpec:
    """Assemble the integrand of the piecewise formula for (d, omega)."""
    d, omegas, js, exponents = admit(d, [omega])
    j, exponents = int(js[0]), exponents[0]
    exponents.flags.writeable = False
    return IntegrandSpec(d=d, omega=omegas.item(0), j=j, weights=term_weights(d, j),
                         exponents=exponents)


# typed: True, and a numpy integer j, equal to a cached int must still reach
# coefficient_table's validation instead of hitting the cache
@functools.lru_cache(maxsize=1024, typed=True)
def term_weights(d: int, j: int) -> np.ndarray:
    """``coefficient_table(d, j)`` as floats, cached by (d, j) and read-only;
    its nonzero weights are exactly the terms piece j has.

    A weight beyond the double range raises ``DomainError``: every piece of
    d <= 652 can be formed, and the first that cannot is j = 209 of d = 653
    (at d = 1,000, the pieces j = 4..995).
    """
    table = coefficient_table(d, j)
    try:
        weights = np.array(table, dtype=float)
    except OverflowError:
        raise DomainError(
            f"piece j = {j} of d = {d} has a coefficient beyond the double range; "
            "every piece of d <= 652 can be formed") from None
    weights.flags.writeable = False
    return weights


def bessel_table(tau) -> BesselPair:
    """Evaluate the scaled Bessel pair once on the nodes ``tau`` (1-D)."""
    tau = np.asarray(tau, dtype=float)
    return BesselPair(kbar=(2.0 / math.pi) * k0e(tau), ibar=2.0 * i0e(tau), tau=tau)


def eval_terms(d: int, js: np.ndarray, exponents: np.ndarray,
               table: BesselPair) -> np.ndarray:
    """Evaluate the integrand of several frequencies on one Bessel table.

    Row r is a frequency of piece ``js[r]`` with the slot exponents
    ``exponents[r]`` (see ``term_exponents``), the rows ordered by piece.
    Returns the complex (rows x nodes) block ``(1/2^d) * sum_k w_k
    i^{(d+m) mod 2} kbar^{d-m} ibar^m e^{exponent_k*tau}``, with 1/2^d
    applied last (see the module docstring).

    Each run of rows of one piece is formed on its own from that piece's
    terms (``_terms``), in slot order, which is the formula's order, each
    scaled by its scalar weight.  So each row receives the terms of its
    piece with the arithmetic and in the order of a single frequency: it
    does not depend on the rows it is batched with, and a term its piece
    lacks is never formed.  A run forms a term's exponent*tau products as
    it forms the term, so it holds one term's (rows x nodes) block at a
    time, and forms only the parities and the powers its terms have: a
    part no term reaches stays 0.0, and the m = d and m = 0 factors are
    ibar^d and kbar^d, which moves no bit (see the module docstring).  An
    underflowed term adds exactly +-0, and an overflow shows as a
    non-finite value, which the quadrature flags.
    """
    tau = table.tau
    # the rows are ordered by piece: a block whose first and last rows
    # share theirs is one run
    cuts = [] if js[0] == js[-1] else (np.flatnonzero(js[1:] != js[:-1]) + 1).tolist()
    bounds = [0, *cuts, len(js)]
    blocks = []
    # kbar^{d-m} ibar^m is shared by the two terms of each m, in every run
    factors = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            rows = exponents[lo:hi]
            # the real and imaginary sums; one that no term reaches stays 0.0
            acc = [0.0, 0.0]
            for k, m, w in _terms(d, int(js[lo])):
                f = factors.get(m)
                if f is None:
                    # no power of 0: x**0 is exactly 1 and 1*x is x
                    f = factors[m] = (table.ibar**d if m == d else table.kbar**d if m == 0
                                      else table.kbar**(d - m) * table.ibar**m)
                acc[(d + m) & 1] += w * (f * np.exp(rows[:, k, None] * tau))
            re, im = acc
            blocks.append((re + 1j * im) * 0.5**d)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@functools.lru_cache(maxsize=1024)
def _terms(d: int, j: int) -> tuple[tuple[int, int, float], ...]:
    """The terms of piece j of dimension d: (slot, m, weight) for each slot
    with a nonzero weight (``term_weights``), in slot order, as a tuple
    shared by every caller."""
    weights = term_weights(d, j)
    return tuple((k, k if k <= d else k - d - 1, weights.item(k))
                 for k in np.flatnonzero(weights).tolist())


def eval_integrand(spec: IntegrandSpec, tau):
    """Evaluate the integrand at tau (> 0, scalar or ndarray).

    Returns ``(1/2^d) * sum_k w_k i^{(d+m) mod 2} kbar^{d-m} ibar^m
    e^{exponent_k*tau}`` for the (d, omega) of ``spec`` as a complex scalar or
    a complex ndarray of tau's shape; a one-row call of ``eval_terms``.
    """
    tau_arr = np.asarray(tau, dtype=float)
    out = eval_terms(spec.d, np.array([spec.j]), spec.exponents[None],
                     bessel_table(tau_arr.ravel()))[0]
    return complex(out[0]) if tau_arr.ndim == 0 else out.reshape(tau_arr.shape)


def tail_class(spec: IntegrandSpec) -> TailClass:
    """Classify the large-tau behaviour of the assembled integrand.

    A frequency off the van Hove frequencies decays exponentially at the
    rate delta (``van_hove_distance``); at one (delta = 0) the kbar*ibar
    power-law tau^{-d/2} tail is left, which is integrable only for d >= 3.
    """
    delta = float(van_hove_distance(spec.exponents))
    if delta > 0.0:
        return TailClass(TailKind.EXPONENTIAL, delta)
    if spec.d >= 3:
        return TailClass(TailKind.POWER_LAW, -spec.d / 2.0)
    return TailClass(TailKind.DIVERGENT)
