"""Assembly of the Bessel-product integrand for given (d, omega).

Writing K = kbar e^{-tau} and I = ibar e^{+tau}, each product
K^{d-m} I^m e^{-/+ omega tau} collapses to kbar^{d-m} ibar^m e^{q tau} with a
single analytically-formed net exponent q = 2m - d -/+ omega.  Every term
that piece j forms has q <= 0 (exactly 0 only at a van Hove frequency), so
the exponential growth of K and I never reaches floating point, and each
term is the plain product w * (kbar^{d-m} ibar^m * e^{q tau}).

That product has a limit at large d.  As tau -> 0, ibar -> 2 while kbar
grows like (2/pi)|ln tau|, to about 437 at the smallest head node
(tau ~ 1e-298), so kbar^d alone exceeds the double range there from
d ~ 117 on, and the weighted terms of the band centre already from
d ~ 106.  No other form of the term can help: since q <= 0, e^{q tau} <= 1
cannot bring an overflowed power back into range, and where the power
overflows |q tau| is below one ulp of 1, so exp(log power + q tau)
overflows at exactly the same nodes.  Such a term shows as a non-finite
value, and the quadrature flags the result.  Outside the band the one
term left, ibar^d e^{q tau}, stays finite at any d.

Only q depends on omega, and a term's phase depends only on (d, m) and its
family, never on the piece j.  The Bessel pair is a ``BesselPair`` of
arrays built once per set of nodes; ``term_table`` holds the float weights of
piece j; ``eval_terms`` evaluates any frequencies, of one piece or of many,
on such a table as one term-major (frequencies x nodes) block.

Inside the band (0 <= j <= d-1) all d+1 terms of a piece have a nonzero
coefficient.  Outside it (j = -1 or j = d) all but the m = d one are
exactly zero, and the integrand is the single term +-(1/2^d) ibar^d
e^{(d-|omega|)tau} = +-I0(tau)^d e^{-|omega| tau}.  ``eval_terms`` forms only
the terms with a nonzero coefficient, so such a frequency costs one term
at any d.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import BesselPair, i0e, k0e
from .coefficients import PhasedInteger, coefficient_table, staircase_j

__all__ = [
    "TermSpec",
    "IntegrandSpec",
    "TermTable",
    "TailKind",
    "TailClass",
    "bessel_table",
    "build_integrand",
    "term_exponents",
    "term_table",
    "eval_integrand",
    "eval_terms",
    "tail_class",
    "VAN_HOVE_SNAP_TOL",
]

# omega is treated as sitting exactly on a van Hove frequency when closer
# than this; an exactly-zero exponent switches the tail handling, and the
# tolerance matches the representation error of the input.
VAN_HOVE_SNAP_TOL = 1e-13

# Most exponent*tau products (terms x rows x nodes) formed at once by
# eval_terms on a block of one piece: the d = 120 terms of one frequency on
# a level-8 node set (1,556 nodes) fit, and the terms of a larger block run
# in groups.
_QTAU_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class TermSpec:
    """One kbar^{d-m} ibar^m e^{exponent*tau} term of the assembled integrand."""

    m: int
    coeff: PhasedInteger
    sign: int
    exponent: float


@dataclass(frozen=True)
class IntegrandSpec:
    """Fully assembled integrand for one (d, omega) evaluation."""

    d: int
    omega: float
    j: int
    terms: tuple[TermSpec, ...]


@dataclass(frozen=True)
class TermTable:
    """The terms of piece j of dimension d, by slot, for ``eval_terms``.

    The 2(d+1) slots are the C terms m = d, d-1, ..., 0 (exponent
    2m - d - omega) followed by the D terms m = 0, 1, ..., d (exponent
    2m - d + omega), so the d+1 terms of any piece j fill the contiguous
    slots d-j .. 2d-j.  ``order`` lists those with a nonzero weight as the
    formula adds them, C m = 0..j, then D m = 0..d-j-1: all d+1 inside the
    band, and only the m = d term outside it, slot 2d+1 for j = -1 and
    slot 0 for j = d.  ``slots[k]`` is (m, weight, imag): the weight is
    the term's sign times its coefficient magnitude as a float, negated for
    the phases 2 and 3, and 0.0 in a slot that piece j lacks or whose
    coefficient is zero; ``imag`` says whether the term adds to the
    imaginary part.  A slot's m and imag depend only on d.
    """

    d: int
    j: int
    slots: tuple[tuple[int, float, bool], ...]
    order: tuple[int, ...]

    @property
    def weight(self) -> tuple[float, ...]:
        return tuple(slot[1] for slot in self.slots)


class TailKind(Enum):
    EXPONENTIAL = "exponential"
    POWER_LAW = "power_law"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class TailClass:
    kind: TailKind
    # decay rate for EXPONENTIAL, tail power (-d/2) for POWER_LAW
    parameter: float = 0.0


def term_exponents(d: int, omegas) -> np.ndarray:
    """The net exponent of every slot (see ``TermTable``) for each frequency.

    Returns a (frequencies x 2(d+1)) array; an exponent within
    ``VAN_HOVE_SNAP_TOL * max(1, d)`` of zero is set to exactly 0.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1, 1)
    base = np.arange(d, -d - 1, -2.0)  # 2m - d over the C slots, m = d..0
    q = np.concatenate((base - omegas, base[::-1] + omegas), axis=1)
    q[np.abs(q) <= VAN_HOVE_SNAP_TOL * max(1.0, d)] = 0.0
    return q


def build_integrand(d: int, omega: float) -> IntegrandSpec:
    """Assemble all d+1 terms of the piecewise formula for (d, omega)."""
    omega = float(omega)
    j = staircase_j(d, omega)  # validates d and omega
    table = coefficient_table(d, j)
    q = term_exponents(d, [omega])[0].tolist()
    terms = [TermSpec(m=m, coeff=coeff, sign=+1, exponent=q[d - m])
             for m, coeff in enumerate(table.c)]
    terms += [TermSpec(m=m, coeff=coeff, sign=-1, exponent=q[d + 1 + m])
              for m, coeff in enumerate(table.dcoef)]
    return IntegrandSpec(d=d, omega=omega, j=j, terms=tuple(terms))


@functools.lru_cache(maxsize=1024)
def term_table(d: int, j: int) -> TermTable:
    """The float term table of piece j of dimension d, cached by (d, j)."""
    table = coefficient_table(d, j)
    weight = [0.0] * (2 * d + 2)
    for m, coeff in enumerate(table.c):
        weight[d - m] = float(-coeff.magnitude if coeff.phase >= 2 else coeff.magnitude)
    for m, coeff in enumerate(table.dcoef):
        weight[d + 1 + m] = float(coeff.magnitude if coeff.phase >= 2 else -coeff.magnitude)
    ms = (*range(d, -1, -1), *range(d + 1))
    # both families carry the phase -(d+m) or d+m mod 4: odd means imaginary
    slots = tuple((m, w, (d + m) % 2 == 1) for m, w in zip(ms, weight))
    order = tuple(k for k in (*range(d, d - j - 1, -1), *range(d + 1, 2 * d - j + 1))
                  if weight[k] != 0.0)
    return TermTable(d=d, j=j, slots=slots, order=order)


def bessel_table(tau) -> BesselPair:
    """Evaluate the scaled Bessel pair once on the nodes ``tau`` (1-D)."""
    tau = np.asarray(tau, dtype=float)
    return BesselPair(kbar=(2.0 / math.pi) * k0e(tau), ibar=2.0 * i0e(tau), tau=tau)


def eval_terms(d: int, js, exponents: np.ndarray, table: BesselPair,
               weights: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the integrand of several frequencies on one Bessel table.

    Row r is a frequency of piece ``js[r]`` (nondecreasing in r) with the
    slot exponents ``exponents[r]`` (see ``term_exponents``).  Rows of a
    single piece take their weights from ``term_table``; rows of several
    pieces need ``weights``, whose row r is ``term_table(d, js[r]).weight``.
    Returns the complex (rows x nodes) block ``(1/2^d) * sum_terms sign *
    coeff * kbar^{d-m} ibar^m e^{exponent*tau}``.

    The terms run in the order C m = 0..d, then D m = 0..d, and each is
    added to the rows whose piece has it with a nonzero coefficient: C m < d
    to m <= j <= d-1, C m = d to j = d, D m < d to 0 <= j <= d-1-m and D m = d
    to j = -1.  Every row thus receives the terms of its piece with the
    arithmetic and in the order of a single frequency, so it does not
    depend on the rows it is batched with, and a term no row has is never
    formed.  A block of one piece forms the exponent*tau products of at
    most d+1 terms, as many as the piece has, and of at most
    ``_QTAU_ELEMENTS`` elements (or of one term) at once; a mixed block
    forms them one term at a time, on the rows that use it only.
    Underflowed terms contribute exactly 0; an overflow shows as a
    non-finite value, which the quadrature flags.
    """
    tau = table.tau
    n = exponents.shape[0]
    j_first = int(js[0])
    terms = term_table(d, j_first)
    mixed = j_first != int(js[-1])
    if not mixed:
        ks = list(terms.order)
    else:
        # cut[k] is the first row with j >= t, where t runs d..0 over the C
        # slots and again over the D slots.  The rows [0, bottom) have
        # j = -1, [top, n) j = d, and the rows in between, inside the band,
        # reach C m = 0..j_hi and D m = 0..d-1-j_lo.
        cut = np.searchsorted(js, 2 * list(range(d, -1, -1))).tolist()
        top, bottom = cut[0], cut[-1]
        j_lo, j_hi = (int(js[bottom]), int(js[top - 1])) if bottom < top else (d, -1)
        ks = [*range(d, d - j_hi - 1, -1), *([0] if top < n else []),
              *range(d + 1, 2 * d + 1 - j_lo), *([2 * d + 1] if bottom else [])]
    re = np.zeros((n, tau.size))
    im = np.zeros_like(re)
    # terms per group; a mixed block forms each term's products on its rows
    g = len(ks) if mixed else max(1, min(_QTAU_ELEMENTS // re.size, d + 1))
    slots = terms.slots
    # kbar^{d-m} ibar^m is shared by the two terms of each m
    factors = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for a in range(0, len(ks), g):
            group = ks[a:a + g]
            qtau = None if mixed else exponents.take(group, axis=1).T[:, :, None] * tau
            for i, k in enumerate(group):
                m, w, imag = slots[k]
                f = factors.get(m)
                if f is None:
                    f = factors[m] = table.kbar**(d - m) * table.ibar**m
                acc = im if imag else re
                if mixed:
                    # C m < d reaches [cut[k], top), C m = d [top, n),
                    # D m < d [bottom, cut[k]) and D m = d [0, bottom)
                    rows = (slice(cut[k], top if k else n) if k <= d
                            else slice(bottom if k <= 2 * d else 0, cut[k]))
                    w, acc = weights[rows, k, None], acc[rows]
                    q = exponents[rows, k, None] * tau
                else:
                    q = qtau[i]
                acc += w * (f * np.exp(q))
            qtau = q = None  # free the products before the next group's
        return (re + 1j * im) * 0.5**d


def eval_integrand(spec: IntegrandSpec, tau):
    """Evaluate the integrand at tau (> 0, scalar or ndarray).

    Returns ``(1/2^d) * sum_terms sign * coeff * kbar^{d-m} ibar^m
    e^{exponent*tau}`` for the (d, omega) of ``spec`` as a complex scalar or
    a complex ndarray of tau's shape; a one-row call of ``eval_terms``.
    """
    tau_arr = np.asarray(tau, dtype=float)
    exponents = term_exponents(spec.d, [spec.omega])
    out = eval_terms(spec.d, [spec.j], exponents, bessel_table(tau_arr.ravel()))[0]
    return complex(out[0]) if tau_arr.ndim == 0 else out.reshape(tau_arr.shape)


def tail_class(spec: IntegrandSpec) -> TailClass:
    """Classify the large-tau behaviour of the assembled integrand.

    All exponents strictly negative gives exponential decay at the slowest
    rate; a zero exponent leaves the kbar*ibar power-law tau^{-d/2} tail,
    which is integrable only for d >= 3.
    """
    max_exp = max(t.exponent for t in spec.terms)
    if max_exp < 0.0:
        return TailClass(TailKind.EXPONENTIAL, -max_exp)
    if spec.d >= 3:
        return TailClass(TailKind.POWER_LAW, -spec.d / 2.0)
    return TailClass(TailKind.DIVERGENT)
