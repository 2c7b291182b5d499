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

Only q depends on omega.  The weights w are the exact coefficients of
``coefficients.coefficient_table`` as floats (``term_weights``); every
piece of d <= 652 can be formed, and from d = 653 on ``term_weights``
raises ``DomainError`` for a band piece whose weights leave the double
range.  The Bessel pair is a ``BesselPair`` of arrays built once per set
of nodes; ``eval_terms`` evaluates any frequencies, of one piece or of
many, as one term-major (frequencies x nodes) block, and reads the terms of
every block from its weights: a term is formed on the rows whose weight
for it is nonzero.

Inside the band (0 <= j <= d-1) all d+1 terms of a piece have a nonzero
coefficient.  Outside it (j = -1 or j = d) all but the m = d one are
exactly zero, and the integrand is the single term +-(1/2^d) ibar^d
e^{(d-|omega|)tau} = +-I0(tau)^d e^{-|omega| tau}.  ``eval_terms`` forms only
the terms with a nonzero weight, so such a frequency costs one term at
any d.

The factor 1/2^d scales the sum, not the weights, on purpose: folded into
the weights it would move the first non-finite band value from d ~ 106 to
d ~ 118 (flagged either way), but flip signed zeros and subnormal bits
that the per-piece bitwise reference sees.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import BesselPair, i0e, k0e
from .coefficients import check_dimension, coefficient_table, staircase_j
from .errors import DomainError

__all__ = [
    "IntegrandSpec",
    "TailKind",
    "TailClass",
    "bessel_table",
    "build_integrand",
    "term_exponents",
    "term_weights",
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


@dataclass(frozen=True, eq=False)
class IntegrandSpec:
    """The integrand of one (d, omega): the piece j, and the weight
    (``term_weights``) and net exponent (``term_exponents``) of every slot,
    both read-only arrays."""

    d: int
    omega: float
    j: int
    weights: np.ndarray
    exponents: np.ndarray

    @property
    def terms(self) -> tuple[int, ...]:
        """The slots with a nonzero weight: the terms the piece forms."""
        return tuple(np.flatnonzero(self.weights).tolist())


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
    """The net exponent of every slot for each frequency.

    The 2(d+1) slots run in the formula's order: the C terms m = 0..d in
    slots 0..d (exponent 2m - d - omega), then the D terms m = 0..d in
    slots d+1..2d+1 (exponent 2m - d + omega).  Returns a
    (frequencies x 2(d+1)) array; an exponent within
    ``VAN_HOVE_SNAP_TOL * max(1, d)`` of zero is set to exactly 0.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1, 1)
    base = np.arange(-d, d + 1, 2.0)  # 2m - d, m = 0..d
    q = np.concatenate((base - omegas, base + omegas), axis=1)
    q[np.abs(q) <= VAN_HOVE_SNAP_TOL * max(1.0, d)] = 0.0
    return q


def build_integrand(d: int, omega: float) -> IntegrandSpec:
    """Assemble the integrand of the piecewise formula for (d, omega)."""
    d, omega = check_dimension(d), float(omega)
    j = staircase_j(d, omega)  # validates omega
    exponents = term_exponents(d, [omega])[0]
    exponents.flags.writeable = False
    return IntegrandSpec(d=d, omega=omega, j=j, weights=term_weights(d, j),
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


def eval_terms(d: int, exponents: np.ndarray, table: BesselPair,
               weights: np.ndarray) -> np.ndarray:
    """Evaluate the integrand of several frequencies on one Bessel table.

    Row r is a frequency with the slot exponents ``exponents[r]`` (see
    ``term_exponents``) and weights ``weights[r]`` (``term_weights`` of its
    piece), the rows ordered by piece.  Returns the complex (rows x nodes)
    block ``(1/2^d) * sum_k w_k i^{(d+m) mod 2} kbar^{d-m} ibar^m
    e^{exponent_k*tau}``, with 1/2^d applied last (see the module docstring).

    The weights pick the terms: the block forms the slots that are nonzero
    in some row, in slot order, which is the formula's order, and each term
    reaches the rows whose weight for it is nonzero.  Since the rows are
    ordered by piece, those rows are one contiguous run.  So each row
    receives the terms of its piece with the arithmetic and in the order of
    a single frequency: it does not depend on the rows it is batched with,
    and a term no row has is never formed.  A block whose first and last
    rows have the same terms is of one piece; it forms the exponent*tau
    products of at most ``_QTAU_ELEMENTS`` elements (or of one term) at
    once and scales them by scalar weights.  A mixed block forms them one
    term at a time, on the rows that use it only.  Underflowed terms
    contribute exactly 0; an overflow shows as a non-finite value, which
    the quadrature flags.
    """
    tau, n = table.tau, len(weights)
    # a piece is identified by its terms, and the rows are ordered by piece
    mixed = n > 1 and ((weights[0] != 0.0) != (weights[-1] != 0.0)).any()
    if mixed:
        has = weights != 0.0
        # slot k reaches the rows [lo[k], hi[k]), those weighing it nonzero;
        # argmax is 0 also for a slot that no row has (has.any(0) is slower)
        lo = has.argmax(0)
        ks = np.flatnonzero(has[0] | (lo > 0)).tolist()
        lo, hi = lo.tolist(), (n - has[::-1].argmax(0)).tolist()
    else:
        ks = np.flatnonzero(weights[0]).tolist()
    re = np.zeros((n, tau.size))
    im = np.zeros_like(re)
    # terms per group; a mixed block forms each term's products on its rows
    g = len(ks) if mixed else max(1, min(_QTAU_ELEMENTS // re.size, d + 1))
    # kbar^{d-m} ibar^m is shared by the two terms of each m
    factors = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for a in range(0, len(ks), g):
            group = ks[a:a + g]
            qtau = None if mixed else exponents.take(group, axis=1).T[:, :, None] * tau
            for i, k in enumerate(group):
                m = k if k <= d else k - d - 1
                f = factors.get(m)
                if f is None:
                    f = factors[m] = table.kbar**(d - m) * table.ibar**m
                acc = im if (d + m) & 1 else re
                if mixed:
                    rows = slice(lo[k], hi[k])
                    w, acc = weights[rows, k, None], acc[rows]
                    q = exponents[rows, k, None] * tau
                else:
                    w, q = weights.item(0, k), qtau[i]
                acc += w * (f * np.exp(q))
            qtau = q = None  # free the products before the next group's
        return (re + 1j * im) * 0.5**d


def eval_integrand(spec: IntegrandSpec, tau):
    """Evaluate the integrand at tau (> 0, scalar or ndarray).

    Returns ``(1/2^d) * sum_k w_k i^{(d+m) mod 2} kbar^{d-m} ibar^m
    e^{exponent_k*tau}`` for the (d, omega) of ``spec`` as a complex scalar or
    a complex ndarray of tau's shape; a one-row call of ``eval_terms``.
    """
    tau_arr = np.asarray(tau, dtype=float)
    out = eval_terms(spec.d, spec.exponents[None], bessel_table(tau_arr.ravel()),
                     spec.weights[None])[0]
    return complex(out[0]) if tau_arr.ndim == 0 else out.reshape(tau_arr.shape)


def tail_class(spec: IntegrandSpec) -> TailClass:
    """Classify the large-tau behaviour of the assembled integrand.

    All exponents strictly negative gives exponential decay at the slowest
    rate; a zero exponent leaves the kbar*ibar power-law tau^{-d/2} tail,
    which is integrable only for d >= 3.
    """
    max_exp = float(spec.exponents[list(spec.terms)].max())
    if max_exp < 0.0:
        return TailClass(TailKind.EXPONENTIAL, -max_exp)
    if spec.d >= 3:
        return TailClass(TailKind.POWER_LAW, -spec.d / 2.0)
    return TailClass(TailKind.DIVERGENT)
