"""Overflow-safe assembly of the Bessel-product integrand for given (d, omega).

Writing K = kbar e^{-tau} and I = ibar e^{+tau}, each product
K^{d-m} I^m e^{-/+ omega tau} collapses to kbar^{d-m} ibar^m e^{q tau} with a
single analytically-formed net exponent q = 2m - d -/+ omega, which is always
<= 0 (and exactly 0 only at a van Hove frequency).  Exponentials are never
applied to K and I separately, so neither overflow nor underflow can occur
before the final, decaying factor.

Only q depends on omega.  The Bessel pair lives in a ``BesselTable`` built
once per set of nodes, and ``eval_terms`` evaluates every frequency of one
piece on such a table as one (frequencies x nodes) block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import i0e, k0e
from .coefficients import PhasedInteger, coefficient_table, staircase_j
from .errors import DomainError

__all__ = [
    "TermSpec",
    "IntegrandSpec",
    "TailKind",
    "TailClass",
    "BesselTable",
    "bessel_table",
    "build_integrand",
    "eval_integrand",
    "eval_terms",
    "tail_class",
    "VAN_HOVE_SNAP_TOL",
    "LOG_SPACE_POWER",
]

# omega is treated as sitting exactly on a van Hove frequency when closer
# than this; an exactly-zero exponent switches the tail handling, and the
# tolerance matches the representation error of the input.
VAN_HOVE_SNAP_TOL = 1e-13

# Bessel powers at or above this order are accumulated in log space.
LOG_SPACE_POWER = 30


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


class TailKind(Enum):
    EXPONENTIAL = "exponential"
    POWER_LAW = "power_law"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class TailClass:
    kind: TailKind
    # decay rate for EXPONENTIAL, tail power (-d/2) for POWER_LAW
    parameter: float = 0.0


def _snap_exponent(q: float, d: int) -> float:
    return 0.0 if abs(q) <= VAN_HOVE_SNAP_TOL * max(1.0, d) else q


def build_integrand(d: int, omega: float) -> IntegrandSpec:
    """Assemble all d+1 terms of the piecewise formula for (d, omega)."""
    omega = float(omega)
    if math.isnan(omega) or math.isinf(omega):
        raise DomainError(f"omega must be finite, got {omega!r}")
    j = staircase_j(d, omega)
    table = coefficient_table(d, j)
    terms = []
    for m, coeff in enumerate(table.c):
        terms.append(
            TermSpec(m=m, coeff=coeff, sign=+1,
                     exponent=_snap_exponent(2 * m - d - omega, d))
        )
    for m, coeff in enumerate(table.dcoef):
        terms.append(
            TermSpec(m=m, coeff=coeff, sign=-1,
                     exponent=_snap_exponent(2 * m - d + omega, d))
        )
    return IntegrandSpec(d=d, omega=omega, j=j, terms=tuple(terms))


@dataclass(frozen=True)
class BesselTable:
    """The scaled pair kbar = (2/pi) k0e(tau), ibar = 2 i0e(tau) and their
    logarithms on fixed nodes tau (1-D)."""

    tau: np.ndarray
    kbar: np.ndarray
    ibar: np.ndarray
    log_kbar: np.ndarray
    log_ibar: np.ndarray


def bessel_table(tau) -> BesselTable:
    """Evaluate the scaled Bessel pair once on the nodes ``tau`` (1-D)."""
    tau = np.asarray(tau, dtype=float)
    kbar = (2.0 / math.pi) * k0e(tau)
    ibar = 2.0 * i0e(tau)
    return BesselTable(tau, kbar, ibar, np.log(kbar), np.log(ibar))


def eval_terms(spec: IntegrandSpec, exponents: np.ndarray, table: BesselTable) -> np.ndarray:
    """Evaluate the integrand of several frequencies of one piece on a table.

    ``spec`` is any spec of the piece: it supplies d and the coefficients,
    which all frequencies of a piece share.  Row r of ``exponents`` holds
    the term exponents (in ``spec.terms`` order) of the r-th frequency.
    Returns the complex (rows x nodes) block ``(1/2^d) * sum_terms sign *
    coeff * kbar^{d-m} ibar^m e^{exponent*tau}``.  Each element is computed
    exactly as for a single frequency, so a row does not depend on the rows
    it is batched with.  Underflowed terms contribute exactly 0; an overflow
    shows as a non-finite value, which the quadrature flags.
    """
    d, tau = spec.d, table.tau
    re = np.zeros((exponents.shape[0], tau.size))
    im = np.zeros_like(re)
    # kbar^{d-m} ibar^m (or its log) is shared by the two terms of each m
    factors = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        qtau = exponents.T[:, :, None] * tau
        for t, q in zip(spec.terms, qtau):
            pk, pi_ = d - t.m, t.m
            log_space = max(pk, pi_) >= LOG_SPACE_POWER
            f = factors.get(t.m)
            if f is None:
                if log_space:
                    f = pk * table.log_kbar + pi_ * table.log_ibar
                else:
                    f = table.kbar**pk * table.ibar**pi_
                factors[t.m] = f
            mag = np.exp(f + q) if log_space else f * np.exp(q)
            w = t.sign * t.coeff.magnitude
            phase = t.coeff.phase
            if phase == 0:
                re += w * mag
            elif phase == 1:
                im += w * mag
            elif phase == 2:
                re -= w * mag
            else:
                im -= w * mag
        return (re + 1j * im) * 0.5**d


def eval_integrand(spec: IntegrandSpec, tau):
    """Evaluate the integrand at tau (> 0, scalar or ndarray).

    Returns ``(1/2^d) * sum_terms sign * coeff * kbar^{d-m} ibar^m
    e^{exponent*tau}`` as a complex scalar or a complex ndarray of tau's
    shape; see ``eval_terms``.
    """
    tau_arr = np.asarray(tau, dtype=float)
    exponents = np.array([[t.exponent for t in spec.terms]])
    out = eval_terms(spec, exponents, bessel_table(tau_arr.ravel()))[0]
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
