"""The t0 contour: the integrand of the band pieces of d >= 8.

The imaginary-axis formula of integrand.py cancels inside the band: its
terms alternate, and near tau = 0 they behave like |ln tau|^d, which
doubles cannot resolve from d of about 8 on.  So ``green_sweep`` takes
these pieces on another contour, whose integrands this module evaluates
on cached node tables, one per level (see green.py).

A band piece 0 <= j <= d-1 of d >= ``CONTOUR_MIN_D`` = 8 (omega = -d is
piece 0) is integrated on the Fourier form

    G_d(omega) = -i int_0^inf e^{i omega t} J0(t)^d dt = -i S + R.

S = int_0^{t0} e^{i omega t} J0(t)^d dt is the real segment, with
J0^d = sign * exp(d log1p(J0 - 1)) and J0 - 1 by its series
(``bessel.j0m1``), which keeps the rounding of the Gaussian peak at t = 0
relative; J0^d as exp(d log|J0|) from a library J0 would not.  Past t0,
J0 = (H1 + H2)/2 splits J0^d into 2^{-d} sum_n binom(d,n) H1^n H2^{d-n},
and term n oscillates as e^{i nu_n t}, nu_n = omega + 2n - d.  It goes up
the ray z = t0 + i tau when nu_n >= 0 (nu_n = 0 too, where its tail is
tau^{-d/2}) and down the ray t0 - i tau otherwise, so every term decays.
With the scaled pair h1e = H1 e^{-iz}, h2e = H2 e^{iz} on the up ray
(``bessel.hankel_pair``), whose conjugates, swapped, are the down ray's,
and a_n = binom(d,n)/2^d (from lgamma, ``ray_log_weights``),

    R = int_0^inf [ sum_{nu_n>=0} a_n h1e^n h2e^{d-n} e^{i nu_n t0 - nu_n tau}
                  - sum_{nu_n<0} a_n conj(h2e)^n conj(h1e)^{d-n}
                    e^{i nu_n t0 + nu_n tau} ] dtau.

Every weight is positive, no sum alternates, and no term has a log
singularity.  The first term up is n0 = d - j: nu_{n0} = omega - (2j - d)
is the distance to the piece's lower van Hove frequency.  From t0 = 3 on
|h1e|, |h2e| <= 0.46, so R is of order 0.46^d of G, and below eps |G| from
d of about 50.  Outside the band the contour took 2.4-7x the evaluations
of the one-term formula, which does not cancel, so it stays there.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .bessel import hankel_pair, j0m1

__all__ = [
    "CONTOUR_MIN_D",
    "RayTable",
    "SegmentTable",
    "ray_log_weights",
    "ray_table",
    "segment_table",
    "eval_rays",
    "eval_segment",
]

# The band pieces 0 <= j <= d-1 of every d from this one on are integrated
# on the t0 contour (see above); omega = -d is piece 0.
CONTOUR_MIN_D = 8

# Most (terms x nodes) elements of the t0 contour's rays formed at once by
# eval_rays.
_RAY_ELEMENTS = 1 << 14


@functools.lru_cache(maxsize=1024)
def ray_log_weights(d: int) -> np.ndarray:
    """log a_n = log(binom(d, n) / 2^d) for n = 0..d, from lgamma, so no
    binomial leaves the double range at any d; read-only."""
    weights = np.array([math.lgamma(d + 1) - math.lgamma(n + 1) - math.lgamma(d - n + 1)
                        for n in range(d + 1)]) - d * math.log(2.0)
    weights.flags.writeable = False
    return weights


class RayTable(NamedTuple):
    """The scaled Hankel pair h1e, h2e on the ray z = t0 + i tau, and
    i z = i t0 - tau, at an array of nodes tau."""

    h1e: np.ndarray
    h2e: np.ndarray
    iz: np.ndarray


class SegmentTable(NamedTuple):
    """J0(t) - 1 by its series, at an array of nodes t."""

    t: np.ndarray
    j0m1: np.ndarray


def ray_table(tau, t0: float) -> RayTable:
    """Evaluate the ray's Hankel pair once on the nodes ``tau`` (1-D)."""
    z = t0 + 1j * np.asarray(tau, dtype=float)
    return RayTable(*hankel_pair(z), 1j * z)


def segment_table(t) -> SegmentTable:
    """Evaluate J0 - 1 once on the segment's nodes ``t`` (1-D, in [0, 4])."""
    t = np.asarray(t, dtype=float)
    return SegmentTable(t, j0m1(t))


def _ray_terms(n: np.ndarray, nu: np.ndarray, terms: range, log_n: np.ndarray,
               log_rest: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """The sum over the ``terms`` n of e^{log a_n + n log_n + (d-n) log_rest
    + nu_n iz} at each node, formed at most ``_RAY_ELEMENTS`` (terms x
    nodes) at a time and added in order of n."""
    d, step = len(n) - 1, max(1, _RAY_ELEMENTS // iz.size)
    log_a = ray_log_weights(d)
    total = 0.0
    for lo in terms[::step]:
        k = slice(lo, min(lo + step, terms.stop))
        total = total + np.exp(log_a[k, None] + n[k] * log_n + (d - n[k]) * log_rest
                               + nu[k] * iz).sum(axis=0)
    return total


def eval_rays(d: int, omegas: np.ndarray, js: np.ndarray, table: RayTable) -> np.ndarray:
    """The ray integrand of R for frequencies ``omegas`` of band pieces
    ``js`` at the nodes of ``table``, as a complex (rows x nodes) block.

    Term n of piece j goes up when n >= n0 = d - j and down otherwise (see
    the module docstring), each formed as one exponential:

        up:    e^{log a_n + n log h1e + (d-n) log h2e + nu_n iz},
        down:  conj e^{log a_n + n log h2e + (d-n) log h1e - nu_n iz},

    and row r is the up terms' sum less the down terms'.  Each row is
    summed on its own, so it does not depend on the rows it is batched
    with.
    """
    n = np.arange(d + 1.0)[:, None]
    log_h1e, log_h2e, iz = np.log(table.h1e), np.log(table.h2e), table.iz
    out = np.empty((len(js), iz.size), dtype=complex)
    with np.errstate(under="ignore"):
        for row, omega, j in zip(out, omegas.tolist(), js.tolist()):
            nu = omega - (d - 2.0 * n)  # nu_n, each one rounding
            row[:] = (_ray_terms(n, nu, range(d - j, d + 1), log_h1e, log_h2e, iz)
                      - np.conj(_ray_terms(n, nu, range(d - j), log_h2e, log_h1e, -iz)))
    return out


def eval_segment(d: int, omegas: np.ndarray, table: SegmentTable) -> np.ndarray:
    """The segment integrand e^{i omega t} J0(t)^d of S for frequencies
    ``omegas`` at the nodes of ``table``, as a complex (rows x nodes)
    block, with J0^d = sign * exp(d log1p(J0 - 1)): where J0 < 0 the log is
    log1p(-2 - (J0 - 1)), whose argument is exact there."""
    a = table.j0m1
    negative = a < -1.0
    with np.errstate(divide="ignore", under="ignore"):  # log 0 at a zero of J0
        power = np.exp(d * np.log1p(np.where(negative, -2.0 - a, a)))
        if d % 2:
            power = np.where(negative, -power, power)
        return np.exp(1j * (omegas[:, None] * table.t)) * power
