"""Scaled Bessel functions on arrays of nodes: the pair K0/I0 of the
imaginary-axis formula, and the Hankel pair and J0 of the t0 contour.

``k0e(tau) = exp(tau)*K0(tau)`` and ``i0e(tau) = exp(-tau)*I0(tau)`` are
evaluated in two branches each:

* small arguments use the (everywhere convergent) power series, in the
  standard logarithmic form for K0;
* large arguments use Chebyshev expansions of ``exp(x)*sqrt(x)*K0(x)`` and
  ``exp(-x)*sqrt(x)*I0(x)`` in the inverse variable, fitted against 60-digit
  reference values.  Both tables are accurate to about 1.5 machine epsilons
  over their whole range.

The integrand assembly consumes them as the pair ``(kbar, ibar)`` with
``kbar = exp(+tau)*(2/pi)*K0(tau)`` and ``ibar = exp(-tau)*2*I0(tau)``, which
never overflows for any representable ``tau``.

The t0 contour (see contour.py) needs two more, with no library Bessel
function:

* ``hankel_pair(z)``, the scaled Hankel pair h1e = H0^(1)(z) e^{-iz} and
  h2e = H0^(2)(z) e^{+iz} on the ray z = t0 + i tau.  By DLMF 10.27.8,
  h1e = (2/(pi i)) k0e(-iz) and h2e = -(2/(pi i)) k0e(iz), with k0e the
  scaled K0 of a complex argument y.  Below |y| = 1e4 that is DLMF 10.32.8
  with t = e^{i phi} u^2,

      k0e(y) = (2y)^{-1/2} e^{i phi/2} int e^{-e^{i phi} u^2}
               (1 + e^{i phi} u^2/(2y))^{-1/2} du,

  by the trapezoid rule with step 1/8 on |u| <= 8 (129 nodes), at
  phi = -pi/4 for h1e and +pi/4 for h2e.  The branch point of the root
  then stays at least 3 pi/4 from the rotated path, and the integrand is
  below 3e-20 at its ends.  From |y| = 1e4 on, the Hankel asymptotic
  expansion (DLMF 10.40.2), six terms, is below an ulp of its sum.
* ``j0m1(t)``, J0(t) - 1 by its power series on [0, 4], without the
  cancellation of 1 + (J0 - 1) at small t.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

__all__ = ["BesselPair", "k0e", "i0e", "hankel_pair", "j0m1"]

_EULER_GAMMA = 0.5772156649015328606

# Branch crossovers.  The K0 series keeps its leading-term cancellation below
# ~1.5 ulp only up to tau ~ 1; the Chebyshev table therefore starts at 1.0
# rather than the more usual 2.0 (the seam agreement is tested explicitly).
_K0_SERIES_MAX = 1.0
_I0_SERIES_MAX = 7.75

# I0 power series sum_k x^k/(k!)^2, x = (tau/2)^2, highest order first.
_I0_SERIES = tuple(1.0 / math.factorial(k) ** 2 for k in range(25, -1, -1))

# K0 correction series sum_{k>=1} x^k H_k/(k!)^2, highest order first.
_K0_SERIES = tuple(
    float(sum(1.0 / j for j in range(1, k + 1))) / math.factorial(k) ** 2
    for k in range(20, 0, -1)
)

# J0(t) - 1 = x sum_{k>=1} (-x)^{k-1}/(k!)^2, x = (t/2)^2, highest order
# first; its 20th term is below 2e-25 of the sum at t = 4.
_J0M1_SERIES = tuple((-1.0) ** k / math.factorial(k) ** 2 for k in range(20, 0, -1))

# The trapezoid of DLMF 10.32.8: u = k/8 for 0 <= k <= 64, the even
# integrand's nodes u != 0 counted twice, highest |u| first.
_TRAPEZOID_U2 = (np.arange(64, -1, -1) / 8.0) ** 2
_TRAPEZOID_W = np.where(_TRAPEZOID_U2 > 0.0, 2.0, 1.0) / 8.0
_ASYMPTOTIC_MIN = 1e4
# a_k(0) of DLMF 10.40.2, k = 5..0, highest order first
_K0_ASYMPTOTIC = tuple(
    math.prod(-((2 * i - 1) ** 2) for i in range(1, k + 1)) / (math.factorial(k) * 8.0**k)
    for k in range(5, -1, -1)
)
# most (trapezoid nodes x arguments) elements formed at once
_TRAPEZOID_ELEMENTS = 1 << 14

# Chebyshev coefficients for exp(tau)*sqrt(tau)*K0(tau) in
# t = 2*(1.0/tau) - 1, tau in [1, inf).  Fitted at 60-digit precision.
_K0E_CHEB = (
    2.388866152433477,
    -0.053855323307629495,
    0.004362000068251702,
    -0.0005521270349863234,
    8.959565555755952e-05,
    -1.7138726856421186e-05,
    3.695146089045472e-06,
    -8.737284518980525e-07,
    2.225046272255236e-07,
    -6.025216756376064e-08,
    1.7186668629418083e-08,
    -5.1272057810909205e-09,
    1.5907351467912104e-09,
    -5.109583257914185e-10,
    1.6929517419961e-10,
    -5.76830638186359e-11,
    2.0159542597757997e-11,
    -7.2109400653397446e-12,
    2.634907598267123e-12,
    -9.819576891487158e-13,
    3.7269581872953407e-13,
    -1.4388149732990692e-13,
    5.6436532507140195e-14,
    -2.246928786474108e-14,
    9.07204602084177e-15,
    -3.7115879805240675e-15,
    1.5375780738039354e-15,
    -6.445375673304667e-16,
    2.732226735674128e-16,
    -1.1703838675038102e-16,
    5.059292020537827e-17,
    -2.196561080711807e-17,
    9.368986078004587e-18,
    -3.465839055746395e-18,
)

# Chebyshev coefficients for exp(-tau)*sqrt(tau)*I0(tau) in
# t = 2*(7.75/tau) - 1, tau in [7.75, inf).
_I0E_CHEB = (
    0.8047178068603528,
    0.0034876771026373706,
    7.40856222573413e-05,
    3.249942531669863e-06,
    2.4299531430552774e-07,
    2.8370482604934725e-08,
    4.332640055461383e-09,
    5.778732074243006e-10,
    -2.2775205888057524e-11,
    -5.3355086982999175e-11,
    -1.8182100469122776e-11,
    -1.2407659913066146e-12,
    1.4248818166845818e-12,
    5.084265101214459e-13,
    -4.2219242268222035e-14,
    -6.879179225141168e-14,
    -6.506898835497895e-15,
    8.04484874066126e-15,
    1.821693624058314e-15,
    -9.718437487219788e-16,
    -3.318184357759007e-16,
    1.3285700943963014e-16,
    5.470343868635432e-17,
    -2.139816153627259e-17,
    -8.61403431909225e-18,
    3.983360203479892e-18,
    1.2655546680306221e-18,
    -8.138797308190111e-19,
    -1.5720972326782026e-19,
    2.0107883638030403e-19,
)


class BesselPair(NamedTuple):
    """Scaled pair kbar = e^{+tau}(2/pi)K0(tau), ibar = e^{-tau} 2 I0(tau)
    at an array of nodes tau."""

    kbar: np.ndarray
    ibar: np.ndarray
    tau: np.ndarray


def _horner(coeffs, x):
    s = 0.0
    for c in coeffs:
        s = s * x + c
    return s


def _clenshaw(coeffs, t):
    b0 = b1 = 0.0
    t2 = 2.0 * t
    for c in coeffs[:0:-1]:
        b0, b1 = c + t2 * b0 - b1, b0
    return 0.5 * coeffs[0] + t * b0 - b1


def _i0_series(tau):
    x = 0.25 * tau * tau
    return _horner(_I0_SERIES, x)


def _k0_series(tau):
    # K0 = -(log(tau/2) + gamma) I0(tau) + sum_{k>=1} x^k H_k/(k!)^2
    x = 0.25 * tau * tau
    return -(np.log(0.5 * tau) + _EULER_GAMMA) * _i0_series(tau) + x * _horner(
        _K0_SERIES, x
    )


def _scaled(tau, cut, series, cheb):
    """``series(tau)`` up to ``cut``, above it the Chebyshev table ``cheb``
    in t = 2*(cut/tau) - 1, divided by sqrt(tau)."""
    tau = np.asarray(tau, dtype=float)
    small = tau <= cut
    out = np.empty_like(tau)
    if small.any():
        out[small] = series(tau[small])
    if (~small).any():
        tl = tau[~small]
        out[~small] = _clenshaw(cheb, 2.0 * (cut / tl) - 1.0) / np.sqrt(tl)
    return out


def k0e(tau):
    """Exponentially scaled K0: ``exp(tau) * K0(tau)``.

    Accepts an array of positive nodes; no input validation.
    """
    return _scaled(tau, _K0_SERIES_MAX, lambda ts: np.exp(ts) * _k0_series(ts), _K0E_CHEB)


def i0e(tau):
    """Exponentially scaled I0: ``exp(-tau) * I0(tau)``.

    Accepts an array of non-negative nodes; no input validation.
    """
    return _scaled(tau, _I0_SERIES_MAX, lambda ts: np.exp(-ts) * _i0_series(ts), _I0E_CHEB)


def _k0e_complex(y: np.ndarray, phi: float) -> np.ndarray:
    """``exp(y) * K0(y)`` at complex y whose branch point -2y lies at least
    3 pi/4 from the ray of angle ``phi``: the trapezoid below |y| = 1e4,
    the asymptotic expansion from there on (see the module docstring)."""
    out = np.empty_like(y)
    far = np.abs(y) >= _ASYMPTOTIC_MIN
    rot = cmath.exp(1j * phi)
    c = rot * _TRAPEZOID_U2[:, None]
    g = _TRAPEZOID_W[:, None] * np.exp(-c)
    near = np.flatnonzero(~far)
    step = _TRAPEZOID_ELEMENTS // _TRAPEZOID_U2.size
    for i in range(0, near.size, step):
        ys = y[near[i:i + step]]
        s = (g / np.sqrt(1.0 + c * (0.5 / ys))).sum(axis=0)
        out[near[i:i + step]] = cmath.exp(0.5j * phi) * s / np.sqrt(2.0 * ys)
    if far.any():
        yf = y[far]
        out[far] = np.sqrt(0.5 * math.pi / yf) * _horner(_K0_ASYMPTOTIC, 1.0 / yf)
    return out


def hankel_pair(z) -> tuple[np.ndarray, np.ndarray]:
    """The scaled Hankel pair (h1e, h2e) = (H0^(1)(z) e^{-iz}, H0^(2)(z) e^{iz})
    at an array of points z with Re z >= 2.5 and Im z >= 0, such as the
    ray t0 + i tau; no input validation."""
    z = np.asarray(z, dtype=complex)
    scale = 2.0 / (math.pi * 1j)
    return (scale * _k0e_complex(-1j * z, -0.25 * math.pi),
            -scale * _k0e_complex(1j * z, 0.25 * math.pi))


def j0m1(t):
    """``J0(t) - 1`` by its power series, for an array of t in [0, 4]; no
    input validation."""
    x = 0.25 * np.asarray(t, dtype=float) ** 2
    return x * _horner(_J0M1_SERIES, x)
