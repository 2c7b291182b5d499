"""Verification engines for the main evaluator, of two kinds.

The independent oracles share no code path with the piecewise
Bessel-product method: exact closed-walk moments (``moments``, one
O(kmax^2) recurrence at any d) feed a large-|omega| Laurent series
(``laurent_green``), the 1d chain has a closed form (``g1_closed_form``),
the defining Brillouin-zone integral can be brute-forced at finite
broadening (``bz_bruteforce``), and the oscillatory Bessel-J Fourier
integral gives a coarse few-digit cross-check (``bessel_j_fourier``).

The identity checks integrate the evaluator's own density of states, so
they test it against itself: its normalization (``dos_normalization``), its
even moments (``dos_moment``, against the exact ones), its
Lorentzian-broadened spectral form (``lorentz_broadened``, against the
brute force), and dimension addition A_{d1+d2} = A_{d1} * A_{d2}
(``dos_convolution``).  Each of them is one band integral,
``_band_integral``, except a convolution with a 1d factor, which
integrates that factor's closed form exactly.  Both split the range at the
van Hove frequencies of their factors, and ``_ends`` keeps an end clear,
by a few ulps (``_clearance``), only of a frequency where a factor is
singular: a van Hove frequency of a d <= 2 factor.

Every argument passes the package's one input rule (``errors.check_integer``
and ``errors.check_real``), so an oracle raises ``DomainError`` for a NaN,
an infinity, a bool or a string rather than return a number.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TruncationTooCoarseError, check_integer, check_real
from .green import dos_from_result, green_sweep
from .quadrature import QuadratureConfig, integrate_finite

__all__ = [
    "MomentTable",
    "moments",
    "laurent_green",
    "laurent_truncation_bound",
    "g1_closed_form",
    "dos_convolution",
    "dos_normalization",
    "dos_moment",
    "bz_bruteforce",
    "bessel_j_fourier",
    "lorentz_broadened",
]

_MAX_KMAX = 200


def _check_outside_band(d: int, omega: float) -> float:
    omega = check_real("omega", omega)
    if not abs(omega) > d:
        raise DomainError(
            f"Laurent series diverges for |omega| <= d, got omega={omega}, d={d}"
        )
    return omega


class MomentTable(NamedTuple):
    """Exact even moments m_{2k} = W_d(2k)/4^k of the density of states,
    where W_d(2k) counts closed 2k-step walks on the d-dimensional lattice."""

    d: int
    moments: tuple[Fraction, ...]


def _walk_counts(d: int, kmax: int) -> list[int]:
    # W_d(2n) = C(2n, n) G_n, G_n = (n!)^2 [y^n] I0(2 sqrt(y))^d.  The power
    # rule for power series (Knuth, TAOCP vol. 2, 4.7), scaled to integers:
    # n G_n = sum_{k=1..n} ((d + 1) k - n) C(n, k)^2 G_{n-k}, G_0 = 1, with
    # an exact division by n.
    g = [1]
    for n in range(1, kmax + 1):
        g.append(sum(((d + 1) * k - n) * math.comb(n, k) ** 2 * g[n - k]
                     for k in range(1, n + 1)) // n)
    return [math.comb(2 * n, n) * gn for n, gn in enumerate(g)]


def moments(d: int, kmax: int) -> MomentTable:
    """Exact rational moments m_{2k} for k = 0..kmax, by one integer
    recurrence in k at O(kmax^2) cost for any d (``_walk_counts``)."""
    d = check_integer("d", d, 1)
    kmax = check_integer("kmax", kmax, 0, _MAX_KMAX)
    counts = _walk_counts(d, kmax)
    return MomentTable(
        d=d, moments=tuple(Fraction(w, 4**k) for k, w in enumerate(counts))
    )


def laurent_truncation_bound(d: int, omega: float, kmax: int) -> float:
    """Geometric-tail bound on the omitted terms of the Laurent series.

    Valid because consecutive moment ratios are bounded by d^2 (moments of a
    spectral variable supported on [-d, d]); formed exactly and rounded up,
    so that it stays a bound where its factors leave the double range."""
    table = moments(d, kmax)
    w = abs(Fraction(_check_outside_band(d, omega)))
    bound = table.moments[kmax] * d * d / (w ** (2 * kmax + 1) * (w * w - d * d))
    out = float(bound)
    return out if out >= bound else math.nextafter(out, math.inf)


def laurent_green(d: int, omega: float, kmax: int) -> complex:
    """Large-|omega| series sum_k m_{2k} omega^{-2k-1}; real outside the band."""
    table = moments(d, kmax)
    omega = _check_outside_band(d, omega)
    w = Fraction(omega)
    winv2 = 1 / (w * w)
    acc = Fraction(0)
    p = 1 / w
    for m in table.moments:
        acc += m * p
        p *= winv2
    return complex(float(acc), 0.0)


def g1_closed_form(omega: float) -> complex:
    """Closed form for the chain: 1/sqrt(omega^2-1) outside the band with
    odd real part, -i/sqrt(1-omega^2) inside (retarded, Im <= 0)."""
    omega = check_real("omega", omega)
    a = abs(omega)
    if a == 1.0:
        raise DomainError("G_1 diverges at the band edges omega = +-1")
    if a > 1.0:
        return complex(math.copysign(1.0 / math.sqrt((a - 1.0) * (a + 1.0)), omega), 0.0)
    return complex(0.0, -1.0 / math.sqrt((1.0 - omega) * (1.0 + omega)))


def _a1(x):
    return 1.0 / (np.pi * np.sqrt((1.0 - x) * (1.0 + x)))


def _van_hove_points(d: int) -> list[float]:
    return [float(-d + 2 * n) for n in range(d + 1)]


def _clearance(d: int) -> float:
    # The x clearance an integration end keeps from a van Hove frequency of a
    # factor of dimension d, the evaluator's or the chain's closed form: a
    # few ulps, so that no node lands on a frequency where a d <= 2 factor
    # diverges.  A d >= 3 factor is finite there and keeps none.
    return 4.0 * np.finfo(float).eps * max(1, d) if d <= 2 else 0.0


def _ends(lo: float, hi: float, stops) -> list[tuple[float, float]]:
    """The subintervals of [lo, hi] split at every frequency of ``stops``, a
    list of (frequency, clearance) pairs.

    An end keeps its clearance from every stop beyond it, not only from the
    one it sits on; a subinterval that the clearances close is omitted.
    Only exact duplicates merge, so every stop inside [lo, hi] is an end.
    """
    pts = sorted({lo, hi, *(s for s, _ in stops if lo < s < hi)})
    out = []
    for a, b in zip(pts, pts[1:]):
        a = max([a] + [s + c for s, c in stops if s <= a])
        b = min([b] + [s - c for s, c in stops if s >= b])
        if a < b:
            out.append((a, b))
    return out


def _dos_grid(d: int, x, cfg: QuadratureConfig) -> np.ndarray:
    # A_d at every frequency of x (the nodes of an outer integral), as one sweep
    return np.asarray([dos_from_result(r) for r in green_sweep(d, np.atleast_1d(x), cfg)])


def _inner(cfg: QuadratureConfig) -> QuadratureConfig:
    # tolerance for the pointwise Green-function calls feeding an outer
    # integral: two orders tighter so pointwise noise does not accumulate
    return QuadratureConfig(
        rel_tol=max(cfg.rel_tol * 1e-2, 1e-14),
        abs_tol=max(cfg.abs_tol * 1e-2, 1e-15),
        max_levels=cfg.max_levels,
    )


def _band_integral(
    d: int, h, cfg: QuadratureConfig | None = None, lo: float | None = None,
    hi: float | None = None, cuts=(), cut_d: int | None = None,
) -> complex:
    """The integral of A_d(x) h(x) over [lo, hi], the band by default, with
    A_d from the evaluator's own sweep.

    ``h`` maps an array of frequencies to its values.  The range is split at
    the van Hove frequencies of d and at ``cuts``, the van Hove frequencies
    of a factor of dimension ``cut_d`` inside h.  An end keeps the
    ``_clearance`` of each factor from its singular frequencies and none
    elsewhere.  For d = 1 the integral runs in x = sin(theta), which removes
    the inverse-square-root edges of A_1.
    """
    d = check_integer("d", d, 1)
    cfg = cfg or QuadratureConfig.fast()
    inner = _inner(cfg)
    lo = -float(d) if lo is None else lo
    hi = float(d) if hi is None else hi
    stops = [(v, _clearance(d)) for v in _van_hove_points(d)]
    ends = _ends(lo, hi, stops + [(c, _clearance(cut_d)) for c in cuts])

    def in_x(x):
        return _dos_grid(d, x, inner) * h(x)

    g = in_x
    if d == 1:
        ends = np.arcsin(ends).tolist()

        def g(th):  # A_1(x) dx = A_1(sin(theta)) cos(theta) d(theta)
            return in_x(np.sin(th)) * np.cos(th)

    return sum((integrate_finite(g, a, b, cfg).value for a, b in ends), 0j)


def dos_convolution(
    d1: int, d2: int, omega: float, cfg: QuadratureConfig | None = None
) -> float:
    """A_{d1+d2}(omega) as the convolution integral of A_{d1} and A_{d2}.

    A 1d factor is integrated in the variable x = sin(theta), where its
    closed form A_1(x) dx = d(theta)/pi is exact; the van Hove frequencies
    of the other factor split the range, and the ends from ``_ends`` are
    mapped to theta.  Two factors with d >= 2 are one band integral of
    A_{d1} against A_{d2}(omega - x), both from the evaluator.
    """
    d1, d2 = check_integer("d1", d1, 1), check_integer("d2", d2, 1)
    omega = check_real("omega", omega)
    cfg = cfg or QuadratureConfig.fast()
    inner = _inner(cfg)
    if d2 == 1 and d1 != 1:
        d1, d2 = d2, d1  # put the closed-form factor first
    lo = max(-float(d1), omega - d2)
    hi = min(float(d1), omega + d2)
    if lo >= hi:
        return 0.0
    cuts = [omega - v for v in _van_hove_points(d2)]

    if d1 >= 2:
        return _band_integral(
            d1, lambda x: _dos_grid(d2, omega - x, inner), cfg, lo, hi, cuts, d2
        ).real

    # x = sin(theta), where A_1(x) dx = d(theta)/pi; a chain second factor
    # is its closed form too
    a2 = _a1 if d2 == 1 else (lambda y: _dos_grid(d2, y, inner))

    def g(th):
        return a2(omega - np.sin(th)) / math.pi

    ends = np.arcsin(_ends(lo, hi, [(c, _clearance(d2)) for c in cuts])).tolist()
    return sum((integrate_finite(g, a, b, cfg).value.real for a, b in ends), 0.0)


def dos_normalization(d: int, cfg: QuadratureConfig | None = None) -> float:
    """Total spectral weight of A_d; equals 1 for every d."""
    return _band_integral(d, lambda _x: 1.0, cfg).real


def dos_moment(d: int, k: int, cfg: QuadratureConfig | None = None) -> float:
    """Numerical even moment integral of omega^{2k} against A_d."""
    k = check_integer("k", k, 0)
    return _band_integral(d, lambda x: x ** (2 * k), cfg).real


def bz_bruteforce(d: int, omega: float, eta: float, n: int) -> complex:
    """Midpoint-rule Brillouin-zone estimate of G_d(omega + i*eta).

    A coarse oracle: converges to the broadened Green function as n grows,
    so quantitative comparisons should broaden the reference by the same
    Lorentzian kernel."""
    d = check_integer("d", d, 1, 3)
    n = check_integer("n", n, 64)
    z = complex(check_real("omega", omega), check_real("eta", eta, 0.0, strict=True))
    k = (np.arange(n) + 0.5) * (math.pi / n)
    c = np.cos(k)
    if d == 1:
        return complex(np.mean(1.0 / (z - c)))
    if d == 2:
        return complex(np.mean(1.0 / (z - (c[:, None] + c[None, :]))))
    acc = 0.0 + 0.0j
    for ci in c:  # chunk the outermost axis to bound memory
        acc += np.mean(1.0 / (z - ci - (c[:, None] + c[None, :])))
    return complex(acc / n)


def lorentz_broadened(
    d: int, omega: float, eta: float, cfg: QuadratureConfig | None = None
) -> complex:
    """G_d(omega + i*eta) from the method's own DOS via the spectral
    representation; the comparison target for bz_bruteforce."""
    z = complex(check_real("omega", omega), check_real("eta", eta, 0.0, strict=True))
    return _band_integral(d, lambda x: 1.0 / (z - x), cfg)


def bessel_j_fourier(
    d: int, omega: float, tmax: float, n: int, tol: float = 1e-3
) -> complex:
    """Truncated oscillatory form -i * integral of e^{i omega t} J0(t)^d.

    Accuracy is limited to a few digits by the oscillations; the absolute
    tail bound |J0(t)|^d <= (2/(pi t))^{d/2} must fall below tol at tmax."""
    d = check_integer("d", d, 1)
    n = check_integer("n", n, 1)
    tmax = check_real("tmax", tmax, 0.0, strict=True)
    omega = check_real("omega", omega)
    tol = check_real("tol", tol, 0.0, strict=True)
    if d < 3:
        raise TruncationTooCoarseError(
            "the |J0|^d tail bound is not integrable for d < 3"
        )
    tail_bound = (2.0 / math.pi) ** (d / 2.0) * tmax ** (1.0 - d / 2.0) / (
        d / 2.0 - 1.0
    )
    if tail_bound > tol:
        raise TruncationTooCoarseError(
            f"tail bound {tail_bound:.3e} exceeds tolerance {tol:.1e}; "
            f"increase tmax"
        )
    # scipy is imported here, its only use, so that importing latgreen
    # does not pay for scipy.special
    from scipy.special import j0

    if n % 2:
        n += 1
    h = tmax / n
    acc = 0.0 + 0.0j
    chunk = 1_000_000

    def f(t):
        return np.exp(1j * omega * t) * j0(t) ** d

    # composite Simpson, chunked at even indices; chunk-edge samples carry
    # weight 1 from each adjacent chunk (2 in total, as required)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        idx = np.arange(start, stop + 1)
        vals = f(idx * h)
        w = np.where(idx % 2 == 1, 4.0, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        acc += np.sum(w * vals)
    return complex(-1j * (h / 3.0) * acc)
