"""Verification engines for the main evaluator, of two kinds.

The independent oracles share no code path with the piecewise
Bessel-product method: exact closed-walk moments (``moments``) feed a
large-|omega| Laurent series (``laurent_green``), the 1d chain has a closed
form (``g1_closed_form``), the defining Brillouin-zone integral can be
brute-forced at finite broadening (``bz_bruteforce``), and the oscillatory
Bessel-J Fourier integral gives a coarse few-digit cross-check
(``bessel_j_fourier``).

The identity checks integrate the evaluator's own density of states, so
they test it against itself: its normalization (``dos_normalization``), its
even moments (``dos_moment``, against the exact ones), its
Lorentzian-broadened spectral form (``lorentz_broadened``, against the
brute force), and dimension addition A_{d1+d2} = A_{d1} * A_{d2}
(``dos_convolution``).  Each of them is one band integral,
``_band_integral``, except a convolution with a 1d factor, which
integrates that factor's closed form exactly.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import check_dimension
from .errors import DomainError, TruncationTooCoarseError
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


@dataclass(frozen=True)
class MomentTable:
    """Exact even moments m_{2k} = W_d(2k)/4^k of the density of states,
    where W_d(2k) counts closed 2k-step walks on the d-dimensional lattice."""

    d: int
    moments: tuple[Fraction, ...]


def _walk_counts(d: int, kmax: int) -> list[int]:
    # W_d(2k) by exact convolution over dimensions:
    # W_d(2k) = sum_j C(2k, 2j) W_1(2j) W_{d-1}(2k-2j), W_1(2j) = C(2j, j).
    w = [math.comb(2 * k, k) for k in range(kmax + 1)]
    for _ in range(d - 1):
        w = [
            sum(
                math.comb(2 * k, 2 * j) * math.comb(2 * j, j) * w[k - j]
                for j in range(k + 1)
            )
            for k in range(kmax + 1)
        ]
    return w


def moments(d: int, kmax: int) -> MomentTable:
    """Exact rational moments m_{2k} for k = 0..kmax."""
    d = check_dimension(d)
    if (not isinstance(kmax, numbers.Integral) or isinstance(kmax, bool)
            or not 0 <= kmax <= _MAX_KMAX):
        raise DomainError(f"kmax must be in [0, {_MAX_KMAX}], got {kmax!r}")
    kmax = int(kmax)
    counts = _walk_counts(d, kmax)
    return MomentTable(
        d=d, moments=tuple(Fraction(w, 4**k) for k, w in enumerate(counts))
    )


def laurent_truncation_bound(d: int, omega: float, kmax: int) -> float:
    """Geometric-tail bound on the omitted terms of the Laurent series.

    Valid because consecutive moment ratios are bounded by d^2 (moments of a
    spectral variable supported on [-d, d])."""
    table = moments(d, kmax)
    ratio = (d / omega) ** 2
    return float(
        table.moments[kmax] * abs(omega) ** (-2 * kmax - 1) * ratio / (1.0 - ratio)
    )


def laurent_green(d: int, omega: float, kmax: int) -> complex:
    """Large-|omega| series sum_k m_{2k} omega^{-2k-1}; real outside the band."""
    if abs(omega) <= d:
        raise DomainError(
            f"Laurent series diverges for |omega| <= d, got omega={omega}, d={d}"
        )
    table = moments(d, kmax)
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
    omega = float(omega)
    if abs(omega) == 1.0:
        raise DomainError("G_1 diverges at the band edges omega = +-1")
    if abs(omega) > 1.0:
        return complex(math.copysign(1.0 / math.sqrt(omega * omega - 1.0), omega), 0.0)
    return complex(0.0, -1.0 / math.sqrt(1.0 - omega * omega))


def _a1(x):
    return 1.0 / (np.pi * np.sqrt(1.0 - x * x))


def _van_hove_points(d: int) -> list[float]:
    return [float(-d + 2 * n) for n in range(d + 1)]


def _breakpoints(lo: float, hi: float, interior: list[float]) -> list[float]:
    pts = [lo] + sorted(p for p in interior if lo < p < hi) + [hi]
    out = [pts[0]]
    for p in pts[1:]:
        if p - out[-1] > 1e-12:
            out.append(p)
    return out


# Margin kept between quadrature subintervals and frequencies where a d = 2
# density of states is singular; the omitted spectral mass is O(margin) for
# its finite or logarithmic behaviour there, far below the tested tolerances.
_SING_MARGIN = 1e-9

# For d = 1 a band integral runs in x = sin(theta); theta stays this far from
# +-pi/2, where the theta resolution of x is quadratic, so that x stays
# outside the snap zone of the band edges.
_THETA_MARGIN = 8e-7


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
    hi: float | None = None, cuts=(), singular_cuts: bool = False,
) -> complex:
    """The integral of A_d(x) h(x) over [lo, hi], the band by default, with
    A_d from the evaluator's own sweep.

    ``h`` maps an array of frequencies to its values.  The range is split at
    the van Hove frequencies of d and at ``cuts``, where h may have kinks.
    A breakpoint keeps ``_SING_MARGIN`` only where a factor is singular: at
    a van Hove frequency of d = 2 or, with ``singular_cuts``, at a cut.  For
    d = 1 the integral runs in x = sin(theta), which removes the
    inverse-square-root edges of A_1.
    """
    d = check_dimension(d)
    cfg = cfg or QuadratureConfig.fast()
    inner = _inner(cfg)
    lo = -float(d) if lo is None else lo
    hi = float(d) if hi is None else hi
    van_hove = _van_hove_points(d)
    singular = (van_hove if d == 2 else []) + (list(cuts) if singular_cuts else [])

    def margin(p):
        return _SING_MARGIN if any(abs(p - s) <= 2.0 * _SING_MARGIN for s in singular) else 0.0

    def in_x(x):
        return _dos_grid(d, x, inner) * h(x)

    pts = _breakpoints(lo, hi, van_hove + list(cuts))
    ends = np.array([(a + margin(a), b - margin(b)) for a, b in zip(pts, pts[1:])])
    g = in_x
    if d == 1:
        top = 0.5 * math.pi - _THETA_MARGIN
        ends = np.clip(np.arcsin(ends), -top, top)

        def g(th):  # A_1(x) dx = A_1(sin(theta)) cos(theta) d(theta)
            return in_x(np.sin(th)) * np.cos(th)

    total = 0.0 + 0.0j
    for a, b in ends.tolist():
        if a < b:  # a subinterval inside the margins of its ends is omitted
            total += integrate_finite(g, a, b, cfg).value
    return total


def dos_convolution(
    d1: int, d2: int, omega: float, cfg: QuadratureConfig | None = None
) -> float:
    """A_{d1+d2}(omega) as the convolution integral of A_{d1} and A_{d2}.

    A 1d factor is integrated in the variable x = sin(theta), where its
    closed form A_1(x) dx = d(theta)/pi is exact; remaining interior van
    Hove points of the other factor become subinterval endpoints handled by
    tanh-sinh.  Two factors with d >= 2 are one band integral of A_{d1}
    against A_{d2}(omega - x), both from the evaluator.
    """
    d1, d2 = check_dimension(d1), check_dimension(d2)
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
            d1, lambda x: _dos_grid(d2, omega - x, inner), cfg, lo, hi, cuts,
            singular_cuts=d2 == 2,
        ).real

    def a2(x):
        if d2 == 1:
            return np.asarray([_a1(v) for v in np.atleast_1d(x)])
        return _dos_grid(d2, x, inner)

    # x = sin(theta); A_1(x) dx = d(theta)/pi.  Outer edges only need a
    # margin when a singular frequency of the other factor sits on them.
    # A closed-form second factor has no van Hove snap zone, so the
    # clearance only needs to prevent an exact singular evaluation; its
    # inverse-square-root cuts would otherwise lose ~sqrt(margin) mass
    cut_margin = 1e-13 if d2 == 1 else _SING_MARGIN

    def edge_margin_theta(edge):
        if not any(abs(c - edge) <= 1e-6 for c in cuts):
            return 0.0
        # at |x| = 1 the theta resolution of x is quadratic, so a larger
        # clearance is needed to stay out of the snap zone
        return _THETA_MARGIN if abs(edge) >= 1.0 - 1e-6 else 2.0 * cut_margin

    tlo, thi = math.asin(lo) + edge_margin_theta(lo), math.asin(hi) - edge_margin_theta(hi)
    tcuts = [math.asin(c) for c in cuts if lo < c < hi]
    pts = _breakpoints(tlo, thi, tcuts)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        ma = cut_margin if a not in (tlo, thi) else 0.0
        mb = cut_margin if b not in (tlo, thi) else 0.0
        r = integrate_finite(
            lambda th: a2(omega - np.sin(th)) / math.pi,
            a + ma, b - mb, cfg,
        )
        total += r.value.real
    return total


def dos_normalization(d: int, cfg: QuadratureConfig | None = None) -> float:
    """Total spectral weight of A_d; equals 1 for every d."""
    return _band_integral(d, lambda _x: 1.0, cfg).real


def dos_moment(d: int, k: int, cfg: QuadratureConfig | None = None) -> float:
    """Numerical even moment integral of omega^{2k} against A_d."""
    return _band_integral(d, lambda x: x ** (2 * k), cfg).real


def bz_bruteforce(d: int, omega: float, eta: float, n: int) -> complex:
    """Midpoint-rule Brillouin-zone estimate of G_d(omega + i*eta).

    A coarse oracle: converges to the broadened Green function as n grows,
    so quantitative comparisons should broaden the reference by the same
    Lorentzian kernel."""
    d = check_dimension(d)
    if d > 3:
        raise DomainError("brute force supported for d in {1, 2, 3} only")
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 64:
        raise DomainError(f"need an integer of at least 64 grid points per axis, got {n!r}")
    if not eta > 0.0:
        raise DomainError("eta must be positive")
    k = (np.arange(n) + 0.5) * (math.pi / n)
    c = np.cos(k)
    z = complex(omega, eta)
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
    z = complex(omega, eta)
    return _band_integral(d, lambda x: 1.0 / (z - x), cfg)


def bessel_j_fourier(
    d: int, omega: float, tmax: float, n: int, tol: float = 1e-3
) -> complex:
    """Truncated oscillatory form -i * integral of e^{i omega t} J0(t)^d.

    Accuracy is limited to a few digits by the oscillations; the absolute
    tail bound |J0(t)|^d <= (2/(pi t))^{d/2} must fall below tol at tmax."""
    d = check_dimension(d)
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
    return -1j * (h / 3.0) * acc
