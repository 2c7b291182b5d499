"""Independent verification engines for the main evaluator.

None of these share code paths with the piecewise Bessel-product method:
exact closed-walk moments feed a large-|omega| Laurent series, the 1d chain
has a closed form, dimensions add under convolution of the densities of
states, the defining Brillouin-zone integral can be brute-forced at finite
broadening, and the oscillatory Bessel-J Fourier integral gives a coarse
few-digit cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not 0 <= kmax <= _MAX_KMAX:
        raise DomainError(f"kmax must be in [0, {_MAX_KMAX}], got {kmax}")
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


# Margin kept between quadrature subintervals and frequencies where a d <= 2
# density of states is singular; the omitted spectral mass is O(margin) for
# finite or logarithmic behaviour, far below the tested tolerances.
_SING_MARGIN = 1e-9


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


def dos_convolution(
    d1: int, d2: int, omega: float, cfg: QuadratureConfig | None = None
) -> float:
    """A_{d1+d2}(omega) as the convolution integral of A_{d1} and A_{d2}.

    A 1d factor is integrated in the variable x = sin(theta), which removes
    its inverse-square-root edge singularities analytically; remaining
    interior van Hove points of the other factor become subinterval
    endpoints handled by tanh-sinh.
    """
    cfg = cfg or QuadratureConfig.fast()
    inner = _inner(cfg)
    if d1 < 1 or d2 < 1:
        raise DomainError("both dimensions must be >= 1")
    if d2 == 1 and d1 != 1:
        d1, d2 = d2, d1  # put the closed-form factor first
    lo = max(-float(d1), omega - d2)
    hi = min(float(d1), omega + d2)
    if lo >= hi:
        return 0.0

    def a2(x):
        if d2 == 1:
            return np.asarray([_a1(v) for v in np.atleast_1d(x)])
        return _dos_grid(d2, x, inner)

    total = 0.0
    if d1 == 1:
        # x = sin(theta); A_1(x) dx = d(theta)/pi.  Outer edges only need a
        # margin when a singular frequency of the other factor sits on them.
        cuts = [omega - v for v in _van_hove_points(d2)]
        # a closed-form second factor has no van Hove snap zone, so the
        # clearance only needs to prevent an exact singular evaluation; its
        # inverse-square-root cuts would otherwise lose ~sqrt(margin) mass
        cut_margin = 1e-13 if d2 == 1 else _SING_MARGIN

        def edge_margin_theta(edge):
            if not any(abs(c - edge) <= 1e-6 for c in cuts):
                return 0.0
            # at |x| = 1 the theta resolution of x is quadratic, so a larger
            # clearance is needed to stay out of the snap zone
            return 8e-7 if abs(edge) >= 1.0 - 1e-6 else 2.0 * cut_margin

        mlo = edge_margin_theta(lo)
        mhi = edge_margin_theta(hi)
        tlo, thi = math.asin(lo) + mlo, math.asin(hi) - mhi
        tcuts = [math.asin(c) for c in cuts if lo < c < hi]
        pts = _breakpoints(tlo, thi, tcuts)
        for a, b in zip(pts, pts[1:]):
            ma = cut_margin if a not in (tlo, thi) else 0.0
            mb = cut_margin if b not in (tlo, thi) else 0.0
            r = integrate_finite(
                lambda th: a2(omega - np.sin(th)) / math.pi,
                a + ma, b - mb, cfg,
            )
            total += r.value.real
        return total

    interior = _van_hove_points(d1) + [omega - v for v in _van_hove_points(d2)]
    pts = _breakpoints(lo, hi, interior)
    for a, b in zip(pts, pts[1:]):
        r = integrate_finite(
            lambda x: _dos_grid(d1, x, inner) * a2(omega - np.atleast_1d(x)),
            a + _SING_MARGIN,
            b - _SING_MARGIN,
            cfg,
        )
        total += r.value.real
    return total


def dos_weighted_integral(
    d: int, weight, cfg: QuadratureConfig | None = None, edge_margin: float = 1e-9
) -> float:
    """Piecewise integral of weight(omega)*A_d(omega) over the band, split at
    the van Hove frequencies.

    For d = 1 the integration runs in omega = sin(theta) so the edge
    divergence disappears; for d = 2 a margin is kept away from the exact
    singular frequencies (the omitted mass is far below the tested
    tolerances)."""
    cfg = cfg or QuadratureConfig.fast()
    inner = _inner(cfg)

    def weights(x):
        return np.asarray([weight(float(v)) for v in x])

    if d == 1:
        theta_max = 0.5 * math.pi - 8e-7  # keeps sin(theta) off the snap zone

        def g(th):
            th = np.atleast_1d(th)
            x = np.sin(th)
            return _dos_grid(1, x, inner) * weights(x) * np.cos(th)

        total = 0.0
        for a, b in ((-theta_max, 0.0), (0.0, theta_max)):
            total += integrate_finite(g, a, b, cfg).value.real
        return total

    margin = edge_margin if d == 2 else 0.0

    def g(x):
        return _dos_grid(d, x, inner) * weights(np.atleast_1d(x))

    total = 0.0
    pts = _van_hove_points(d)
    for a, b in zip(pts, pts[1:]):
        a, b = a + margin, b - margin
        total += integrate_finite(g, a, b, cfg).value.real
    return total


def dos_normalization(d: int, cfg: QuadratureConfig | None = None) -> float:
    """Total spectral weight of A_d; equals 1 for every d."""
    return dos_weighted_integral(d, lambda _x: 1.0, cfg)


def dos_moment(d: int, k: int, cfg: QuadratureConfig | None = None) -> float:
    """Numerical even moment integral of omega^{2k} against A_d."""
    return dos_weighted_integral(d, lambda x: x ** (2 * k), cfg)


def bz_bruteforce(d: int, omega: float, eta: float, n: int) -> complex:
    """Midpoint-rule Brillouin-zone estimate of G_d(omega + i*eta).

    A coarse oracle: converges to the broadened Green function as n grows,
    so quantitative comparisons should broaden the reference by the same
    Lorentzian kernel."""
    if d not in (1, 2, 3):
        raise DomainError("brute force supported for d in {1, 2, 3} only")
    if n < 64:
        raise DomainError("need at least 64 grid points per axis")
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
    cfg = cfg or QuadratureConfig.fast()
    inner = _inner(cfg)
    z = complex(omega, eta)
    total = 0.0 + 0.0j
    pts = _van_hove_points(d)
    margin = _SING_MARGIN if d <= 2 else 0.0
    for a, b in zip(pts, pts[1:]):
        r = integrate_finite(
            lambda x: _dos_grid(d, x, inner) / (z - np.atleast_1d(x)),
            a + margin,
            b - margin,
            cfg,
        )
        total += r.value
    return total


def bessel_j_fourier(
    d: int, omega: float, tmax: float, n: int, tol: float = 1e-3
) -> complex:
    """Truncated oscillatory form -i * integral of e^{i omega t} J0(t)^d.

    Accuracy is limited to a few digits by the oscillations; the absolute
    tail bound |J0(t)|^d <= (2/(pi t))^{d/2} must fall below tol at tmax."""
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
