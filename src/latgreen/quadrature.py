"""Double-exponential quadrature for (0, inf) with endpoint log singularities.

One rule, tanh-sinh, serves both parts of an integral over (0, inf):

* on ``(0, split_point]`` it integrates the |ln tau|^d endpoint behaviour at
  spectral accuracy;
* on ``[split_point, inf)`` it runs after the substitution
  ``tau = split_point/u``, which maps the tail to ``(0, 1]``: an exponential
  tail vanishes faster than any power as u -> 0, and the u^{d/2-2} endpoint
  behaviour of a power-law tail is integrable for d >= 3.

Every node therefore depends only on the level and ``split_point``, never
on the integrand.

Levels halve the step of the underlying trapezoidal sum and reuse all
previous evaluations.  The error estimate is the difference of the last two
levels with a floor of one ulp; in addition the running L1 sum of sampled
magnitudes provides a roundoff floor ``~eps * integral(|f|)``, which is what
limits attainable accuracy for the strongly cancelling large-d integrands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError
from .integrand import TailClass, TailKind

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_semiinfinite",
    "integrate_finite",
]

_EPS = 2.220446049250313e-16

# Node generation limit: |v| = (pi/2)sinh|u| capped so that e^{-2v} stays
# normal.
_TS_UMAX = 6.08
_BASE_H = 1.0

_ts_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-13
    abs_tol: float = 1e-15
    max_levels: int = 12
    split_point: float = 1.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_levels < 3:
            raise ValueError("max_levels must be >= 3")
        if not (self.split_point > 0.0 and math.isfinite(self.split_point)):
            raise ValueError("split_point must be positive and finite")

    @classmethod
    def fast(cls) -> "QuadratureConfig":
        """Loose preset for large-d sweeps and expensive nested integrals."""
        return cls(rel_tol=1e-8, abs_tol=1e-10, max_levels=10)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool


def _new_us(level: int) -> np.ndarray:
    # new trapezoidal abscissae introduced at this refinement level
    h = _BASE_H / 2**level
    if level == 0:
        n = int(math.floor(_TS_UMAX / h))
        return h * np.arange(-n, n + 1)
    ks = np.arange(1, int(math.floor(_TS_UMAX / h)) + 1, 2)
    return np.concatenate((-h * ks[::-1], h * ks))


def _ts_nodes(level: int):
    """Tanh-sinh nodes on (0, 1): (alpha, 1-alpha, weight), both ends stable."""
    cached = _ts_cache.get(level)
    if cached is not None:
        return cached
    u = _new_us(level)
    v = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(v))
    lo = e / (1.0 + e)          # distance to the nearer endpoint
    hi = 1.0 / (1.0 + e)
    alpha = np.where(v < 0, lo, hi)
    alphac = np.where(v < 0, hi, lo)
    w = 0.25 * math.pi * np.cosh(u) * 4.0 * e / (1.0 + e) ** 2
    keep = (alpha > 0) & (alphac > 0) & (w > 0)
    nodes = (alpha[keep], alphac[keep], w[keep])
    _ts_cache.setdefault(level, nodes)
    return nodes


def _refine(level_terms, cfg: QuadratureConfig) -> QuadratureResult:
    """Run the level loop.

    ``level_terms(level)`` returns (sum of w*f, sum of |w*f|, count) over the
    nodes new at that level, without the step factor.
    """
    total = 0.0 + 0.0j
    l1 = 0.0
    evals = 0
    prev = None
    err = math.inf
    value = 0.0 + 0.0j
    for level in range(cfg.max_levels + 1):
        s, a, n = level_terms(level)
        total += s
        l1 += a
        evals += n
        h = _BASE_H / 2**level
        value = h * total
        if prev is not None:
            err = abs(value - prev)
            floor = 2.0 * _EPS * h * l1
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
            # once err is within a small factor of the cancellation floor,
            # further refinement cannot improve the attainable accuracy
            if level >= 2 and err <= max(tol, 4.0 * floor):
                break
        prev = value
    floor = 2.0 * _EPS * (_BASE_H / 2**level) * l1
    est = max(err if math.isfinite(err) else 0.0, floor, _EPS * abs(value))
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return QuadratureResult(
        value=complex(value),
        abs_error_estimate=est,
        evaluations=evals,
        converged=bool(est <= tol),
    )


def _tanh_sinh(g, cfg: QuadratureConfig) -> QuadratureResult:
    # integral of g over the open unit interval; g(alpha, alphac) -> values
    def level_terms(level):
        alpha, alphac, w = _ts_nodes(level)
        vals = w * np.asarray(g(alpha, alphac))
        return vals.sum(), np.abs(vals).sum(), alpha.size

    return _refine(level_terms, cfg)


def _combine(*parts: QuadratureResult) -> QuadratureResult:
    return QuadratureResult(
        value=sum(p.value for p in parts),
        abs_error_estimate=sum(p.abs_error_estimate for p in parts),
        evaluations=sum(p.evaluations for p in parts),
        converged=all(p.converged for p in parts),
    )


def integrate_finite(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Tanh-sinh integral of f over [a, b], tolerant of integrable endpoint
    singularities.  Nodes near either endpoint are placed by their distance
    to that endpoint, so the singular behaviour is sampled accurately."""
    cfg = cfg or QuadratureConfig()
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    span = b - a

    def g(alpha, alphac):
        x = np.where(alpha <= 0.5, a + span * alpha, b - span * alphac)
        return span * np.asarray(f(x))

    return _tanh_sinh(g, cfg)


def integrate_semiinfinite(f, tail: TailClass, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integral of f over (0, inf); ``tail`` only decides whether it exists.

    Raises DivergentIntegralError for a divergent tail; a non-converged
    result is returned with ``converged=False`` rather than raised.
    """
    cfg = cfg or QuadratureConfig()
    if tail.kind is TailKind.DIVERGENT:
        raise DivergentIntegralError("integrand has a non-integrable tail")
    s = cfg.split_point

    def g_head(alpha, alphac):
        return s * np.asarray(f(s * alpha))

    head = _tanh_sinh(g_head, cfg)

    # tau = s/u maps [s, inf) to (0, 1]; evaluated as (f*tau)/u to keep
    # every intermediate in range.
    def g_tail(alpha, alphac):
        tau = s / alpha
        return (np.asarray(f(tau)) * tau) / alpha

    return _combine(head, _tanh_sinh(g_tail, cfg))
