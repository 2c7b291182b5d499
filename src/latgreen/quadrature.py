"""Double-exponential quadrature for (0, inf) with endpoint log singularities.

One rule, tanh-sinh, serves both parts of an integral over (0, inf):

* on the head ``(0, s]``, s = 1, it integrates the |ln tau|^d endpoint
  behaviour at spectral accuracy;
* on the tail ``[s, inf)`` it runs after the substitution ``tau = s/u``,
  which maps the tail to ``(0, 1]``: an exponential tail vanishes faster
  than any power as u -> 0, and the u^{d/2-2} endpoint behaviour of a
  power-law tail is integrable for d >= 3.

Every node therefore depends only on the level, never on the integrand.

Levels halve the step of the underlying trapezoidal sum and reuse all
previous evaluations.  The error estimate is the difference of the last two
levels with a floor of one ulp; in addition the running L1 sum of sampled
magnitudes provides a roundoff floor ``~eps * integral(|f|)``, which is what
limits attainable accuracy for the strongly cancelling large-d integrands.

One level loop serves many integrals at once, one column each (a frequency
grid; a single integral is one column; the head and the tail of a half-line
integral are two).  Each column stops on its own: by the rule above; when
its floor exceeds its tolerance and its error is within 100 floors, since
it can then only end nonconverged and further levels sample roundoff noise;
or as soon as its sums are not finite, in which case it comes back
nonconverged with an infinite error estimate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError
from .integrand import TailClass, TailKind

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "half_line_nodes",
    "integrate_half_line",
    "integrate_semiinfinite",
    "integrate_finite",
]

_EPS = 2.220446049250313e-16

# Node generation limit: |v| = (pi/2)sinh|u| capped so that e^{-2v} stays
# normal.
_TS_UMAX = 6.08
_BASE_H = 1.0

# Where a half-line integral splits into head (0, s] and tail [s, inf).
_SPLIT = 1.0

# Largest (columns x nodes) block evaluated at once: the active columns of
# a level are split to stay within it, which bounds the memory of a sweep.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-13
    abs_tol: float = 1e-15
    max_levels: int = 12

    def __post_init__(self):
        if not all(0.0 < t < math.inf for t in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be positive and finite")
        if not isinstance(self.max_levels, int) or isinstance(self.max_levels, bool):
            raise ValueError(f"max_levels must be an integer, got {self.max_levels!r}")
        if self.max_levels < 3:
            raise ValueError("max_levels must be >= 3")

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


@functools.lru_cache(maxsize=None)  # one entry per level
def _ts_nodes(level: int):
    """Tanh-sinh nodes on (0, 1): (alpha, 1-alpha, weight), both ends stable."""
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
    for arr in nodes:  # shared by every caller
        arr.flags.writeable = False
    return nodes


def _cabs(z: np.ndarray) -> np.ndarray:
    # |z| elementwise, bitwise equal to the scalar abs(complex); np.abs on a
    # complex array is not
    return np.hypot(z.real, z.imag)


def _tanh_sinh(parts, n: int, cfg: QuadratureConfig) -> list[QuadratureResult]:
    """Run the level loop for n integrals over (0, 1) of each integrand
    family in ``parts`` at once, one column each.

    Column p*n + i is integral i of part p, whose
    ``g(level, alpha, alphac, cols)`` returns the integrands ``cols`` (one
    row each) at the nodes new at that level; no block of columns spans two
    parts.  Each column stops on its own: when it meets the stop rule, when
    its error can no longer fall below the tolerance, or when its sums stop
    being finite.
    """
    n_cols = len(parts) * n
    # per column: value, error, roundoff floor and evaluations at its stop
    value, err, floor = np.empty(n_cols, dtype=complex), np.empty(n_cols), np.empty(n_cols)
    evals, finite = np.empty(n_cols, dtype=int), np.empty(n_cols, dtype=bool)
    # running state of the columns still refining, in the order of ``cols``
    cols = np.arange(n_cols)
    total, l1 = np.zeros(n_cols, dtype=complex), np.zeros(n_cols)
    e = np.full(n_cols, math.inf)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(cfg.max_levels + 1):
            alpha, alphac, w = _ts_nodes(level)
            step = max(1, _BLOCK_ELEMENTS // alpha.size)
            for p, g in enumerate(parts):
                lo, hi = np.searchsorted(cols, (p * n, (p + 1) * n)).tolist()
                for i in range(lo, hi, step):
                    block = slice(i, min(i + step, hi))
                    vals = w * np.atleast_2d(g(level, alpha, alphac, cols[block] - p * n))
                    total[block] += vals.sum(axis=1)
                    l1[block] += np.abs(vals).sum(axis=1)
            count += alpha.size
            h = _BASE_H / 2**level
            v = h * total
            ok = np.isfinite(total) & np.isfinite(l1)
            # a non-finite sum never recovers; it is flagged below
            stop = ~ok
            if level >= 1:
                e = _cabs(v - prev)
            if level >= 2:
                fl = 2.0 * _EPS * h * l1
                tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(v))
                # once err is within a small factor of the cancellation
                # floor, further refinement cannot improve the attainable
                # accuracy; a floor above the tolerance means the column
                # ends nonconverged however long it runs
                stop |= e <= np.maximum(tol, 4.0 * fl)
                stop |= (fl > tol) & (e <= 100.0 * fl)
            if level == cfg.max_levels:
                stop[:] = True
            if stop.any():
                done = cols[stop]
                value[done], err[done], finite[done] = v[stop], e[stop], ok[stop]
                floor[done] = 2.0 * _EPS * h * l1[stop]
                evals[done] = count
                keep = ~stop
                cols, total, l1, v, e = cols[keep], total[keep], l1[keep], v[keep], e[keep]
                if cols.size == 0:
                    break
            prev = v
        est = np.maximum(np.maximum(np.where(np.isfinite(err), err, 0.0), floor),
                         _EPS * _cabs(value))
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(value))
        est[~finite] = math.inf
        converged = finite & (est <= tol)
    return [
        QuadratureResult(
            value=complex(value[i]),
            abs_error_estimate=float(est[i]),
            evaluations=int(evals[i]),
            converged=bool(converged[i]),
        )
        for i in range(n_cols)
    ]


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

    def g(level, alpha, alphac, cols):
        x = np.where(alpha <= 0.5, a + span * alpha, b - span * alphac)
        return span * np.asarray(f(x))

    return _tanh_sinh((g,), 1, cfg)[0]


def half_line_nodes(level: int, tail: bool) -> np.ndarray:
    """The nodes tau new at ``level`` on the head (0, s] or the tail [s, inf)."""
    alpha = _ts_nodes(level)[0]
    return _SPLIT / alpha if tail else _SPLIT * alpha


def integrate_half_line(f, n: int, cfg: QuadratureConfig) -> list[QuadratureResult]:
    """Integrals over (0, inf) of n integrands with integrable tails at once.

    ``f(level, tail, cols)`` returns the integrands ``cols`` (one row each)
    at ``half_line_nodes(level, tail)``.  The head and the tail of integral
    i are columns i and n + i of one level loop, each with its own stop;
    the result is the sum of the two.
    """
    def g_head(level, alpha, alphac, cols):
        return _SPLIT * np.asarray(f(level, False, cols))

    # tau = s/u maps [s, inf) to (0, 1]; evaluated as (f*tau)/u to keep
    # every intermediate in range.
    def g_tail(level, alpha, alphac, cols):
        tau = _SPLIT / alpha
        return (np.asarray(f(level, True, cols)) * tau) / alpha

    parts = _tanh_sinh((g_head, g_tail), n, cfg)
    return [_combine(h, t) for h, t in zip(parts[:n], parts[n:])]


def integrate_semiinfinite(f, tail: TailClass, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integral of f over (0, inf); ``tail`` only decides whether it exists.

    Raises DivergentIntegralError for a divergent tail; a non-converged
    result is returned with ``converged=False`` rather than raised.
    """
    cfg = cfg or QuadratureConfig()
    if tail.kind is TailKind.DIVERGENT:
        raise DivergentIntegralError("integrand has a non-integrable tail")
    return integrate_half_line(
        lambda level, part, cols: f(half_line_nodes(level, part)), 1, cfg)[0]
