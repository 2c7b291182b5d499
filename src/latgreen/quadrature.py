"""Double-exponential quadrature for (0, inf) with endpoint log singularities.

One rule, tanh-sinh on (0, 1), serves an integral over (0, inf) through the
substitution ``tau = alpha/(1-alpha)``, one column per integral:

* as alpha -> 0, tau ~ alpha, so the rule integrates the |ln tau|^d
  endpoint behaviour at spectral accuracy;
* as alpha -> 1, tau ~ 1/(1-alpha): an exponential tail vanishes faster
  than any power of 1-alpha, and the (1-alpha)^{d/2-2} endpoint behaviour
  of a power-law tail is integrable for d >= 3.

Every node therefore depends only on the level, never on the integrand.
The same loop integrates over a segment (0, length) by t = length*alpha
(``integrate_segment``).

Levels halve the step of the underlying trapezoidal sum and reuse all
previous evaluations.  The error estimate is the difference of the last two
levels with a floor of one ulp; in addition the running L1 sum of sampled
magnitudes provides a roundoff floor ``~eps * integral(|f|)``, which is what
limits attainable accuracy for the strongly cancelling large-d integrands.
A caller whose integrand itself carries more rounding raises the factor of
that floor in the reported estimate (``roundoff``) without moving a stop.

One level loop serves many integrals at once (a frequency grid), one
column each.  The stop tests start at level 2, so the loop's first step
evaluates level 2's whole grid of 49 nodes, whose strided slices are the
13 + 12 + 24 nodes new at levels 0, 1 and 2, and each later level its new
nodes, in one integrand call per block of columns.  Each level's nodes
ascend in tau, and one cached row multiplies its integrand rows: the
weights, which on (0, inf) carry the Jacobian dtau/dalpha = 1/(1-alpha)^2
and stay finite (at most 9.3e300), since _TS_UMAX keeps 1-alpha normal.
Each column is summed on its own nodes, level by level, so no sum depends
on how its nodes were grouped into calls.

Each column stops on its own: by the rule above; when its floor exceeds
its tolerance and its error is within 100 floors, since it can then only
end nonconverged and further levels sample roundoff noise; or as soon as
its sums are not finite, in which case it comes back nonconverged with an
infinite error estimate.  Levels 0 and 1 test nothing; they only add.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_integer, check_real

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "half_line_nodes",
    "integrate_half_line",
    "segment_nodes",
    "integrate_segment",
    "integrate_semiinfinite",
    "integrate_finite",
]

_EPS = 2.220446049250313e-16

# Node generation limit: |v| = (pi/2)sinh|u| capped so that e^{-2v} stays
# normal, and with it 1-alpha, so a weight row on (0, inf), ~ e^{2v}, is finite.
_TS_UMAX = 6.08
_BASE_H = 1.0

# The first step of the level loop evaluates the nodes of the levels below
# this one in one call: the last one's whole grid, in which the nodes new at
# levels 0, 1 and 2 are these slices.
_FIRST_LEVELS = 3
_FIRST_PARTS = (slice(0, None, 4), slice(2, None, 4), slice(1, None, 2))

# Largest max_levels accepted: the nodes new at a level number about
# 6.1 * 2^level, so a larger budget could exhaust memory before a column
# comes back nonconverged.
_MAX_LEVELS = 16

# Largest (columns x nodes) block evaluated at once: the active columns of
# a level are split to stay within it, which bounds the memory of a sweep.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-13
    abs_tol: float = 1e-15
    max_levels: int = 12

    def __post_init__(self):
        # a non-finite tolerance would accept any error, True is no tolerance
        check_real("rel_tol", self.rel_tol, 0.0, strict=True)
        check_real("abs_tol", self.abs_tol, 0.0, strict=True)
        check_integer("max_levels", self.max_levels, _FIRST_LEVELS, _MAX_LEVELS)

    @classmethod
    def fast(cls) -> "QuadratureConfig":
        """Loose preset for large-d sweeps and expensive nested integrals."""
        return cls(rel_tol=1e-8, abs_tol=1e-10, max_levels=10)


DEFAULT_CONFIG = QuadratureConfig()  # of every call made without one


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool


def _grid_us(level: int) -> np.ndarray:
    # every trapezoidal abscissa k h of this level, |k h| <= _TS_UMAX, ascending
    h = _BASE_H / 2**level
    n = int(math.floor(_TS_UMAX / h))
    return h * np.arange(-n, n + 1)


def _nodes(u: np.ndarray):
    """Tanh-sinh nodes on (0, 1) at the abscissae ``u``: (alpha, 1-alpha,
    weight), both ends stable."""
    v = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(v))
    lo = e / (1.0 + e)          # distance to the nearer endpoint
    hi = 1.0 / (1.0 + e)
    alpha = np.where(v < 0, lo, hi)
    alphac = np.where(v < 0, hi, lo)
    w = 0.25 * math.pi * np.cosh(u) * 4.0 * e / (1.0 + e) ** 2
    return alpha, alphac, w


def _level_nodes(level: int):
    """The nodes new at ``level``, ascending: its whole grid at level 0,
    and from level 1 on the abscissae k h of its grid with k odd."""
    u = _grid_us(level)  # u[i] = (i - n) h, n = u.size // 2: odd k from i = 1 - n % 2
    return _nodes(u if level == 0 else u[1 - u.size // 2 % 2::2])


@functools.lru_cache(maxsize=None)  # one entry per evaluating level
def _ts_nodes(level: int):
    """The nodes the level loop evaluates at ``level``, ascending: (alpha,
    1-alpha, weight, weight times dtau/dalpha on (0, inf), parts).

    Level 0 is the first step: level 2's whole trapezoidal grid, u = k/4
    for |k| <= 24, whose slices ``parts`` are the nodes new at levels 0, 1
    and 2.  A level from 3 on has the nodes new at it, one part.  Levels 1
    and 2 evaluate nothing of their own.
    """
    if 0 < level < _FIRST_LEVELS:
        raise ValueError(f"level {level} is part of the first step, level 0")
    alpha, alphac, w = _level_nodes(level) if level else _nodes(_grid_us(_FIRST_LEVELS - 1))
    nodes = (alpha, alphac, w, (w / alphac) / alphac)  # in range, divided twice
    for arr in nodes:  # shared by every caller
        arr.flags.writeable = False
    return (*nodes, _FIRST_PARTS if level == 0 else (slice(None),))


def _cabs(z: np.ndarray) -> np.ndarray:
    # |z| elementwise, bitwise equal to the scalar abs(complex); np.abs on a
    # complex array is not
    return np.hypot(z.real, z.imag)


def _tanh_sinh(f, weights, n: int, cfg: QuadratureConfig,
               roundoff: float = 2.0) -> list[QuadratureResult]:
    """Run the level loop for n integrals over (0, 1) at once, one column each.

    ``f(level, alpha, alphac, ints)`` returns the integrands ``ints`` (one
    row each) at the nodes of ``_ts_nodes(level)``, and ``weights(level)``
    the row that multiplies them: the nodes' weights, times any factor of
    the caller's substitution.  Each evaluating level makes one ``f`` call
    per block of the columns still refining, and each column is summed on
    its own level parts, so a column stops at a level L >= 2 after L - 1
    calls.  The stop tests use the floor 2*eps*h*sum|f|; the reported
    estimate uses ``roundoff``*eps*h*sum|f|, for an integrand that carries
    more rounding than its sum, and so moves no stop.
    """
    # per column: value, error, roundoff floor and evaluations at its stop
    value, err, floor = np.empty(n, dtype=complex), np.empty(n), np.empty(n)
    evals, finite = np.empty(n, dtype=int), np.empty(n, dtype=bool)
    # running state of the columns still refining, in the order of ``cols``
    cols = np.arange(n)
    total, l1 = np.zeros(n, dtype=complex), np.zeros(n)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(cfg.max_levels + 1):
            if level == 0 or level >= _FIRST_LEVELS:
                # sums[k] and l1s[k]: each column's weighted sum and L1 sum
                # over the nodes of level ``level + k``
                (alpha, alphac, *_, parts), w = _ts_nodes(level), weights(level)
                sums = np.empty((len(parts), cols.size), dtype=complex)
                l1s = np.empty((len(parts), cols.size))
                step = max(1, _BLOCK_ELEMENTS // alpha.size)
                for i in range(0, cols.size, step):
                    block = slice(i, i + step)
                    vals = w * f(level, alpha, alphac, cols[block])
                    mags = np.abs(vals)
                    for k, part in enumerate(parts):
                        # what ndarray.sum calls, without its wrapper
                        sums[k, block] = np.add.reduce(vals[:, part], axis=1)
                        l1s[k, block] = np.add.reduce(mags[:, part], axis=1)
                count += alpha.size
                first = level
            total += sums[level - first]
            l1 += l1s[level - first]
            h = _BASE_H / 2**level
            v = h * total
            if level < _FIRST_LEVELS - 1:
                prev = v
                continue
            ok = np.isfinite(total) & np.isfinite(l1)
            stop = ~ok  # a non-finite sum never recovers; it is flagged below
            e = _cabs(v - prev)
            fl = 2.0 * _EPS * h * l1
            tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(v))
            # once err is within a small factor of the cancellation floor,
            # further refinement cannot improve the attainable accuracy; a
            # floor above the tolerance means the column ends nonconverged
            # however long it runs
            stop |= e <= np.maximum(tol, 4.0 * fl)
            stop |= (fl > tol) & (e <= 100.0 * fl)
            stop |= level == cfg.max_levels
            if stop.any():
                done = cols[stop]
                value[done], err[done], finite[done] = v[stop], e[stop], ok[stop]
                floor[done] = roundoff * _EPS * h * l1[stop]
                evals[done] = count
                keep = ~stop
                cols, total, l1, v = cols[keep], total[keep], l1[keep], v[keep]
                if cols.size == 0:
                    break
                sums, l1s = sums[:, keep], l1s[:, keep]
            prev = v
        est = np.maximum(np.maximum(np.where(np.isfinite(err), err, 0.0), floor),
                         _EPS * _cabs(value))
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(value))
        est[~finite] = math.inf
        converged = finite & (est <= tol)
    return [QuadratureResult(value=complex(x), abs_error_estimate=float(a),
                             evaluations=int(c), converged=bool(good))
            for x, a, c, good in zip(value, est, evals, converged)]


def integrate_finite(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Tanh-sinh integral of f over [a, b], tolerant of integrable endpoint
    singularities.  Nodes near either endpoint are placed by their distance
    to that endpoint, so the singular behaviour is sampled accurately."""
    a = check_real("a", a)
    b = check_real("b", b, a, strict=True)
    span = check_real("b - a", b - a)

    def g(level, alpha, alphac, ints):
        x = np.where(alpha <= 0.5, a + span * alpha, b - span * alphac)
        return span * np.reshape(f(x), (1, -1))

    return _tanh_sinh(g, lambda level: _ts_nodes(level)[2], 1, cfg or DEFAULT_CONFIG)[0]


def half_line_nodes(level: int) -> np.ndarray:
    """The nodes tau = alpha/(1-alpha) on (0, inf) of the nodes alpha that
    the level loop evaluates at ``level`` (see ``_ts_nodes``)."""
    alpha, alphac = _ts_nodes(level)[:2]
    return alpha / alphac


def integrate_half_line(f, n: int, cfg: QuadratureConfig | None,
                        roundoff: float = 2.0) -> list[QuadratureResult]:
    """Integrals over (0, inf) of n integrands with integrable tails at once.

    ``f(level, ints)`` returns the integrands ``ints`` (one row each) at
    ``half_line_nodes(level)``.  Integral i is column i of one level loop;
    ``roundoff`` sets its reported roundoff floor (see ``_tanh_sinh``).
    """
    # each level's weight row carries dtau = dalpha/(1-alpha)^2, finite (see _TS_UMAX)
    return _tanh_sinh(lambda level, alpha, alphac, ints: f(level, ints),
                      lambda level: _ts_nodes(level)[3], n, cfg or DEFAULT_CONFIG, roundoff)


def segment_nodes(level: int, length: float) -> np.ndarray:
    """The nodes t = length*alpha on (0, length) of the nodes alpha that
    the level loop evaluates at ``level`` (see ``_ts_nodes``)."""
    return length * _ts_nodes(level)[0]


def integrate_segment(f, n: int, length: float, cfg: QuadratureConfig | None,
                      roundoff: float = 2.0) -> list[QuadratureResult]:
    """Integrals over (0, length) of n smooth integrands at once.

    ``f(level, ints)`` returns the integrands ``ints`` (one row each) at
    ``segment_nodes(level, length)``.  Integral i is column i of one level
    loop; ``roundoff`` sets its reported roundoff floor (see ``_tanh_sinh``).
    """
    # dt = length * dalpha: each level's weight row is length * w
    return _tanh_sinh(lambda level, alpha, alphac, ints: f(level, ints),
                      lambda level: length * _ts_nodes(level)[2], n, cfg or DEFAULT_CONFIG,
                      roundoff)


def integrate_semiinfinite(f, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integral over (0, inf) of f, whose tail the caller knows to be
    integrable; a non-converged result is returned with ``converged=False``
    rather than raised.
    """
    return integrate_half_line(lambda level, ints: np.reshape(f(half_line_nodes(level)), (1, -1)),
                               1, cfg)[0]
