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

One level loop serves many integrals at once, one column per part of
each (a frequency grid; an integral over (0, 1) has one part; the head and
the tail of a half-line integral are two).  The stop tests start at level
2, so every column evaluates levels 0, 1 and 2.  The first step of the
loop therefore evaluates their 49 nodes (13 + 12 + 24), and each later
level its new nodes, in one integrand call per block of integrals that
still refine the same parts, on the nodes of all of those parts at once.
Each part is still summed on its own slice of nodes, level by level in
level order, so no sum depends on how its nodes were grouped into calls.

Each column stops on its own: by the rule above; when its floor exceeds
its tolerance and its error is within 100 floors, since it can then only
end nonconverged and further levels sample roundoff noise; or as soon as
its sums, or those of another part of the same integral, are not finite,
in which case it comes back nonconverged with an infinite error estimate.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_integer, check_real

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

# The first step of the level loop evaluates the nodes of the levels below
# this one in one call.
_FIRST_LEVELS = 3

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


def _level_nodes(level: int):
    """Tanh-sinh nodes new at ``level`` on (0, 1): (alpha, 1-alpha, weight),
    both ends stable."""
    u = _new_us(level)
    v = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(v))
    lo = e / (1.0 + e)          # distance to the nearer endpoint
    hi = 1.0 / (1.0 + e)
    alpha = np.where(v < 0, lo, hi)
    alphac = np.where(v < 0, hi, lo)
    w = 0.25 * math.pi * np.cosh(u) * 4.0 * e / (1.0 + e) ** 2
    return alpha, alphac, w


@functools.lru_cache(maxsize=None)  # one entry per evaluating level
def _ts_nodes(level: int):
    """The nodes the level loop evaluates at ``level``: (alpha, 1-alpha,
    weight, ends).

    Level 0 is the first step: the nodes of levels 0, 1 and 2, in that
    order, those of level k ending at ``ends[k]``.  A level from 3 on has
    the nodes new at it, and ``ends`` is their count.  Levels 1 and 2
    evaluate nothing of their own.
    """
    if 0 < level < _FIRST_LEVELS:
        raise ValueError(f"level {level} is part of the first step, level 0")
    levels = range(_FIRST_LEVELS) if level == 0 else (level,)
    per_level = [_level_nodes(k) for k in levels]
    nodes = tuple(np.concatenate(arrs) for arrs in zip(*per_level))
    for arr in nodes:  # shared by every caller
        arr.flags.writeable = False
    ends = tuple(itertools.accumulate(alpha.size for alpha, _, _ in per_level))
    return (*nodes, ends)


def _cabs(z: np.ndarray) -> np.ndarray:
    # |z| elementwise, bitwise equal to the scalar abs(complex); np.abs on a
    # complex array is not
    return np.hypot(z.real, z.imag)


def _groups(cols: np.ndarray, n: int):
    """Group the integrals whose columns ``cols`` still refine by the parts
    they refine: (order, [(sel, integrals, start), ...]), ``sel`` being
    those parts in ascending order.

    After ``cols[order]`` a group's columns run from ``start``, part by
    part, each part's in the order of its integrals.
    """
    part, integral = np.divmod(cols, n)
    # bit p of key: the column's integral still refines part p
    key = np.bincount(integral, 2.0**part, n).astype(int)[integral]
    order = np.lexsort((cols, key))
    groups, start = [], 0
    for k, size in enumerate(np.bincount(key).tolist()):
        if size:
            sel = tuple(p for p in range(k.bit_length()) if k >> p & 1)
            groups.append((sel, integral[order[start:start + size // len(sel)]], start))
            start += size
    return order, groups


def _tanh_sinh(f, parts, n: int, cfg: QuadratureConfig) -> list[QuadratureResult]:
    """Run the level loop for n integrals over (0, 1) at once, each the sum
    of ``len(parts)`` parts, one column per part of each integral.

    Column p*n + i is part p of integral i.  ``f(level, alpha, alphac, sel,
    ints)`` returns the integrands of the integrals ``ints`` (one row each)
    on the parts ``sel`` (ascending): row r holds part sel[0] of integral
    ints[r] at the nodes that ``_ts_nodes(level)`` evaluates, then part
    sel[1] at the same nodes, and so on.  ``parts[p](vals, alpha)`` turns
    part p's slice of a row into its integrand over (0, 1).

    Each evaluating level makes one ``f`` call per block of integrals that
    still refine the same parts, on all of those parts at once; each part
    is then weighted, summed on its own level slices and stopped as its
    own column, so a column's sums do not depend on the calls its nodes
    were evaluated in.  The first step, level 0, evaluates the nodes of
    levels 0, 1 and 2 in one call, and levels 1 and 2 only sum their
    slices of it; every later level makes its own.  So an integral whose
    parts stop at levels L1 <= L2 makes L2 - 1 calls per block, and a
    column that stops earlier, on a non-finite sum, reports the 49
    evaluations of the first step.  Each column stops on its own: when it
    meets the stop rule, when its error can no longer fall below the
    tolerance, or when its sums stop being finite.  Since a non-finite part
    makes the whole integral non-finite, every part of integral i still
    refining stops with it, at the same level, and is reported non-finite.
    """
    n_parts = len(parts)
    n_cols = n_parts * n
    # per column: value, error, roundoff floor and evaluations at its stop
    value, err, floor = np.empty(n_cols, dtype=complex), np.empty(n_cols), np.empty(n_cols)
    evals, finite = np.empty(n_cols, dtype=int), np.empty(n_cols, dtype=bool)
    # running state of the columns still refining, in the order of ``cols``,
    # which keeps each group's columns together (see _groups)
    cols = np.arange(n_cols)
    groups = [(tuple(range(n_parts)), np.arange(n), 0)]
    total, l1 = np.zeros(n_cols, dtype=complex), np.zeros(n_cols)
    e = np.full(n_cols, math.inf)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(cfg.max_levels + 1):
            if level == 0 or level >= _FIRST_LEVELS:
                # sums[k] and l1s[k]: each column's weighted sum and L1 sum
                # over the nodes of level ``level + k``
                alpha, alphac, w, ends = _ts_nodes(level)
                size = alpha.size
                sums = np.empty((len(ends), cols.size), dtype=complex)
                l1s = np.empty((len(ends), cols.size))
                for sel, ints, start in groups:
                    m = ints.size
                    step = max(1, _BLOCK_ELEMENTS // (len(sel) * size))
                    for i in range(0, m, step):
                        j = min(i + step, m)
                        rows = np.atleast_2d(f(level, alpha, alphac, sel, ints[i:j]))
                        for q, p in enumerate(sel):
                            vals = w * parts[p](rows[:, q * size:(q + 1) * size], alpha)
                            mags = np.abs(vals)
                            block = slice(start + q * m + i, start + q * m + j)
                            for k, (a, b) in enumerate(zip((0, *ends), ends)):
                                sums[k, block] = vals[:, a:b].sum(axis=1)
                                l1s[k, block] = mags[:, a:b].sum(axis=1)
                count += size
                first = level
            total += sums[level - first]
            l1 += l1s[level - first]
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
                if not ok.all():
                    # a non-finite sum leaves its integral non-finite
                    # whatever the other parts give: they stop with it
                    broken = np.zeros(n, dtype=bool)
                    broken[cols[~ok] % n] = True
                    ok &= ~broken[cols % n]
                    stop |= ~ok
                done = cols[stop]
                value[done], err[done], finite[done] = v[stop], e[stop], ok[stop]
                floor[done] = 2.0 * _EPS * h * l1[stop]
                evals[done] = count
                keep = np.flatnonzero(~stop)
                if keep.size == 0:
                    break
                order, groups = _groups(cols[keep], n)
                keep = keep[order]
                cols, total, l1, v, e = cols[keep], total[keep], l1[keep], v[keep], e[keep]
                sums, l1s = sums[:, keep], l1s[:, keep]
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
    a = check_real("a", a)
    b = check_real("b", b, a, strict=True)
    span = b - a

    def g(level, alpha, alphac, sel, cols):
        return f(np.where(alpha <= 0.5, a + span * alpha, b - span * alphac))

    return _tanh_sinh(g, (lambda vals, alpha: span * vals,), 1, cfg)[0]


def half_line_nodes(level: int) -> np.ndarray:
    """The nodes tau that the level loop evaluates at ``level`` (see
    ``_ts_nodes``), one per node alpha on the head (0, s], then one per
    node on the tail [s, inf): the head's table is the first half, the
    tail's the second."""
    alpha = _ts_nodes(level)[0]
    return np.concatenate((_SPLIT * alpha, _SPLIT / alpha))


def integrate_half_line(f, n: int, cfg: QuadratureConfig) -> list[QuadratureResult]:
    """Integrals over (0, inf) of n integrands with integrable tails at once.

    ``f(level, nodes, cols)`` returns the integrands ``cols`` (one row each)
    at ``half_line_nodes(level)[nodes]``, where the slice ``nodes`` is the
    head's half of the table, the tail's or the whole.  The head and the
    tail of integral i are columns i and n + i of one level loop, each with
    its own stop, and each level evaluates the parts that integral i still
    refines in one call; the result is the sum of the two.
    """
    def g(level, alpha, alphac, sel, cols):
        return f(level, slice(sel[0] * alpha.size, (sel[-1] + 1) * alpha.size), cols)

    def head(vals, alpha):
        return _SPLIT * vals

    # tau = s/u maps [s, inf) to (0, 1]; evaluated as (f*tau)/u to keep
    # every intermediate in range.
    def tail(vals, alpha):
        return (vals * (_SPLIT / alpha)) / alpha

    parts = _tanh_sinh(g, (head, tail), n, cfg)
    return [_combine(h, t) for h, t in zip(parts[:n], parts[n:])]


def integrate_semiinfinite(f, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integral over (0, inf) of f, whose tail the caller knows to be
    integrable; a non-converged result is returned with ``converged=False``
    rather than raised.
    """
    cfg = cfg or QuadratureConfig()
    return integrate_half_line(
        lambda level, nodes, cols: f(half_line_nodes(level)[nodes]), 1, cfg)[0]
