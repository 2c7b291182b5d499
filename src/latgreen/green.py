"""Top-level evaluation of G_d(omega) and the density of states A_d(omega).

The retarded prescription is used throughout: Im G <= 0 on the real axis,
A_d = -Im G_d / pi >= 0 with support [-d, d].  Divergent points (d <= 2 at a
van Hove frequency) come back as flagged results carrying signed infinities
instead of raising, so grid sweeps across band edges complete.

There is one evaluation path, ``green_sweep``; ``green_local`` is a sweep
of length one.  It takes each frequency on one of two contours:

* every frequency of d <= 7, and every frequency outside the band at any
  d, on the imaginary-axis formula (integrand.py): one column of one level
  loop over (0, inf), whatever its piece;
* the band pieces 0 <= j <= d-1 of d >= 8 (omega = -d among them) on the
  t0 contour (contour.py), G = -i S + R: the rays R as columns of a second
  loop over (0, inf), and the segments S of one loop over (0, t0).  Such a
  result's estimate and evaluations are the sums of its two columns', and
  it is converged when that estimate is within max(abs_tol, rel_tol |G|).

The quadrature nodes depend only on the level, so each node table (the
Bessel pair, and on the contour the Hankel pair of the rays and J0 on the
segment) is evaluated once per level and cached, read-only.  Each level
evaluates the frequencies still refining in one call per loop.  Each
result is the same, bit for bit, whatever it is batched with.

A frequency's distance delta to the nearest van Hove frequency
(``integrand.van_hove_distance``) gives the van Hove flag and, at d <= 2,
the divergence.

The error estimate covers the integrand's own rounding, d-fold products of
the Bessel pair: its roundoff floor is max(2, d/4) eps times the L1 sum,
which moves no stop.  Outside the band the measured error is below d/8 eps
relative at d = 40 to 1,023 (30-digit mpmath, 1.6d <= |omega| <= 4d).  On
the t0 contour the floor is max(4, sqrt(d)/4) eps (see ``green_sweep``).
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .bessel import BesselPair
from .contour import (
    CONTOUR_MIN_D, RayTable, SegmentTable, eval_rays, eval_segment, ray_table, segment_table,
)
from .integrand import admit, bessel_table, eval_terms, van_hove_distance
from .quadrature import (
    DEFAULT_CONFIG, QuadratureConfig, QuadratureResult, half_line_nodes, integrate_half_line,
    integrate_segment, segment_nodes,
)

# Not used here since sweeps are batched, but perfbench's tracer (spans.py)
# wraps these names at this module, so they must keep resolving.
from .integrand import build_integrand, eval_integrand, tail_class  # noqa: F401
from .quadrature import integrate_semiinfinite  # noqa: F401

__all__ = [
    "GreenResult", "green_local", "green_sweep", "dos", "dos_from_result",
    "VAN_HOVE_ADJACENT_TOL",
]

# Results closer than this to a van Hove frequency get flagged: G follows
# the local |omega - omega_v|^{d/2-1} law there, which is ill-conditioned
# in omega, so the rounding of omega itself moves the value.
VAN_HOVE_ADJACENT_TOL = 1e-6

# The contour's segment is [0, T0], and its rays start at T0 (see
# contour.py); read at each call, so the value may be changed.
T0 = 3.0


class GreenResult(NamedTuple):
    omega: float
    d: int
    value: complex
    abs_error: float
    piece_j: int
    van_hove_adjacent: bool
    divergent: bool
    converged: bool = True
    evaluations: int = 0


def _divergent_value(d: int, omega: float) -> complex:
    # Signed-infinity semantics: the 1d band edges diverge in both parts,
    # the 2d band centre in Im (log), the 2d band edges in Re.
    if d == 1:
        return complex(math.copysign(math.inf, omega), -math.inf)
    if omega == 0.0:
        return complex(0.0, -math.inf)
    return complex(math.copysign(math.inf, omega), 0.0)


def _read_only(table):
    # every caller shares a cached table's arrays
    for arr in table:
        arr.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)  # one entry per evaluating level
def _bessel_nodes(level: int) -> BesselPair:
    return _read_only(bessel_table(half_line_nodes(level)))


@functools.lru_cache(maxsize=None)  # one entry per evaluating level and t0
def _ray_nodes(level: int, t0: float) -> RayTable:
    return _read_only(ray_table(half_line_nodes(level), t0))


@functools.lru_cache(maxsize=None)  # one entry per evaluating level and t0
def _segment_nodes(level: int, t0: float) -> SegmentTable:
    return _read_only(segment_table(segment_nodes(level, t0)))


def _result(d: int, omega: float, j: int, adjacent: bool, res: QuadratureResult) -> GreenResult:
    return GreenResult(
        omega=omega, d=d, value=res.value, abs_error=res.abs_error_estimate,
        piece_j=j, van_hove_adjacent=adjacent, divergent=False,
        converged=res.converged, evaluations=res.evaluations,
    )


def _contour_result(d: int, omega: float, j: int, adjacent: bool, cfg: QuadratureConfig,
                    segment: QuadratureResult, rays: QuadratureResult) -> GreenResult:
    # G = -i S + R; -i S is (Im S, -Re S) exactly
    value = complex(segment.value.imag, -segment.value.real) + rays.value
    est = segment.abs_error_estimate + rays.abs_error_estimate
    converged = math.isfinite(est) and est <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return GreenResult(
        omega=omega, d=d, value=value, abs_error=est, piece_j=j, van_hove_adjacent=adjacent,
        divergent=False, converged=converged,
        evaluations=segment.evaluations + rays.evaluations,
    )


def _divergent_result(d: int, omega: float, j: int) -> GreenResult:
    return GreenResult(
        omega=omega, d=d, value=_divergent_value(d, omega),
        abs_error=math.inf, piece_j=j, van_hove_adjacent=True,
        divergent=True, converged=False,
    )


def green_local(d: int, omega: float, cfg: QuadratureConfig | None = None) -> GreenResult:
    """Local Green function G_d(omega) of the d-dimensional hypercubic
    lattice (hopping 1/2, band [-d, d]) at a real frequency."""
    return green_sweep(d, [omega], cfg)[0]


def green_sweep(d: int, omegas, cfg: QuadratureConfig | None = None) -> list[GreenResult]:
    """G_d at every frequency of a grid, in input order.

    The frequencies run through the level loops of their contour (see the
    module docstring), ordered by piece, each with its own stop rule.  d
    and every frequency are validated before any is integrated.
    """
    d, omegas, js, exponents = admit(d, omegas)
    delta = van_hove_distance(exponents)
    adjacent = (delta <= VAN_HOVE_ADJACENT_TOL * max(1.0, d)).tolist()
    results: list[GreenResult | None] = [None] * len(js)
    order = np.argsort(js, kind="stable")
    if d < 3:
        # at a van Hove frequency (delta = 0) the tau^{-d/2} tail diverges
        # for d <= 2 (see tail_class)
        divergent = delta == 0.0
        for i in np.flatnonzero(divergent).tolist():
            results[i] = _divergent_result(d, omegas.item(i), int(js[i]))
        order = order[~divergent[order]]
    contour = order[:0]
    if d >= CONTOUR_MIN_D:
        # the band pieces 0..d-1, a run of the order, go on the t0 contour
        lo, hi = js[order].searchsorted((0, d)).tolist()
        order, contour = np.concatenate((order[:lo], order[hi:])), order[lo:hi]
    if order.size:
        rows_j, rows_q = js[order], exponents[order]

        def f(level, cols):
            return eval_terms(d, rows_j[cols], rows_q[cols], _bessel_nodes(level))

        roundoff = max(2.0, d / 4)
        for i, res in zip(order.tolist(), integrate_half_line(f, order.size, cfg, roundoff)):
            results[i] = _result(d, omegas.item(i), int(js[i]), adjacent[i], res)
    if contour.size:
        t0, w, j = T0, omegas[contour], js[contour]
        # The contour's integrands round to at most 3.3 eps times their L1
        # sum at d = 8..120.  Beyond, the rounding of the segment's nodes, a
        # few eps each, moves e^{i omega t} J0(t)^d by up to (|omega| + d t/2) t
        # times that, with t ~ 1/sqrt(d) over its peak: on 500 in-band draws
        # at d = 40..1,023 against the Gaussian series the error reached
        # 5.3 eps times the L1 sum at |omega|/sqrt(d) ~ 25, which sqrt(d)/4
        # covers.
        roundoff = max(4.0, math.sqrt(d) / 4)
        rays = integrate_half_line(
            lambda level, cols: eval_rays(d, w[cols], j[cols], _ray_nodes(level, t0)),
            contour.size, cfg, roundoff)
        segments = integrate_segment(
            lambda level, cols: eval_segment(d, w[cols], _segment_nodes(level, t0)),
            contour.size, t0, cfg, roundoff)
        for i, seg, ray in zip(contour.tolist(), segments, rays):
            results[i] = _contour_result(d, omegas.item(i), int(js[i]), adjacent[i],
                                         cfg or DEFAULT_CONFIG, seg, ray)
    return results


def dos_from_result(res: GreenResult) -> float:
    """Density of states A_d = -Im G_d / pi of one evaluated result.

    Returns +inf where the DOS itself diverges (d=1 band edges, d=2 centre)
    and nan at a divergent point whose DOS is not recoverable (d=2 edges).
    """
    if res.divergent:
        return math.inf if res.value.imag == -math.inf else math.nan
    return -res.value.imag / math.pi


def dos(d: int, omega: float, cfg: QuadratureConfig | None = None) -> float:
    """Density of states A_d(omega); see ``dos_from_result``."""
    return dos_from_result(green_local(d, omega, cfg))
