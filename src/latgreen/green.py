"""Top-level evaluation of G_d(omega) and the density of states A_d(omega).

The retarded prescription is used throughout: Im G <= 0 on the real axis,
A_d = -Im G_d / pi >= 0 with support [-d, d].  Divergent points (d <= 2 at a
van Hove frequency) come back as flagged results carrying signed infinities
instead of raising, so grid sweeps across band edges complete.

There is one evaluation path, ``green_sweep``; ``green_local`` is a sweep
of length one.  The quadrature nodes depend only on the level and the part
(head or tail), so the Bessel pair is evaluated once per node set and
cached, and every frequency of a grid, whatever its piece of the piecewise
formula, runs through one level loop, its head and its tail as two columns.
Each result is the same, bit for bit, whatever it is batched with.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import check_dimension, staircase_js
from .integrand import BesselTable, bessel_table, eval_terms, term_exponents, term_table
from .quadrature import QuadratureConfig, QuadratureResult, half_line_nodes, integrate_half_line

# Not used here since sweeps are batched, but perfbench's tracer (spans.py)
# wraps these names at this module, so they must keep resolving.
from .integrand import build_integrand, eval_integrand, tail_class  # noqa: F401
from .quadrature import integrate_semiinfinite  # noqa: F401

__all__ = [
    "GreenResult", "green_local", "green_sweep", "dos", "dos_from_result",
    "VAN_HOVE_ADJACENT_TOL",
]

# Results closer than this to a van Hove frequency get flagged: accuracy
# degrades there because the local |omega - omega_v|^{d/2-1} behaviour is
# not resolvable below the snap tolerance.
VAN_HOVE_ADJACENT_TOL = 1e-6


@dataclass(frozen=True)
class GreenResult:
    omega: float
    d: int
    value: complex
    abs_error: float
    piece_j: int
    van_hove_adjacent: bool
    divergent: bool
    converged: bool = True
    evaluations: int = 0


def _nearest_van_hove(d: int, omega: float) -> float:
    n = min(d, max(0, round((omega + d) / 2.0)))
    return -d + 2.0 * n


def _divergent_value(d: int, omega: float) -> complex:
    # Signed-infinity semantics: the 1d band edges diverge in both parts,
    # the 2d band centre in Im (log), the 2d band edges in Re.
    if d == 1:
        return complex(math.copysign(math.inf, omega), -math.inf)
    if omega == 0.0:
        return complex(0.0, -math.inf)
    return complex(math.copysign(math.inf, omega), 0.0)


@functools.lru_cache(maxsize=None)  # one entry per (level, part)
def _bessel_nodes(level: int, tail: bool) -> BesselTable:
    # read-only, since every caller shares the arrays
    table = bessel_table(half_line_nodes(level, tail))
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def _result(d: int, omega: float, j: int, res: QuadratureResult) -> GreenResult:
    adjacent = abs(omega - _nearest_van_hove(d, omega)) <= VAN_HOVE_ADJACENT_TOL * max(1.0, d)
    return GreenResult(
        omega=omega, d=d, value=res.value, abs_error=res.abs_error_estimate,
        piece_j=j, van_hove_adjacent=adjacent, divergent=False,
        converged=res.converged, evaluations=res.evaluations,
    )


def _divergent_result(d: int, omega: float, j: int) -> GreenResult:
    return GreenResult(
        omega=omega, d=d, value=_divergent_value(d, _nearest_van_hove(d, omega)),
        abs_error=math.inf, piece_j=j, van_hove_adjacent=True,
        divergent=True, converged=False,
    )


def green_local(d: int, omega: float, cfg: QuadratureConfig | None = None) -> GreenResult:
    """Local Green function G_d(omega) of the d-dimensional hypercubic
    lattice (hopping 1/2, band [-d, d]) at a real frequency."""
    return green_sweep(d, [omega], cfg)[0]


def green_sweep(d: int, omegas, cfg: QuadratureConfig | None = None) -> list[GreenResult]:
    """G_d at every frequency of a grid, in input order.

    The frequencies run through one level loop, ordered by piece, each
    with its own stop rule.  d and every frequency are validated before any
    is integrated.
    """
    cfg = cfg or QuadratureConfig()
    check_dimension(d)  # first, so that an empty grid is checked too
    omegas = np.fromiter(omegas, dtype=float)
    js = staircase_js(d, omegas)  # validates every frequency
    exponents = term_exponents(d, omegas)
    results: list[GreenResult | None] = [None] * len(js)
    order = np.argsort(js, kind="stable")
    if d < 3:
        # a zero exponent leaves the tau^{-d/2} tail, which diverges for
        # d <= 2 (see tail_class); exponents vanish only at a van Hove
        # frequency, and there one of the piece's own terms has it
        divergent = (exponents == 0.0).any(axis=1)
        for i in np.flatnonzero(divergent).tolist():
            results[i] = _divergent_result(d, float(omegas[i]), int(js[i]))
        order = order[~divergent[order]]
    if order.size:
        rows_j, rows_q = js[order], exponents[order]
        weights = None
        if rows_j[0] != rows_j[-1]:
            # (not np.unique, which imports numpy.ma)
            pieces = sorted(set(rows_j.tolist()))
            by_piece = np.array([term_table(d, j).weight for j in pieces])
            weights = by_piece[np.searchsorted(pieces, rows_j)]

        def f(level, tail, cols):
            return eval_terms(d, rows_j[cols], rows_q[cols], _bessel_nodes(level, tail),
                              None if weights is None else weights[cols])

        for i, res in zip(order.tolist(), integrate_half_line(f, order.size, cfg)):
            results[i] = _result(d, float(omegas[i]), int(js[i]), res)
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
