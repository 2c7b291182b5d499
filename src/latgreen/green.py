"""Top-level evaluation of G_d(omega) and the density of states A_d(omega).

The retarded prescription is used throughout: Im G <= 0 on the real axis,
A_d = -Im G_d / pi >= 0 with support [-d, d].  Divergent points (d <= 2 at a
van Hove frequency) come back as flagged results carrying signed infinities
instead of raising, so grid sweeps across band edges complete.

There is one evaluation path, ``green_sweep``; ``green_local`` is a sweep
of length one.  The quadrature nodes depend only on the level, so the
Bessel pair is evaluated once per level and cached as one table.  Every
frequency of a grid, whatever its piece of the piecewise formula, is one
column of one level loop over (0, inf), and each level evaluates the
frequencies still refining in one call.  Each result is the same, bit for
bit, whatever it is batched with.

No term is formed where it is exactly 0.  A frequency's reach is 746/delta,
with delta its distance to the nearest van Hove frequency
(``integrand.van_hove_distance``): past it every term is exactly +-0, and a
sum that starts at +0 stays +0 (see integrand.py).  Since every level's
nodes ascend in tau, each call gets only the nodes below its frequencies'
largest reach, and the rest of each row is +0, bit for bit what the full
table gives.  An exact van Hove input (delta = 0) reaches every node.
delta also gives the van Hove flag and, at d <= 2, the divergence.

The error estimate covers the integrand's own rounding, d-fold products
of the Bessel pair: its roundoff floor is max(2, d/4) eps times the L1
sum, which moves no stop.  Outside the band the measured error is below
d/8 eps relative at d = 40 to 1,023 (30-digit mpmath, 1.6d <= |omega| <= 4d).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import BesselPair
from .integrand import admit, bessel_table, eval_terms, term_weights, van_hove_distance
from .quadrature import QuadratureConfig, QuadratureResult, half_line_nodes, integrate_half_line

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

# exp(x) rounds to exactly 0 for x below about -745.13, where it falls
# under half the smallest subnormal; -746 clears that by a factor of 2.4.
_EXP_ZERO = 746.0


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


def _divergent_value(d: int, omega: float) -> complex:
    # Signed-infinity semantics: the 1d band edges diverge in both parts,
    # the 2d band centre in Im (log), the 2d band edges in Re.
    if d == 1:
        return complex(math.copysign(math.inf, omega), -math.inf)
    if omega == 0.0:
        return complex(0.0, -math.inf)
    return complex(math.copysign(math.inf, omega), 0.0)


@functools.lru_cache(maxsize=None)  # one entry per evaluating level
def _bessel_nodes(level: int) -> BesselPair:
    # read-only, since every caller shares the arrays
    table = bessel_table(half_line_nodes(level))
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def _eval_level(d: int, level: int, exponents: np.ndarray, weights: np.ndarray,
                reach: np.ndarray) -> np.ndarray:
    """``eval_terms`` of a block of rows on the nodes of ``level``: only on
    the first k nodes, those below the block's largest reach 746/delta, as
    views of the level's table, and +0 past them (see the module docstring
    for why that moves no bit)."""
    table = _bessel_nodes(level)
    n = table.tau.size
    k = int(table.tau.searchsorted(max(reach.tolist())))
    if k == n:
        return eval_terms(d, exponents, table, weights)
    out = np.zeros((len(weights), n), dtype=complex)
    if k:
        live = BesselPair(table.kbar[:k], table.ibar[:k], table.tau[:k])
        out[:, :k] = eval_terms(d, exponents, live, weights)
    return out


def _result(d: int, omega: float, j: int, adjacent: bool, res: QuadratureResult) -> GreenResult:
    return GreenResult(
        omega=omega, d=d, value=res.value, abs_error=res.abs_error_estimate,
        piece_j=j, van_hove_adjacent=adjacent, divergent=False,
        converged=res.converged, evaluations=res.evaluations,
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

    The frequencies run through one level loop, ordered by piece, each
    with its own stop rule.  d and every frequency are validated before any
    is integrated.
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
    if order.size:
        rows_q = exponents[order]
        weights = np.array([term_weights(d, j) for j in js[order].tolist()])
        with np.errstate(divide="ignore", over="ignore"):
            reach = _EXP_ZERO / delta[order]

        def f(level, cols):
            return _eval_level(d, level, rows_q[cols], weights[cols], reach[cols])

        roundoff = max(2.0, d / 4)
        for i, res in zip(order.tolist(), integrate_half_line(f, order.size, cfg, roundoff)):
            results[i] = _result(d, omegas.item(i), int(js[i]), adjacent[i], res)
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
