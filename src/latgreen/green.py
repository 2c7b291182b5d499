"""Top-level evaluation of G_d(omega) and the density of states A_d(omega).

The retarded prescription is used throughout: Im G <= 0 on the real axis,
A_d = -Im G_d / pi >= 0 with support [-d, d].  Divergent points (d <= 2 at a
van Hove frequency) come back as flagged results carrying signed infinities
instead of raising, so grid sweeps across band edges complete.

There is one evaluation path, ``green_sweep``; ``green_local`` is a sweep
of length one.  The quadrature nodes depend only on the level and the
split point, so the Bessel pair is evaluated once per node set and cached,
and all frequencies of a grid that share a piece of the piecewise formula
run through one batched level loop.  Each result is the same, bit for bit,
whatever it is batched with.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .integrand import (
    BesselTable,
    IntegrandSpec,
    TailKind,
    bessel_table,
    build_integrand,
    eval_terms,
    tail_class,
)
from .quadrature import QuadratureConfig, QuadratureResult, half_line_nodes, integrate_half_line

# Not used here since sweeps are batched, but perfbench's tracer (spans.py)
# wraps these names at this module, so they must keep resolving.
from .integrand import eval_integrand  # noqa: F401
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


@functools.lru_cache(maxsize=64)
def _bessel_nodes(level: int, split_point: float, tail: bool) -> BesselTable:
    # bounded, so that a caller cycling through split points cannot grow it;
    # read-only, since every caller shares the arrays
    table = bessel_table(half_line_nodes(level, split_point, tail))
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def _result(spec: IntegrandSpec, res: QuadratureResult) -> GreenResult:
    d, omega = spec.d, spec.omega
    adjacent = abs(omega - _nearest_van_hove(d, omega)) <= VAN_HOVE_ADJACENT_TOL * max(1.0, d)
    return GreenResult(
        omega=omega, d=d, value=res.value, abs_error=res.abs_error_estimate,
        piece_j=spec.j, van_hove_adjacent=adjacent, divergent=False,
        converged=res.converged, evaluations=res.evaluations,
    )


def _divergent_result(spec: IntegrandSpec) -> GreenResult:
    return GreenResult(
        omega=spec.omega, d=spec.d,
        value=_divergent_value(spec.d, _nearest_van_hove(spec.d, spec.omega)),
        abs_error=math.inf, piece_j=spec.j, van_hove_adjacent=True,
        divergent=True, converged=False,
    )


def green_local(d: int, omega: float, cfg: QuadratureConfig | None = None) -> GreenResult:
    """Local Green function G_d(omega) of the d-dimensional hypercubic
    lattice (hopping 1/2, band [-d, d]) at a real frequency."""
    return green_sweep(d, [omega], cfg)[0]


def green_sweep(d: int, omegas, cfg: QuadratureConfig | None = None) -> list[GreenResult]:
    """G_d at every frequency of a grid, in input order.

    Frequencies in the same piece share the coefficients and the nodes, so
    each piece is integrated as one batch, every frequency with its own
    stop rule.  Every frequency is validated before any is integrated.
    """
    cfg = cfg or QuadratureConfig()
    specs = [build_integrand(d, w) for w in omegas]
    results: list[GreenResult | None] = [None] * len(specs)
    pieces: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        if tail_class(spec).kind is TailKind.DIVERGENT:
            results[i] = _divergent_result(spec)
        else:
            pieces.setdefault(spec.j, []).append(i)
    s = cfg.split_point
    for idx in pieces.values():
        piece = specs[idx[0]]
        exponents = np.array([[t.exponent for t in specs[i].terms] for i in idx])

        def f(level, tail, cols):
            return eval_terms(piece, exponents[cols], _bessel_nodes(level, s, tail))

        for i, res in zip(idx, integrate_half_line(f, len(idx), cfg)):
            results[i] = _result(specs[i], res)
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
