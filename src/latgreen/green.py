"""Top-level evaluation of G_d(omega) and the density of states A_d(omega).

The retarded prescription is used throughout: Im G <= 0 on the real axis,
A_d = -Im G_d / pi >= 0 with support [-d, d].  Divergent points (d <= 2 at a
van Hove frequency) come back as flagged results carrying signed infinities
instead of raising, so grid sweeps across band edges complete.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .integrand import (
    TailKind,
    build_integrand,
    eval_integrand,
    tail_class,
)
from .quadrature import QuadratureConfig, integrate_semiinfinite

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


def green_local(d: int, omega: float, cfg: QuadratureConfig | None = None) -> GreenResult:
    """Local Green function G_d(omega) of the d-dimensional hypercubic
    lattice (hopping 1/2, band [-d, d]) at a real frequency."""
    cfg = cfg or QuadratureConfig()
    spec = build_integrand(d, omega)
    tail = tail_class(spec)
    omega_v = _nearest_van_hove(d, omega)
    adjacent = abs(omega - omega_v) <= VAN_HOVE_ADJACENT_TOL * max(1.0, d)

    if tail.kind is TailKind.DIVERGENT:
        return GreenResult(
            omega=omega, d=d, value=_divergent_value(d, omega_v),
            abs_error=math.inf, piece_j=spec.j, van_hove_adjacent=True,
            divergent=True, converged=False,
        )

    res = integrate_semiinfinite(lambda tau: eval_integrand(spec, tau), tail, cfg)
    return GreenResult(
        omega=omega, d=d, value=res.value, abs_error=res.abs_error_estimate,
        piece_j=spec.j, van_hove_adjacent=adjacent, divergent=False,
        converged=res.converged, evaluations=res.evaluations,
    )


def green_sweep(d: int, omegas, cfg: QuadratureConfig | None = None) -> list[GreenResult]:
    """Element-wise green_local over a frequency grid, in input order."""
    cfg = cfg or QuadratureConfig()
    return [green_local(d, w, cfg) for w in omegas]


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
