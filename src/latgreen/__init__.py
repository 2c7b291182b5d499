"""Lattice Green functions of the d-dimensional hypercubic lattice.

Computes the local Green function G_d(omega) (nearest-neighbour hopping 1/2,
band [-d, d]) to near machine precision for any real frequency and any
dimension, together with the density of states and a battery of
verification oracles (see ``latgreen.oracles`` for which are independent).
"""
from .bessel import BesselPair
from .errors import DomainError, TruncationTooCoarseError
from .green import GreenResult, dos, green_local, green_sweep
from .integrand import coefficient_table
from .quadrature import QuadratureConfig, QuadratureResult, integrate_finite

# The verification oracles (and the fractions module they use) are loaded
# on first use, so that evaluating G_d does not pay for them.
_ORACLES = frozenset({
    "MomentTable", "moments", "laurent_green", "laurent_truncation_bound",
    "g1_closed_form", "dos_convolution", "dos_normalization", "dos_moment",
    "bz_bruteforce", "lorentz_broadened", "bessel_j_fourier",
})

__all__ = [
    "BesselPair",
    "coefficient_table",
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_finite",
    "GreenResult",
    "green_local",
    "green_sweep",
    "dos",
    "DomainError",
    "TruncationTooCoarseError",
    *sorted(_ORACLES),
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
