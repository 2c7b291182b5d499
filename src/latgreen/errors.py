"""Exception types shared across the package, and its one rule for a
scalar argument.

An integer argument is any ``numbers.Integral`` (numpy's included) but a
bool, and a real argument is any finite ``numbers.Real`` but a bool:
``check_integer`` and ``check_real`` state the rule, each with its range,
and raise ``DomainError`` for anything else.  Every oracle argument, every
dimension and piece index, a Bessel argument and each ``QuadratureConfig``
field pass through them; the evaluator's frequency grid has its own
vectorised finiteness check (``coefficients.staircase_js``).
"""
import math
import numbers


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class BesselOverflowError(OverflowError):
    """Unscaled Bessel value exceeds the double range; use the scaled form."""


class TruncationTooCoarseError(ValueError):
    """Truncation/tail bound exceeds the requested tolerance."""


def check_integer(name: str, value, least: int, most: float = math.inf) -> int:
    """value as an int; raise DomainError unless it is a non-bool
    integer in [least, most]."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or not least <= value <= most):
        raise DomainError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
    return int(value)


def check_real(name: str, value, least: float = -math.inf, strict: bool = False) -> float:
    """value as a float; raise DomainError unless it is a finite non-bool
    real number >= least, or > least when ``strict``."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value) or not (value > least if strict else value >= least)):
        bound = "" if least == -math.inf else f" {'>' if strict else '>='} {least}"
        raise DomainError(f"{name} must be a finite real number{bound}, got {value!r}")
    return float(value)
