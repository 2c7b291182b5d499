"""Exception types shared across the package, and its one rule for a
number argument.

An integer argument is any ``numbers.Integral`` (numpy's included) but a
bool, a real one any ``numbers.Real`` but a bool that is finite as a float,
and a grid a 1-D sequence of reals.  ``check_integer``, ``check_real`` and
``check_reals`` state the rule and raise ``DomainError`` for anything else;
every argument passes through them: each oracle argument, dimension, piece
index and frequency, the ends of ``integrate_finite``, the ends and step
count of a CLI sweep, and each ``QuadratureConfig`` field.
"""
import math
import numbers

import numpy as np


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class TruncationTooCoarseError(ValueError):
    """Truncation/tail bound exceeds the requested tolerance."""


def check_integer(name: str, value, least: int, most: float = math.inf) -> int:
    """value as an int; raise DomainError unless it is a non-bool
    integer in [least, most]."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or not least <= value <= most):
        raise DomainError(f"{name} must be an integer in [{least}, {most}], got {_shown(value)}")
    return int(value)


def _shown(value) -> str:
    """repr(value), or its type for an int too long for repr to print."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def check_real(name: str, value, least: float = -math.inf, strict: bool = False) -> float:
    """value as a float; raise DomainError unless it is a non-bool real
    number, finite as a float, >= least, or > least when ``strict``."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if real else None
    except OverflowError:  # an int or Fraction beyond the double range
        x = None
    if x is None or not math.isfinite(x) or not (x > least if strict else x >= least):
        bound = "" if least == -math.inf else f" {'>' if strict else '>='} {least}"
        shown = _shown(value if x is None else x)  # a real shown as the float it is
        raise DomainError(f"{name} must be a finite real number{bound}, got {shown}")
    return x


def check_reals(name: str, values) -> np.ndarray:
    """values as a 1-D float array of reals that each pass ``check_real``;
    anything but an iterable of them raises DomainError."""
    try:
        items = iter(values)
    except TypeError:
        raise DomainError(
            f"{name} must be a sequence of real numbers, got {_shown(values)}") from None
    return np.array([check_real(name, v) for v in items], dtype=float)
