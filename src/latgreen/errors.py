"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class BesselOverflowError(OverflowError):
    """Unscaled Bessel value exceeds the double range; use the scaled form."""


class TruncationTooCoarseError(ValueError):
    """Truncation/tail bound exceeds the requested tolerance."""
