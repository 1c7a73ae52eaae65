"""Exception types shared across the package, and the integer-argument
check every numeric layer uses.

The CLI maps these onto its stable exit-code contract, so raising the right
class matters: configuration problems exit 2, domain violations 3, I/O 4,
and resolution/resource shortfalls 5.
"""
from __future__ import annotations

import numbers


class ModecapError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ModecapError):
    """Run configuration is malformed or inconsistent (CLI exit code 2)."""


class DomainError(ModecapError, ValueError):
    """An argument lies outside an operation's mathematical domain (exit 3)."""


class ResolutionError(ModecapError):
    """A grid, window, or quadrature rule is too coarse for the request (exit 5)."""


def require_index(name: str, value, upper: int | None = None) -> int:
    """value as an int: a degree, order, mode index or seed.

    Raises DomainError unless value is a Python or NumPy integer (bool is
    not) in [0, upper], or >= 0 when upper is None.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 0
        or (upper is not None and value > upper)
    ):
        bound = ">= 0" if upper is None else f"in [0, {upper}]"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)
