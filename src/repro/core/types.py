"""Common exception types and small shared helpers for :mod:`repro`.

The library raises precise exception classes so that callers can
distinguish "this configuration is impossible" (:class:`MappingError`)
from "these arguments are malformed" (:class:`ConfigurationError`).
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = [
    "ReproError",
    "ConfigurationError",
    "MappingError",
    "ceil_div",
    "require_positive_int",
    "require_non_negative_int",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a layer, array or window specification is malformed."""


class MappingError(ReproError):
    """Raised when a mapping scheme cannot place a layer on an array.

    This signals a *legitimately impossible* configuration (for example a
    parallel window whose area exceeds the number of array rows), not a
    programming error.
    """


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division ``ceil(numerator / denominator)``.

    Uses exact integer arithmetic so that large channel counts never hit
    floating-point rounding, which matters because the paper's cycle
    counts are exact integers.

    >>> ceil_div(7, 2)
    4
    >>> ceil_div(8, 2)
    4
    """
    if denominator <= 0:
        raise ConfigurationError(
            f"ceil_div requires a positive denominator, got {denominator}"
        )
    if numerator < 0:
        raise ConfigurationError(
            f"ceil_div requires a non-negative numerator, got {numerator}"
        )
    return -(-numerator // denominator)


def require_positive_int(name: str, value: object) -> int:
    """Validate that *value* is a positive integer and return it.

    Accepts plain ``int`` and integer-valued numpy scalars; rejects bools
    (which are ``int`` subclasses but never meaningful dimensions).
    """
    coerced = _coerce_int(name, value)
    if coerced <= 0:
        raise ConfigurationError(f"{name} must be positive, got {coerced}")
    return coerced


def require_non_negative_int(name: str, value: object) -> int:
    """Validate that *value* is a non-negative integer and return it."""
    coerced = _coerce_int(name, value)
    if coerced < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {coerced}")
    return coerced


def _coerce_int(name: str, value: object) -> int:
    # Bools are ints and strings parse as floats, but neither is a
    # dimension: reject them before the float() round-trip below.
    if isinstance(value, (bool, str, bytes)):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        )
    if isinstance(value, int):
        return value
    # Accept numpy integer scalars and floats that are exactly integral.
    try:
        as_float = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None
    if not math.isfinite(as_float) or as_float != int(as_float):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(as_float)


def as_pair(name: str, value: object) -> Tuple[int, int]:
    """Normalise ``value`` to an ``(int, int)`` pair.

    A scalar ``v`` becomes ``(v, v)``; a 2-sequence is validated
    element-wise.  Used for kernel/window sizes given as ``3`` or
    ``(3, 3)``.
    """
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigurationError(
                f"{name} must be a scalar or a pair, got length {len(value)}"
            )
        return (
            require_positive_int(f"{name}[0]", value[0]),
            require_positive_int(f"{name}[1]", value[1]),
        )
    single = require_positive_int(name, value)
    return (single, single)
