"""Exception types shared across the package, and the scalar range checks
that raise them.

Each check is written so that NaN fails it: ``not value > 0`` rejects
NaN, where ``value <= 0`` would let it through.
"""

import math
import operator


class ParameterError(ValueError):
    """A physical parameter or configuration value is out of its valid range."""


class NumericalError(ArithmeticError):
    """A computation hit a singular system or a degenerate normalization."""


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if not value >= 0:
        raise ParameterError(f"{name} must be >= 0, got {value!r}")


def _require_finite(name: str, value: float) -> None:
    if not abs(value) < math.inf:
        raise ParameterError(f"{name} must be finite, got {value!r}")


def _photon_number(name: str, alpha: complex) -> float:
    """Mean photon number |alpha|^2 of a coherent amplitude.

    An amplitude whose |alpha|^2 leaves float64 (|alpha| past about
    1.3e154) is refused by name rather than with an ``OverflowError``.
    """
    try:
        return abs(alpha) ** 2
    except OverflowError:
        raise ParameterError(
            f"{name} is too large: |{name}|^2 overflows float64, got {alpha!r}"
        ) from None


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` when one is given.

    Python and numpy integers pass; 20.0 and 1.5 do not.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value!r}")
    return value
