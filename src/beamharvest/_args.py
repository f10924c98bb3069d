"""The two argument rules of every public boundary: a real number and a count."""

from __future__ import annotations

import math
import numbers


def real(value) -> float | None:
    """The double a real argument is judged as, or None for any other value:
    a real argument is any numbers.Real but a bool, NumPy's reals included,
    and an int beyond the double range reads as infinite."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_count(value) -> bool:
    """A count is a Python int, never a bool or a NumPy integer."""
    return isinstance(value, int) and not isinstance(value, bool)
