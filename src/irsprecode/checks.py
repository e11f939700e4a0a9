"""Input rules shared by every layer: real numbers, counts and finite reals.

A leaf module, so that the leaf layers (constellation, channel) and the
solvers above them check their settings with the same rules.
"""

from __future__ import annotations

import math
import numbers


def is_real(value) -> bool:
    """Whether value is a real number; bools are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name: str, value, low: int) -> None:
    """Reject a setting that is not an int (bools excluded) of at least low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, positive: bool) -> None:
    """Reject a setting that is not a finite real above 0 (positive) or >= 0."""
    # a plain float is real; the exact type test skips the slower ABC check
    if not ((type(value) is float or is_real(value))
            and (value > 0 if positive else value >= 0) and value < math.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a finite {sign} number, got {value!r}")
