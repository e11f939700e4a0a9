"""Input rules shared by every layer: numbers, counts, solver matrices and
the keys of a JSON settings object.

A leaf module, so that the leaf layers (constellation, channel) and the
solvers above them check their settings with the same rules.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

import numpy as np

# max |entry| of a nonzero solver matrix: its Grams and start weights stay finite
COEFF_RANGE = 2.0 ** 450


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


def field_values(cls, d, name: str) -> dict:
    """A copy of d, a JSON object whose keys must all be fields of the
    dataclass cls; name ("config", "solver") names it in the errors."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        label = name if name == "config" else f"{name} config"
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    return dict(d)


def check_matrix(name: str, a, dims: tuple) -> np.ndarray:
    """a as a Fortran-order float 2*dims[0] x 2*dims[1] matrix, both nonzero,
    whose max |entry| is 0 or in [1/COEFF_RANGE, COEFF_RANGE] (NaN and inf
    fail). Fortran order is the coefficient builders' own layout, so their
    matrices are not copied, and the solvers' BLAS products, and so the last
    bits of their results, do not depend on the memory order of the input."""
    a = np.asfortranarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] % 2 or a.shape[1] % 2 or not a.size:
        raise ValueError(f"{name} must be 2{dims[0]} x 2{dims[1]} with {dims[0]}, {dims[1]} >= 1")
    peak = np.maximum.reduce(np.abs(a), axis=None)  # NaN if any entry is
    if not (peak == 0 or 1 / COEFF_RANGE <= peak <= COEFF_RANGE):
        raise ValueError(f"{name} must be finite, max |{name}| 0 or in 2^[-450, 450]: {peak}")
    return a
