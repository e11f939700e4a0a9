"""PSK constellation geometry, decision regions, and symbol-error bounds."""

from __future__ import annotations

import math

import numpy as np

_ALLOWED_ORDERS = (2, 4, 8, 16)

# elementwise math.erfc (object-dtype result)
_erfc = np.frompyfunc(math.erfc, 1, 1)

# popcount for 4-bit Gray labels, enough for L <= 16
_POPCOUNT4 = np.array([bin(i).count("1") for i in range(16)], dtype=np.int64)


class PskConstellation:
    """Unit-energy L-PSK alphabet with points exp(j*2*pi*l/L).

    Decision sectors are half-open: phases in [2*pi*l/L - pi/L, 2*pi*l/L + pi/L)
    map to point l, so a boundary angle resolves to the counter-clockwise
    neighbour deterministically.
    """

    def __init__(self, order: int):
        if order not in _ALLOWED_ORDERS:
            raise ValueError(
                f"unsupported PSK order {order}; expected one of {_ALLOWED_ORDERS}"
            )
        self.order = int(order)
        self.points = np.exp(2j * np.pi * np.arange(self.order) / self.order)
        # cot(pi/L); exactly zero for BPSK so the margin reduces to Re{z}
        self.cot_half_sector = 0.0 if self.order == 2 else 1.0 / np.tan(np.pi / self.order)

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    def __repr__(self) -> str:
        return f"PskConstellation(order={self.order})"


def q_function(x):
    """Gaussian tail probability Q(x) = P[N(0,1) > x], via erfc."""
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) / np.sqrt(2.0)),
                            dtype=float)


def decide_index(y, c: PskConstellation):
    """Index of the half-open decision sector containing each entry of y.

    y = 0 falls in sector 0 by the same convention (its phase is taken as 0).
    """
    half = np.pi / c.order
    idx = np.floor((np.angle(y) + half) / (2.0 * half)).astype(np.int64)
    return np.mod(idx, c.order)


def decide(y, c: PskConstellation):
    """Hard decision: the constellation point whose sector contains y."""
    return c.points[decide_index(y, c)]


def margin(z, c: PskConstellation):
    """Safety margin of a rotated receive point z = h^H x conj(s).

    Returns Re{z} - |Im{z}| * cot(pi/L). Positive iff z lies strictly inside
    the sector of the nominal symbol; zero on the boundary.
    """
    z = np.asarray(z)
    return z.real - np.abs(z.imag) * c.cot_half_sector


def sep_upper_bound(alpha, sigma2: float, c: PskConstellation):
    """Union bound 2*Q(alpha*sin(pi/L)/(sigma/sqrt(2))) on the symbol error rate.

    The raw value is kept (it can exceed 1 for small or negative margins);
    clip to 1 when reporting it as a probability.
    """
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    scale = np.sin(np.pi / c.order) * np.sqrt(2.0 / sigma2)
    return 2.0 * q_function(np.asarray(alpha, dtype=float) * scale)


def gray_code(index):
    """Binary-reflected Gray label of a symbol index (vectorized)."""
    index = np.asarray(index, dtype=np.int64)
    return np.bitwise_xor(index, index >> 1)


def gray_bits(symbol, c: PskConstellation) -> np.ndarray:
    """Gray-label bits of one constellation point, most significant bit first."""
    if c.order & (c.order - 1) != 0:
        raise ValueError("Gray labeling needs a power-of-two order")
    idx = int(np.argmin(np.abs(c.points - symbol)))
    if abs(c.points[idx] - symbol) > 1e-9:
        raise ValueError(f"{symbol!r} is not a point of {c!r}")
    g = int(gray_code(idx))
    nbits = c.bits_per_symbol
    return np.array([(g >> (nbits - 1 - b)) & 1 for b in range(nbits)], dtype=np.uint8)


def bit_errors(sent_index, decided_index, c: PskConstellation):
    """Number of differing Gray-label bits, summed over all entries."""
    diff = np.bitwise_xor(gray_code(sent_index), gray_code(decided_index))
    return int(_POPCOUNT4[diff].sum())


class SymbolFrame:
    """K x T block of constellation indices with the matching complex points."""

    def __init__(self, indices, constellation: PskConstellation):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2:
            raise ValueError("indices must be a K x T matrix")
        if indices.size and (indices.min() < 0 or indices.max() >= constellation.order):
            raise ValueError("symbol index out of range")
        self.indices = indices
        self.constellation = constellation
        self.symbols = constellation.points[indices]

    @classmethod
    def random(cls, constellation: PskConstellation, n_users: int, n_slots: int,
               rng: np.random.Generator) -> "SymbolFrame":
        idx = rng.integers(0, constellation.order, size=(n_users, n_slots))
        return cls(idx, constellation)

    @classmethod
    def from_symbols(cls, symbols, constellation: PskConstellation) -> "SymbolFrame":
        symbols = np.asarray(symbols, dtype=complex)
        idx = np.argmin(np.abs(symbols[..., None] - constellation.points), axis=-1)
        if not np.allclose(constellation.points[idx], symbols, atol=1e-9):
            raise ValueError("entries are not points of the given constellation")
        return cls(idx, constellation)

    @property
    def n_users(self) -> int:
        return self.indices.shape[0]

    @property
    def n_slots(self) -> int:
        return self.indices.shape[1]
