"""PSK constellation geometry, decision regions, and symbol-error bounds."""

from __future__ import annotations

import math

import numpy as np

_ALLOWED_ORDERS = (2, 4, 8, 16)

# elementwise math.erfc (object-dtype result)
_erfc = np.frompyfunc(math.erfc, 1, 1)


class PskConstellation:
    """Unit-energy L-PSK alphabet with points exp(j*2*pi*l/L).

    Decision sectors are half-open: phases in [2*pi*l/L - pi/L, 2*pi*l/L + pi/L)
    map to point l, so a boundary angle resolves to the counter-clockwise
    neighbour deterministically. gray_distance[a, b] is the number of bits
    in which the Gray labels of points a and b differ.
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
        g = gray_code(np.arange(self.order)).tolist()
        self.gray_distance = np.array([[(a ^ b).bit_count() for b in g] for a in g])

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

    The index is floor((angle(y) + pi/L) / (2*pi/L)) mod L, the mod taken as
    & (L - 1) since L is a power of two. y = 0 falls in sector 0 by the same
    convention (its phase is taken as 0). A scalar y gives a scalar. A NaN
    entry has no sector and raises ValueError.
    """
    half = np.pi / c.order
    # angle() makes a fresh array (0-d for scalar y), reused in place below
    sector = np.angle(y)[...]
    if np.isnan(sector).any():
        raise ValueError("receive point is NaN")
    sector += half
    sector /= 2.0 * half
    np.floor(sector, out=sector)
    idx = sector.astype(np.int64)
    idx &= c.order - 1
    return idx[()]


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
    if not sigma2 > 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    scale = np.sin(np.pi / c.order) * np.sqrt(2.0 / sigma2)
    return 2.0 * q_function(np.asarray(alpha, dtype=float) * scale)


def gray_code(index):
    """Binary-reflected Gray label of a symbol index (vectorized)."""
    index = np.asarray(index, dtype=np.int64)
    return np.bitwise_xor(index, index >> 1)


def bit_errors(sent_index, decided_index, c: PskConstellation):
    """Number of differing Gray-label bits, summed over all entries.

    The two index arrays broadcast against each other, so a K x T block of
    sent indices can face an (n_noise, K, T) block of decisions as is. Each
    (sent, decided) pair is tallied once and weighted by c.gray_distance.
    Indices outside [0, L) raise ValueError.
    """
    sent_index = np.asarray(sent_index)
    decided_index = np.asarray(decided_index)
    for a in (sent_index, decided_index):
        if a.size and (a.min() < 0 or a.max() >= c.order):
            raise ValueError("symbol index out of range")
    pairs = decided_index + c.order * sent_index
    tally = np.bincount(pairs.ravel(), minlength=c.order ** 2)
    return int(tally @ c.gray_distance.ravel())


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
