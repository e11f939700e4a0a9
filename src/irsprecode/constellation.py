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
        return self.order.bit_length() - 1  # log2 of a power of two

    def __repr__(self) -> str:
        return f"PskConstellation(order={self.order})"


def q_function(x):
    """Gaussian tail probability Q(x) = P[N(0,1) > x], via erfc."""
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) / np.sqrt(2.0)),
                            dtype=float)


def decide_index(re, im, c: PskConstellation):
    """Index of the half-open decision sector containing each point re + j*im.

    re and im are the real and imaginary parts, as two real arrays (or
    scalars) that broadcast together. The index is
    floor((arctan2(im, re) + pi/L) / (2*pi/L)) mod L, the mod taken as
    & (L - 1) since L is a power of two. A zero point has arctan2's phase,
    which follows the signs of its zeros: a +0 real part gives 0 (sector 0)
    and a -0 real part gives +/-pi (sector L/2 for every L). Returns uint8
    indices; a scalar point gives a scalar. A NaN part has no sector and
    raises ValueError.
    """
    half = np.pi / c.order
    # arctan2 makes a fresh array (0-d for scalars), reused in place below
    sector = np.arctan2(im, re)[...]
    if np.isnan(sector).any():
        raise ValueError("receive point is NaN")
    sector += half
    sector /= 2.0 * half
    np.floor(sector, out=sector)
    # the floor lies in [-L/2, L/2]; a negative float has no portable cast
    # to an unsigned type, so go through int8, whose -1 is 255 as uint8
    idx = sector.astype(np.int8)
    idx &= c.order - 1
    return idx.view(np.uint8)[()]


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
    """Binary-reflected Gray label of a symbol index (vectorized, same dtype)."""
    index = np.asarray(index)
    return index ^ (index >> 1)


def _check_indices(index, c: PskConstellation) -> np.ndarray:
    """index as an array of symbol indices of c; a non-integer dtype (bool
    included) or an index outside [0, L) raises ValueError."""
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise ValueError(f"symbol indices must be integers, got dtype {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= c.order):
        raise ValueError("symbol index out of range")
    return index


def bit_errors(sent_index, decided_index, c: PskConstellation):
    """Number of differing Gray-label bits, summed over all entries.

    The two index arrays broadcast against each other, so a K x T block of
    sent indices can face an (n_noise, K, T) block of decisions as is. The
    Gray labels of each (sent, decided) pair are xored and the set bits
    counted one bit plane at a time, in uint8. Non-integer indices and
    indices outside [0, L) raise ValueError.
    """
    sent, decided = (_check_indices(a, c).astype(np.uint8, copy=False)
                     for a in (sent_index, decided_index))
    # the Gray code is linear over xor: gray(a) ^ gray(b) == gray(a ^ b)
    diff = gray_code(sent ^ decided)
    return sum(int(np.count_nonzero(diff & (1 << b))) for b in range(c.bits_per_symbol))


class SymbolFrame:
    """K x T block of constellation indices with the matching complex points.

    Both arrays are the frame's own and read-only, so they stay a matching
    pair whatever happens to the array the frame was built from.
    """

    def __init__(self, indices, constellation: PskConstellation):
        indices = _check_indices(indices, constellation).astype(np.int64)
        if indices.ndim != 2:
            raise ValueError("indices must be a K x T matrix")
        self.indices = indices
        self.constellation = constellation
        self.symbols = constellation.points[indices]
        self.indices.flags.writeable = False
        self.symbols.flags.writeable = False

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
