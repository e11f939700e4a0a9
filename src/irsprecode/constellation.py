"""PSK constellation geometry, sector decisions (of points and of noise blocks),
and symbol-error bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import check_real

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
    return _wrap_index(sector, c)[()]


def _wrap_index(k, c: PskConstellation):
    """uint8 sector indices mod L of integral sector coordinates k in
    [-L/2, L/2]. A negative float has no portable cast to an unsigned type,
    so the cast goes through int8, whose -1 is 255 as uint8."""
    idx = k.astype(np.int8)
    idx &= c.order - 1
    return idx.view(np.uint8)


# Blocks of at least this many receive points (n_noise * K * T) are decided
# in float32 first, with an exact float64 fallback (decide_block); smaller blocks,
# such as the one-draw blocks of the acceptance runs, are decided in float64
# alone. The two cost about the same at 10,000 points: per
# simulate_transmission call on a K = 4, T = 50 QPSK frame (2-vCPU x86-64,
# numpy 2.4, BLAS on 1 thread, median of 9 interleaved runs, two sets),
# float32 first against float64 alone took 93-112 vs 71-72 µs at 1,000
# points, 118-143 vs 122-131 µs at 10,000, 176-183 vs 206-209 µs at 20,000
# and 498-553 vs 729-809 µs at 80,000.
FILTER_MIN_POINTS = 10_000
# the float32 pass runs only while the noise peak and the per-part bound B
# lie in this range; see decide_block for why it keeps every float32 quantity
# finite and its rounding errors relative
_F32_RANGE = (2.0 ** -50, 2.0 ** 50)
# a point whose float32 sector coordinate lies within this many sector
# widths of a sector edge is re-decided in float64
_GUARD = 1e-3


@dataclass(frozen=True, eq=False)
class NoiseBlock:
    """One channel's noise draws: n_noise x K x T complex samples, planar.

    planar is a read-only real (2, n_noise, K, T) float64 array, all real
    parts first (planar[0] + 1j*planar[1] is the complex block). peak is its
    largest |entry| and planar32 its float32 copy, which decide_block's
    float32 pass reads; planar32 is None for a block below
    FILTER_MIN_POINTS points or with a peak outside that pass's range.
    """

    planar: np.ndarray
    peak: float = field(init=False)
    planar32: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        planar = np.asarray(self.planar)
        if (planar.dtype.kind != "f" or planar.ndim != 4 or planar.shape[0] != 2
                or 0 in planar.shape):
            raise ValueError("noise must be a real (2, n_noise >= 1, K, T) block")
        planar = planar.astype(np.float64)  # the block's own copy
        planar.flags.writeable = False
        peak = float(np.abs(planar).max())
        planar32 = None
        if (planar[0].size >= FILTER_MIN_POINTS
                and _F32_RANGE[0] <= peak <= _F32_RANGE[1]):
            planar32 = planar.astype(np.float32)
            planar32.flags.writeable = False
        object.__setattr__(self, "planar", planar)
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "planar32", planar32)


def decide_block(noise: NoiseBlock, zz: np.ndarray, a: float,
                 c: PskConstellation) -> np.ndarray:
    """Sector indices, (n_noise, K, T) uint8, of the receive points
    fl(fl(a*noise) + zz), where zz holds the noise-free points as a planar
    (2, K, T) array: decide_index's result on those float64 points, bit for
    bit. decide_index is called once, through this module's global name, so
    a wrapper installed there (perfbench's tracer) sees every decision call.

    A float32 pass decides every point whose sector it can prove; the rest
    are rebuilt in float64 with the same two roundings and decided exactly
    (a floating-point filter, after Shewchuk's adaptive predicates). With
    u = 2^-24 and B = a*peak + max |zz|, each part of y32 = f32(a)*n32 +
    f32(zz) lies within 4u*B + 2^-52*B of the float64 point y: four float32
    roundings (n, a, the product, the sum) of a part up to a*peak and two (z,
    the sum) of one up to max |zz|, and two float64 roundings. Below the
    normal range a rounding errs by at most 2^-150 absolutely; with B and
    peak in _F32_RANGE = [2^-50, 2^50], those errors (times a <= B/peak or
    times peak) stay under 2^-26 * u*B, no part, square or R^2 below
    overflows, and R^2 is normal. So delta = 5u*B bounds each part's error,
    and |y32 - y| <= sqrt(2)*delta.

    In units of one sector width (2pi/L), v = arctan2(y32) * L/(2pi) and
    k = rint(v); y32 is certain when |v - k| <= 1/2 - G and |y32| >= R, i.e.
    when frac(v + 1/2) lies in [G, 1 - G]. Its k is then y's sector mod L:
      - from |y32| >= R, y is seen within arcsin(sqrt(2)*delta/R) <=
        pi/2 * sqrt(2)*delta/R of y32's angle; R = L*sqrt(2)*delta/G makes
        that G/4 sector widths (the rounded squares in |y32|^2 err by ~3u
        relative, inside the slack of the arcsin bound);
      - float32 arctan2 errs by under G/8 of a sector at L = 16 (a test
        checks it on 10^6 points), the scaling by under 20u, and rint and
        the subtraction are exact;
      - decide_index's own float64 rounding is below 1e-14 of a sector.
    The errors add to under G/2, so y's exact sector coordinate, and the
    one decide_index computes, lies strictly inside sector k. A point on
    the branch cut at pi has coordinate L/2, mid-sector, on either side.
    """
    bound = None if noise.planar32 is None else a * noise.peak + float(np.abs(zz).max())
    if bound is None or not _F32_RANGE[0] <= bound <= _F32_RANGE[1]:
        # every point in float64
        y = np.multiply(noise.planar, a)
        y += zz[:, None]
        return decide_index(y[0], y[1], c)
    kt = zz[0].size
    zz = zz.reshape(2, 1, kt)
    y = np.multiply(noise.planar32.reshape(2, -1, kt), np.float32(a))
    y += zz.astype(np.float32)
    r2 = np.square(y[0])
    r2 += np.square(y[1])
    v = np.arctan2(y[1], y[0])
    v *= np.float32(c.order / (2.0 * np.pi))
    k = np.rint(v)
    v -= k
    np.abs(v, out=v)
    # both tests are false on a NaN, which then reaches decide_index
    sure = v <= np.float32(0.5 - _GUARD)
    radius = c.order * np.sqrt(2.0) * 5.0 * 2.0 ** -24 * bound / _GUARD
    sure &= r2 >= np.float32(radius * radius)
    decided = _wrap_index(k, c)
    # the exact fallback: the float64 path's arithmetic on the gathered points
    flat = np.flatnonzero(~sure)
    y = noise.planar.reshape(2, -1)[:, flat] * a
    y += zz[:, 0, flat % kt]
    decided.reshape(-1)[flat] = decide_index(y[0], y[1], c)
    return decided.reshape(noise.planar.shape[1:])


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
    clip to 1 when reporting it as a probability. sigma2 must be a finite
    positive real.
    """
    check_real("sigma2", sigma2, positive=True)
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
    """K x T block (K, T >= 1) of constellation indices with the matching
    complex points.

    Both arrays are the frame's own and read-only, so they stay a matching
    pair whatever happens to the array the frame was built from.
    """

    def __init__(self, indices, constellation: PskConstellation):
        indices = _check_indices(indices, constellation).astype(np.int64)
        if indices.ndim != 2 or not indices.size:
            raise ValueError("indices must be a K x T matrix with K, T >= 1")
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

    @property
    def n_users(self) -> int:
        return self.indices.shape[0]

    @property
    def n_slots(self) -> int:
        return self.indices.shape[1]
