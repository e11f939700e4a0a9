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
    # sector holds integers in [-L/2, L/2]; a negative float has no portable
    # cast to an unsigned type, so the cast goes through int8 (-1 is 255 as
    # uint8)
    idx = sector.astype(np.int8)
    idx &= c.order - 1
    return idx.view(np.uint8)[()]


# Blocks of at least this many receive points (n_noise * K * T) are decided
# from a crossing table (decide_block); smaller blocks, such as the one-draw
# blocks of the acceptance runs, are decided in float64 alone. Per noise level
# of a K = 4, T = 50 QPSK design (2-vCPU x86-64, numpy 2.4, the table's build
# spread over 6 levels), float64 against the table took 9 vs 21 µs at 1,000
# points, 21 vs 23 µs at 4,000 and 42 vs 30 µs at 10,000.
FILTER_MIN_POINTS = 10_000
# the table path runs while a lies in [1/_TABLE_TOP, _TABLE_TOP] and no noise
# or noise-free part is larger than _TABLE_TOP; see decide_block
_TABLE_TOP = 2.0 ** 40
# the table's guard (decide_block), relative to |z|_1 + a*|n|_1
_EPS = 2.0 ** -38
# an edge line is regular for a noise point when |f_j(n)| is at least this
# share of |n|_1 (plus 1/_TABLE_TOP); an irregular line is never certain
_SLOPE = 2.0 ** -16
# a is widened by this share before it is compared with the table
_WIDEN = 2.0 ** -20


def _edge_lines(c: PskConstellation):
    """cos and sin of the angles pi/L + 2*pi*j/L, j < L/2, of the lines that
    hold the L sector edges, each a (L/2, 1) column."""
    beta = (2 * np.arange(c.order // 2) + 1) * np.pi / c.order
    return np.cos(beta)[:, None], np.sin(beta)[:, None]


@dataclass(frozen=True, eq=False)
class NoiseBlock:
    """One channel's noise draws: n_noise x K x T complex samples, planar.

    planar is a read-only real (2, n_noise, K, T) float64 array, all real
    parts first (planar[0] + 1j*planar[1] is the complex block), and peak is
    its largest |entry|. On a large block, decide_block keeps the noise's
    edge forms for the last constellation order and the crossing table of
    the last design in the block's memo, one entry each.
    """

    planar: np.ndarray
    peak: float = field(init=False)
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        planar = np.asarray(self.planar)
        if (planar.dtype.kind != "f" or planar.ndim != 4 or planar.shape[0] != 2
                or 0 in planar.shape):
            raise ValueError("noise must be a real (2, n_noise >= 1, K, T) block")
        planar = planar.astype(np.float64)  # the block's own copy
        planar.flags.writeable = False
        object.__setattr__(self, "planar", planar)
        # max |entry| without an |planar| temporary; NaN if any entry is NaN
        object.__setattr__(self, "peak", float(np.maximum(planar.max(), -planar.min())))

    def _noise_forms(self, c: PskConstellation):
        """Per edge line j and noise point: 1/f_j(n) in float32 (NaN where the
        line is irregular) and whether f_j(n) < 0, each (L/2, n_noise*K*T);
        None when the peak is above _TABLE_TOP or NaN."""
        if self._memo.get("forms", (None,))[0] != c.order:
            forms = None
            if self.peak <= _TABLE_TOP:
                cos, sin = _edge_lines(c)
                re, im = self.planar.reshape(2, -1)
                floor, part = np.abs(re), np.abs(im)
                floor += part
                floor *= _SLOPE
                floor += 1.0 / _TABLE_TOP
                form = np.empty_like(re)
                inv = np.empty((len(cos), re.size), dtype=np.float32)
                negative = np.empty(inv.shape, dtype=bool)
                for j in range(len(cos)):
                    np.multiply(im, cos[j], out=form)
                    form -= np.multiply(re, sin[j], out=part)
                    np.less(form, 0.0, out=negative[j])
                    irregular = np.abs(form, out=part) < floor
                    with np.errstate(divide="ignore"):  # irregular where form is 0
                        np.divide(1.0, form, out=part)
                    np.copyto(part, np.nan, where=irregular)
                    inv[j] = part
                forms = inv, negative
            self._memo["forms"] = c.order, forms
        return self._memo["forms"][1]

    def _crossing_table(self, zz: np.ndarray, c: PskConstellation):
        """decide_block's crossing table for the noise-free points zz: the
        (L, n_noise*K*T) float32 bounds, hi_j in rows j < L/2 and lo_j in
        rows L/2 + j, and the noise forms' signs; None when the table path
        does not apply. The last design's table is memoized."""
        key = zz.tobytes(), c.order
        # popped, so that the old table is freed before a new one is built
        memo = self._memo.pop("table", (None, None))
        if memo[0] != key:
            forms = self._noise_forms(c)
            memo = key, None
            if forms is not None and np.abs(zz).max() <= _TABLE_TOP:
                inv, negative = forms
                cos, sin = _edge_lines(c)
                zre, zim = zz.reshape(2, 1, -1)
                guard = np.abs(zre) + np.abs(zim)
                guard *= _EPS
                form = zim * cos - zre * sin
                low = (-form - guard).astype(np.float32)
                high = (-form + guard).astype(np.float32)
                half = c.order // 2
                bounds = np.empty((c.order, inv.shape[1]), dtype=np.float32)
                kt = zz[0].size
                one, two = (np.empty((inv.shape[1] // kt, kt), dtype=np.float32)
                            for _ in range(2))
                for j in range(half):
                    w = inv[j].reshape(-1, kt)
                    np.multiply(w, low[j], out=one)
                    np.multiply(w, high[j], out=two)
                    np.maximum(one, two, out=bounds[j].reshape(-1, kt))
                    np.minimum(one, two, out=bounds[half + j].reshape(-1, kt))
                memo = key, (bounds, negative)
        self._memo["table"] = memo
        return memo[1]


def decide_block(noise: NoiseBlock, zz: np.ndarray, a: float,
                 c: PskConstellation) -> np.ndarray:
    """Sector indices, (n_noise, K, T) uint8, of the receive points
    fl(fl(a*noise) + zz), where zz holds the noise-free points as a planar
    (2, K, T) array: decide_index's result on those float64 points, bit for
    bit. decide_index is called once, through this module's global name, so
    a wrapper installed there (perfbench's tracer) sees every decision call.

    A large block is decided from a crossing table that the block keeps for
    its last design (zz and L), so further noise levels of that design only
    compare a with it. Edge line j < L/2 lies at angle b_j = pi/L + 2*pi*j/L
    and holds the edges j and j + L/2; its form f_j(y) = Im(y*exp(-i*b_j))
    is positive on its counter-clockwise side. The signs of the L/2 forms
    fix the sector: with m positive forms, it is m if f_0 > 0, else
    (L - m) mod L. Along y(a) = z + a*n, f_j(y(a)) = f_j(z) + a*f_j(n)
    changes sign once, at t_j = -f_j(z)/f_j(n).

    Why the table's decisions are exact (u = 2^-53, |.|_1 = |Re| + |Im|,
    S = |z|_1 + a*|n|_1):
      - A line is regular for a noise point when |f_j(n)| >= 2^-16 * |n|_1 +
        2^-40; an irregular line is never certain.
      - Call a regular line j certain at a when the exact
        |f_j(z) + a*f_j(n)| exceeds 2^-40 * S. The float64 point y lies
        within 2.01u*S + 2^-1073 of z + a*n in any form, where
        S >= a*|n|_1 >= 2^-80, so f_j(y) has that sign and
        |f_j(y)| > 2^-41 * |y|: y is more than 2^-41 rad from both edges on
        the line. decide_index's arctan2 errs by a few ulps and its shift
        and scaling by a few u of a sector, far less; so on a point certain
        on every line it returns the sector that the signs give.
      - The forms are computed in float64, within 4u of the exact ones times
        |.|_1 (cos and sin of b_j included), so with _EPS = 2^-38 it is
        enough that |g(a)| > _EPS * S, where g is the computed forms' line.
        With t the computed t_j, C = _EPS*|z|_1, c' = C/|f_j(n)| and
        r = _EPS*|n|_1/|f_j(n)| <= 2^-22, that fails only for a in
        [(t - c')/(1 + r), (t + c')/(1 - r)].
      - The block keeps w = 1/f_j(n) in float32 (NaN on an irregular line)
        and its sign; per design, P = -f_j(z) - C and Q = -f_j(z) + C in
        float32 give lo = min(w*P, w*Q) <= t - c' and
        hi = max(w*P, w*Q) >= t + c'.
      - A line is above when hi < f32(a/(1 + 2^-20)): then a > hi/(1 - r),
        the form is certain and has w's sign. It is below when
        lo > f32(a*(1 + 2^-20)): then a < lo/(1 + r) and the form is certain
        with the opposite sign. The widening 2^-20 covers r and the float32
        roundings of w, P, Q, the products and the scalar (2^-24 each,
        relative), and their error below float32's normal range (at most
        2^-109 absolutely, while a >= 2^-40). An irregular line's NaN is
        neither.
    A point with every line above or below takes the sector of its signs.
    The rest are rebuilt in float64 with the same two roundings, gathered,
    and decided by decide_index. The table path runs for a in [2^-40, 2^40]
    with every noise and noise-free part at most 2^40 (_TABLE_TOP); there w,
    P and Q are normal and the products finite. Other blocks, small ones and
    those with a NaN part (which then raises in decide_index) take the
    float64 path whole.
    """
    table = None
    if (noise.planar[0].size >= FILTER_MIN_POINTS
            and 1.0 / _TABLE_TOP <= a <= _TABLE_TOP):
        table = noise._crossing_table(zz, c)
    if table is None:
        # every point in float64
        y = np.multiply(noise.planar, a)
        y += zz[:, None]
        return decide_index(y[0], y[1], c)
    bounds, negative = table
    half = c.order // 2
    side = np.empty(bounds.shape, dtype=bool)
    above, below = side[:half], side[half:]
    np.less(bounds[:half], np.float32(a / (1.0 + _WIDEN)), out=above)
    np.greater(bounds[half:], np.float32(a * (1.0 + _WIDEN)), out=below)
    certain = np.logical_or(above, below, out=below)
    sure = np.logical_and.reduce(certain, axis=0)
    positive = np.logical_xor(above, negative, out=above)
    decided = positive.view(np.uint8).sum(axis=0, dtype=np.uint8)
    # the count m where f_0 > 0, else -m: with s = 0 or 255 (-1 in uint8),
    # (m ^ s) - s is m or -m (a select by arithmetic, with no branch per point)
    flip = positive[0].view(np.uint8) - 1
    decided ^= flip
    decided -= flip
    decided &= c.order - 1
    # the uncertain points: the float64 path's arithmetic on the gathered points
    flat = np.flatnonzero(~sure)
    kt = zz[0].size
    y = noise.planar.reshape(2, -1)[:, flat] * a
    y += zz.reshape(2, -1)[:, flat % kt]
    decided[flat] = decide_index(y[0], y[1], c)
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


def _check_indices(index, c: PskConstellation) -> np.ndarray:
    """index as an array of symbol indices of c; a non-integer dtype (bool
    included) or an index outside [0, L) raises ValueError."""
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise ValueError(f"symbol indices must be integers, got dtype {index.dtype}")
    if index.size and (index.dtype.kind == "i" and index.min() < 0 or index.max() >= c.order):
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
    # the Gray code x ^ (x >> 1) is linear over xor, so it is taken once, of
    # sent ^ decided, in place; the shifted copy then holds each bit plane
    diff = np.atleast_1d(sent ^ decided)
    plane = diff >> 1
    diff ^= plane
    return sum(int(np.count_nonzero(np.bitwise_and(diff, 1 << b, out=plane)))
               for b in range(c.bits_per_symbol))


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
