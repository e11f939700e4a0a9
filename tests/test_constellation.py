"""Constellation geometry, decisions, margin, and error-bound tests.

Frozen reference values were computed with an independent oracle
(scipy.integrate.quad of the standard normal pdf) and are pinned here.
Decisions and bit-error counts are checked bit for bit against the plain
array formulation in counting_oracles.
"""

import numpy as np
import pytest
from counting_oracles import (
    decide,
    gray_bits,
    planar_to_complex,
    reference_bit_errors,
    reference_decide_index,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from irsprecode.constellation import (
    PskConstellation,
    SymbolFrame,
    bit_errors,
    decide_index,
    gray_code,
    margin,
    q_function,
    sep_upper_bound,
)


def test_orders_accepted_and_rejected():
    for order in (2, 4, 8, 16):
        c = PskConstellation(order)
        assert c.points.shape == (order,)
        assert np.allclose(np.abs(c.points), 1.0)
    for bad in (0, 1, 3, 5, 32, -4):
        with pytest.raises(ValueError):
            PskConstellation(bad)


def test_bpsk_cot_is_exactly_zero():
    assert PskConstellation(2).cot_half_sector == 0.0


# --- q_function: frozen quad-integration oracle values ---------------------

@pytest.mark.parametrize(
    "x,expected",
    [
        (0.0, 0.5),
        (1.0, 0.158655253931457),
        (1.6449, 0.049995217468346),
        (3.0, 0.001349898031630),
    ],
)
def test_q_function_against_integration_oracle(x, expected):
    assert q_function(x) == pytest.approx(expected, rel=1e-10, abs=1e-15)


def test_q_function_tail_and_monotonicity():
    assert q_function(40.0) <= 1e-300
    xs = np.linspace(-5, 8, 200)
    qs = q_function(xs)
    assert np.all(np.diff(qs) < 0)
    assert np.all((qs > 0) & (qs < 1))


# --- decide ----------------------------------------------------------------

def test_decide_matches_nearest_point_away_from_boundaries():
    rng = np.random.default_rng(7)
    for order in (2, 4, 8, 16):
        c = PskConstellation(order)
        y = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        # nearest-point rule agrees with the sector rule except on boundaries,
        # which have measure zero for these draws
        nearest = np.argmin(np.abs(y[:, None] - c.points[None, :]), axis=1)
        assert np.array_equal(decide_index(y.real, y.imag, c), nearest)


def test_decide_boundary_goes_counter_clockwise():
    c = PskConstellation(4)
    y = np.exp(1j * np.pi / 4)  # exactly between points 0 and 1
    assert decide(y, c) == pytest.approx(np.exp(1j * np.pi / 2))
    assert decide_index(y.real, y.imag, c) == 1


def test_decide_zero_input_sector_zero():
    c = PskConstellation(8)
    assert decide_index(0.0, 0.0, c) == 0
    assert decide(0j, c) == pytest.approx(1.0 + 0j)
    # a zero with a negative-zero real part has phase +/-pi: sector L/2
    assert decide_index(-0.0, 0.0, PskConstellation(4)) == 2
    assert decide_index(-0.0, -0.0, PskConstellation(4)) == 2


def test_decide_negative_real_axis():
    # angle(-1) may come out as +pi or -pi depending on the sign of the zero
    # imaginary part; both must land on the same symbol
    c = PskConstellation(4)
    assert decide_index(-1.0, 0.0, c) == 2
    assert decide_index(-1.0, -0.0, c) == 2


@pytest.mark.parametrize("y", [complex(np.nan, 0.0), complex(0.0, np.nan),
                               complex(np.inf, np.nan),
                               np.array([[1 + 1j, -1j], [complex(np.nan, 1.0), 1.0]])],
                         ids=["nan-real", "nan-imag", "inf-nan", "array"])
def test_decide_rejects_nan(y):
    # a NaN has no sector; it used to come out as sector 0 with a cast warning
    with np.errstate(invalid="raise"):
        with pytest.raises(ValueError, match="NaN"):
            decide_index(np.real(y), np.imag(y), PskConstellation(4))


def test_decide_keeps_infinite_points():
    # infinite parts still have an angle, so they still have a sector
    c = PskConstellation(4)
    assert decide_index(np.inf, np.inf, c) == 1
    assert decide_index(-np.inf, 0.0, c) == 2


# --- margin ----------------------------------------------------------------

def test_margin_formula_cases():
    c = PskConstellation(4)  # cot(pi/4) = 1
    assert margin(1.0 + 0.0j, c) == pytest.approx(1.0)
    assert margin(1.0 + 0.5j, c) == pytest.approx(0.5)
    assert margin(1.0 - 0.5j, c) == pytest.approx(0.5)
    assert margin(np.exp(1j * np.pi / 4), c) == pytest.approx(0.0, abs=1e-15)
    c2 = PskConstellation(2)
    assert margin(0.3 + 9j, c2) == pytest.approx(0.3)


def test_margin_sign_agrees_with_decision_sector():
    rng = np.random.default_rng(11)
    for order in (2, 4, 8):
        c = PskConstellation(order)
        z = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        m = margin(z, c)
        y = z * c.points[0]
        decided_nominal = decide_index(y.real, y.imag, c) == 0
        # strictly inside the sector <=> positive margin (boundaries measure zero)
        assert np.array_equal(m > 0, decided_nominal)


def test_margin_nonpositive_when_decided_elsewhere():
    rng = np.random.default_rng(12)
    c = PskConstellation(8)
    for s_idx in range(8):
        s = c.points[s_idx]
        z = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        y = z * s
        wrong = decide_index(y.real, y.imag, c) != s_idx
        assert np.all(margin(z[wrong], c) <= 0)


@settings(max_examples=300, deadline=None)
@given(re=st.floats(-1e6, 1e6, allow_subnormal=False),
       im=st.floats(-1e6, 1e6, allow_subnormal=False),
       scale=st.floats(1e-6, 1e6), order=st.sampled_from([2, 4, 8, 16]))
def test_margin_positively_homogeneous(re, im, scale, order):
    c = PskConstellation(order)
    z = complex(re, im)
    # both sides round a handful of times on terms of this size; the floor
    # covers products that underflow
    size = scale * (abs(re) + abs(im) * c.cot_half_sector)
    assert abs(margin(scale * z, c) - scale * margin(z, c)) <= 1e-14 * size + 1e-300


# --- sep_upper_bound --------------------------------------------------------

def test_sep_bound_frozen_value():
    c = PskConstellation(4)
    # alpha=1, sigma2=2: 2*Q(sin(pi/4)); oracle value from quad integration
    assert sep_upper_bound(1.0, 2.0, c) == pytest.approx(0.479500122186954, rel=1e-12)


def test_sep_bound_monotone_and_positive():
    c = PskConstellation(8)
    alphas = np.linspace(-0.5, 3.0, 50)
    b = sep_upper_bound(alphas, 1.0, c)
    assert np.all(np.diff(b) < 0)  # decreasing in the margin
    assert np.all(b > 0)
    assert sep_upper_bound(-1.0, 1.0, c) > 1.0  # raw value may exceed 1


def test_sep_bound_rejects_bad_sigma():
    c = PskConstellation(4)
    with pytest.raises(ValueError):
        sep_upper_bound(1.0, 0.0, c)
    with pytest.raises(ValueError):
        sep_upper_bound(1.0, -1.0, c)


def test_sep_bound_empirical_rate_below_bound():
    # fixed rotated point z, additive CN(0, sigma2) noise, 1e5 draws:
    # empirical error rate <= bound + 3 binomial std
    rng = np.random.default_rng(2024)
    n = 100_000
    for order, z, sigma2 in [(4, 0.8 + 0.2j, 0.5), (8, 1.1 - 0.1j, 0.3), (2, 0.5 + 0j, 1.0)]:
        c = PskConstellation(order)
        s = c.points[2 % order]
        noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        y = z * s + noise
        rate = np.mean(decide_index(y.real, y.imag, c) != (2 % order))
        bound = min(1.0, sep_upper_bound(margin(z, c), sigma2, c))
        mc_std = np.sqrt(max(bound * (1 - bound), 1e-12) / n)
        assert rate <= bound + 3 * mc_std


# --- Gray labeling ----------------------------------------------------------

def test_gray_code_qpsk_sequence():
    assert list(gray_code(np.arange(4))) == [0b00, 0b01, 0b11, 0b10]


def test_gray_bits_adjacent_symbols_differ_in_one_bit():
    for order in (4, 8, 16):
        c = PskConstellation(order)
        labels = [gray_bits(p, c) for p in c.points]
        for i in range(order):
            d = int(np.sum(labels[i] != labels[(i + 1) % order]))
            assert d == 1
        assert all(len(b) == c.bits_per_symbol for b in labels)


def test_gray_bits_rejects_non_constellation_point():
    c = PskConstellation(4)
    with pytest.raises(ValueError):
        gray_bits(0.5 + 0.5j, c)


def test_bit_errors_counts_gray_distance():
    c = PskConstellation(4)
    sent = np.array([0, 0, 0, 0])
    got = np.array([0, 1, 2, 3])
    # Gray labels 00,01,11,10: distances 0,1,2,1
    assert bit_errors(sent, got, c) == 4
    assert bit_errors(np.array([2]), np.array([2]), c) == 0


@pytest.mark.parametrize("bad", [np.array([[0.0, 1.0]]), np.array([[True, False]]),
                                 np.array([[0j, 1]])], ids=["float", "bool", "complex"])
def test_bit_errors_rejects_non_integer_indices(bad):
    # a float index used to fail only by accident, in bincount; a cast to
    # uint8 would truncate it silently
    c = PskConstellation(4)
    ints = np.array([[0, 1]])
    for sent, decided in ((bad, ints), (ints, bad)):
        with pytest.raises(ValueError, match="integers"):
            bit_errors(sent, decided, c)


@pytest.mark.parametrize("sent, decided", [(0, 5), (0, 4), (0, -1), (4, 0), (-1, 3)])
def test_bit_errors_rejects_indices_outside_the_constellation(sent, decided):
    # (0, 5) used to land in the table cell of (1, 1) and count 0 bit errors
    c = PskConstellation(4)
    with pytest.raises(ValueError, match="out of range"):
        bit_errors(np.array([[sent, 0]]), np.array([[decided, 0]]), c)


# --- bit identity with the plain array formulation ---------------------------

_ZERO = st.sampled_from([0.0, -0.0])
_INF = st.sampled_from([np.inf, -np.inf])
_MAGNITUDE = st.one_of(st.floats(1e-300, 1e300),
                       st.integers(-300, 300).map(lambda e: 10.0 ** e))


@st.composite
def receive_points(draw, order):
    """Receive points that stress the sector rule: points on sector
    boundaries, exact diagonals (the QPSK sector edges re == +/-im), signed
    zeros, the negative real axis with a +0 or -0 imaginary part, infinite
    parts, and magnitudes from 1e-300 to 1e300."""
    kind = draw(st.sampled_from(["boundary", "diagonal", "zero", "negative-real",
                                 "infinite", "any"]))
    r = draw(_MAGNITUDE)
    if kind == "boundary":
        edge = draw(st.integers(0, order - 1))
        return complex(r * np.exp(1j * np.pi * (2 * edge + 1) / order))
    if kind == "diagonal":
        return complex(r * draw(st.sampled_from([1, -1])), r * draw(st.sampled_from([1, -1])))
    if kind == "zero":
        return complex(draw(_ZERO), draw(_ZERO))
    if kind == "negative-real":
        return complex(-r, draw(_ZERO))
    if kind == "infinite":
        inf = draw(_INF)
        other = draw(st.one_of(_ZERO, _INF, _MAGNITUDE, _MAGNITUDE.map(lambda v: -v)))
        return complex(inf, other) if draw(st.booleans()) else complex(other, inf)
    return complex(r * np.exp(1j * draw(st.floats(-np.pi, np.pi))))


@settings(max_examples=200, deadline=None)
@given(order=st.sampled_from([2, 4, 8, 16]), n=st.integers(1, 5000),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_decisions_and_bit_errors_match_the_reference(order, n, seed, data):
    c = PskConstellation(order)
    pool = np.array(data.draw(st.lists(receive_points(order), min_size=1, max_size=32)))
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(pool), size=n)
    re, im = pool.real[pick], pool.imag[pick]  # contiguous copies
    got = decide_index(re, im, c)
    want = reference_decide_index(planar_to_complex(re, im), c)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    sent = rng.integers(0, order, size=n)
    for s, d in ((sent, got), (sent.astype(np.uint8), got.astype(np.int64))):
        assert bit_errors(s, d, c) == reference_bit_errors(sent, want, c)
    for point in pool:
        got = decide_index(point.real, point.imag, c)
        assert isinstance(got, np.uint8) and got == reference_decide_index(point, c)
    # a NaN in either part has no sector
    part = re if data.draw(st.booleans()) else im
    part[rng.integers(n)] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        decide_index(re, im, c)


# --- SymbolFrame -------------------------------------------------------------

def test_symbol_frame_random_and_membership():
    c = PskConstellation(8)
    rng = np.random.default_rng(3)
    f = SymbolFrame.random(c, 4, 10, rng)
    assert f.indices.shape == (4, 10)
    assert f.n_users == 4 and f.n_slots == 10
    assert np.allclose(np.abs(f.symbols), 1.0)
    assert np.allclose(c.points[f.indices], f.symbols)


def test_symbol_frame_from_symbols_roundtrip_and_reject():
    c = PskConstellation(4)
    rng = np.random.default_rng(5)
    f = SymbolFrame.random(c, 3, 7, rng)
    g = SymbolFrame.from_symbols(f.symbols, c)
    assert np.array_equal(f.indices, g.indices)
    with pytest.raises(ValueError):
        SymbolFrame.from_symbols(np.array([[0.3 + 0.1j]]), c)
    with pytest.raises(ValueError):
        SymbolFrame(np.array([[0, 4]]), c)  # index out of range


@pytest.mark.parametrize("bad", [np.array([[0.5, 1.2]]), np.array([[0.0, 1.0]]),
                                 np.array([[True, False]])],
                         ids=["fractional", "integral-float", "bool"])
def test_symbol_frame_rejects_non_integer_indices(bad):
    # [[0.5, 1.2]] used to become the indices [[0, 1]] without a word
    with pytest.raises(ValueError, match="integers"):
        SymbolFrame(bad, PskConstellation(4))
