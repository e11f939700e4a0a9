"""Reference versions of symbol decisions and Monte-Carlo error counting.

decide and gray_bits state the decision rule and the Gray labelling one
point at a time. The reference_* functions are the plain array formulation
of the counting path: each step builds a full-size temporary, the sent
indices are broadcast to the shape of the decisions, and bit errors come
from a popcount lookup of xored Gray labels. The package keeps the receive
points in planar form (real and imaginary parts as two real arrays), decides
them with arctan2 and counts the xored labels' bits one bit plane at a time;
its results must equal these bit for bit.

expected_errors gives the exact expected error counts of a fixed BPSK or
QPSK design per receive point, symbol_error_bounds brackets the symbol error
probability of an 8- or 16-PSK one, and chernoff_log_tail bounds how far a
Monte-Carlo count may stray from them.
"""

import numpy as np
from scipy.special import ndtr

from irsprecode.channel import effective_matrix
from irsprecode.constellation import PskConstellation, decide_index
from irsprecode.onebit import frame_array

# popcount for 4-bit Gray labels, enough for L <= 16
_POPCOUNT4 = np.array([bin(i).count("1") for i in range(16)], dtype=np.int64)


def decide(y, c: PskConstellation):
    """Hard decision: the constellation point whose sector contains y."""
    return c.points[decide_index(np.real(y), np.imag(y), c)]


def planar_to_complex(re, im):
    """The complex array with exactly these real and imaginary parts.

    re + 1j*im is not it: 1j*im is a complex product whose +0 real part turns
    a -0 in re into +0, and whose imaginary part turns a -0 in im into +0.
    """
    re, im = np.broadcast_arrays(re, im)
    y = np.empty(re.shape, dtype=complex)
    y.real, y.imag = re, im
    return y


def gray_code(index):
    """Binary-reflected Gray label of a symbol index (vectorized, same dtype)."""
    index = np.asarray(index)
    return index ^ (index >> 1)


def gray_bits(symbol, c: PskConstellation) -> np.ndarray:
    """Gray-label bits of one constellation point, most significant bit first."""
    idx = int(np.argmin(np.abs(c.points - symbol)))
    if abs(c.points[idx] - symbol) > 1e-9:
        raise ValueError(f"{symbol!r} is not a point of {c!r}")
    g = int(gray_code(idx))
    nbits = c.bits_per_symbol
    return np.array([(g >> (nbits - 1 - b)) & 1 for b in range(nbits)], dtype=np.uint8)


def reference_decide_index(y, c: PskConstellation):
    half = np.pi / c.order
    idx = np.floor((np.angle(y) + half) / (2.0 * half)).astype(np.int64)
    return np.mod(idx, c.order)


def reference_bit_errors(sent_index, decided_index, c: PskConstellation):
    diff = np.bitwise_xor(gray_code(sent_index), gray_code(decided_index))
    return int(_POPCOUNT4[diff].sum())


def reference_simulate_transmission(frame, phases, ch, symbols, sigma2, noise):
    """(bit_errors, sym_errors, bits, syms), as harness.simulate_transmission."""
    z = effective_matrix(ch, phases) @ frame_array(frame).T
    # each part is Re/Im z plus the scaled noise part; the complex product
    # a * (nr + j*ni) computes nr*a - ni*0, which can turn a -0 part into +0
    noise, a = noise.planar, np.sqrt(sigma2 / 2.0)
    y = planar_to_complex(z.real + a * noise[0], z.imag + a * noise[1])
    c = symbols.constellation
    decided = reference_decide_index(y, c)
    sym_err = int(np.sum(decided != symbols.indices[None, :, :]))
    bit_err = reference_bit_errors(np.broadcast_to(symbols.indices, y.shape), decided, c)
    return bit_err, sym_err, y.size * c.bits_per_symbol, y.size


def expected_errors(frame, phases, ch, symbols, sigma2):
    """Expected (bit errors, symbol errors) of each K x T receive point of a
    fixed BPSK or QPSK design under CN(0, sigma2) noise.

    Rotate each noise-free point by its sent symbol: w = z * conj(s). BPSK
    errs when Re w + n < 0, n ~ N(0, sigma2 / 2). Gray-coded QPSK errs in
    one bit when u + n_u < 0 and in the other when v + n_v > 0, with
    u = Re w + Im w, v = Im w - Re w and n_u, n_v independent N(0, sigma2);
    so a point expects Q(u / sigma) + Q(-v / sigma) bit errors.
    """
    w = effective_matrix(ch, phases) @ frame_array(frame).T * np.conj(symbols.symbols)
    order = symbols.constellation.order
    if order == 2:
        p = ndtr(-w.real / np.sqrt(sigma2 / 2.0))
        return p, p
    if order != 4:
        raise ValueError(f"no closed form for {order}-PSK")
    p_u = ndtr(-(w.real + w.imag) / np.sqrt(sigma2))  # Q(u / sigma)
    p_v = ndtr((w.imag - w.real) / np.sqrt(sigma2))   # Q(-v / sigma)
    return p_u + p_v, p_u + p_v - p_u * p_v


def symbol_error_bounds(frame, phases, ch, symbols, sigma2):
    """Lower and upper bounds max(Q1, Q2) and Q1 + Q2 on the symbol error
    probability of each K x T receive point of a fixed L-PSK design, L >= 8,
    under CN(0, sigma2) noise, where L-PSK has no closed form.

    With w = z * conj(s), the sent symbol's decision wedge is the half-plane
    pair d1 > 0, d2 > 0 with d1,2 = Re w sin(pi/L) -/+ Im w cos(pi/L), the
    point's distances to the wedge's edges. Each distance moves by an
    N(0, sigma2 / 2) noise component, so the point leaves half-plane i with
    probability Qi = Q(di / sqrt(sigma2 / 2)); it errs when it leaves either.
    """
    w = effective_matrix(ch, phases) @ frame_array(frame).T * np.conj(symbols.symbols)
    half = np.pi / symbols.constellation.order
    scale = np.sqrt(sigma2 / 2.0)
    q1 = ndtr(-(w.real * np.sin(half) - w.imag * np.cos(half)) / scale)
    q2 = ndtr(-(w.real * np.sin(half) + w.imag * np.cos(half)) / scale)
    return np.maximum(q1, q2), q1 + q2


def chernoff_log_tail(count: int, mean: float) -> float:
    """ln of the Chernoff bound count - mean - count * ln(count / mean) on
    P[X >= count] (count above the mean) or P[X <= count] (below it), for X a
    sum of independent Bernoulli variables with this mean."""
    return count - mean - (count * np.log(count / mean) if count else 0.0)
