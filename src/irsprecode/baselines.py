"""Comparison transmit schemes: zero-forcing, box-relaxed SLP, naive quantizers.

The box-relaxed curve is a proxy for an unquantized ("infinite-bit") design:
it optimizes the same worst-margin objective over the box [-s, s]^{2M} and is
a true lower bound for the one-bit problem, but it is not a reimplementation
of any external precoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .constellation import SymbolFrame
from .onebit import (
    OneBitFrame,
    SolverConfig,
    check_real,
    frame_slots,
    onebit_amplitude,
    solve_relaxed,
)

# singular values below max(sv) * this are treated as zero in the ZF inverse
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ZfFrame:
    """Continuous zero-forcing frame; full_rank is False when the effective
    channel was rank deficient and a thresholded pseudoinverse was used."""

    x: np.ndarray
    full_rank: bool


def zf_precode(h_eff: np.ndarray, symbols: SymbolFrame, power: float) -> ZfFrame:
    """Zero-forcing precoder W = H^H (H H^H)^{-1} with per-slot power scaling.

    Each slot transmits x_t = gamma_t * W s_t with gamma_t chosen so that
    ||x_t||^2 = power, which keeps H x_t proportional to s_t (zero multiuser
    interference before quantization).
    """
    h_eff = np.atleast_2d(np.asarray(h_eff, dtype=complex))
    k, m = h_eff.shape
    if symbols.n_users != k:
        raise ValueError(f"symbol frame has {symbols.n_users} users, channel has {k}")

    sv = np.linalg.svd(h_eff, compute_uv=False)
    full_rank = bool(m >= k and sv.min() > RANK_RTOL * sv.max())
    if full_rank:
        gram = h_eff @ h_eff.conj().T
        w = np.linalg.solve(gram, h_eff).conj().T
    else:
        w = np.linalg.pinv(h_eff, rcond=RANK_RTOL)

    return ZfFrame(x=rescale_to_power((w @ symbols.symbols).T, power), full_rank=full_rank)


def quantize_onebit(x: np.ndarray, power: float) -> OneBitFrame:
    """Elementwise sign quantization of real and imaginary parts to +/- s.

    s = onebit_amplitude(power, M) for the frame's M = x.shape[1] antennas;
    zeros quantize to +s by convention.
    """
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    s = onebit_amplitude(power, x.shape[1])
    return OneBitFrame(xbar=np.where(np.concatenate([x.real, x.imag], axis=1) >= 0, s, -s),
                       amplitude=s)


@dataclass(frozen=True)
class RelaxedFrame:
    """Per-slot box-relaxation output.

    x: (T, M) complex frame with real/imag parts in [-s, s].
    relax_values: per-slot lower bounds -f_mu(lam) on the regularized box
        objective, same convention as the one-bit solver's relax_value.
    converged: per-slot mirror-descent convergence flags.
    """

    x: np.ndarray
    relax_values: np.ndarray
    converged: np.ndarray


def relaxed_slp(h_eff: np.ndarray, symbols: SymbolFrame, power: float,
                opts: SolverConfig = SolverConfig(),
                lam0: np.ndarray | None = None) -> RelaxedFrame:
    """Box-relaxed symbol-level precoder: the one-bit solver without rounding.

    Runs the identical coefficient construction and dual solve (solve_relaxed,
    with its mu-continuation) as the one-bit path, so its per-slot relaxation
    values match that solver bit for bit under the same settings and starts.
    lam0, a (T, 2K) block of simplex points, starts slot t's dual solve at
    row t; a block of another shape raises ValueError. None starts every slot
    cold; onebit.frame_slots sets up the slots and their starts either way.
    At the joint design's phases the harness passes AO's last dual points as
    they are after a margin-rule or fixed-point stop, and None after a
    round-cap stop.
    """
    results = [solve_relaxed(coeff, opts, start)
               for coeff, start in frame_slots(h_eff, symbols, power, opts, lam0)]
    xrel = np.stack([xrel for xrel, _ in results])
    m = xrel.shape[1] // 2
    return RelaxedFrame(x=xrel[:, :m] + 1j * xrel[:, m:],
                        relax_values=np.array([-md.value for _, md in results]),
                        converged=np.array([md.converged for _, md in results]))


def rescale_to_power(x: np.ndarray, power: float) -> np.ndarray:
    """Scale each slot of a continuous frame to transmit power `power`.

    Margins are positively homogeneous, so scaling a box-feasible design up
    to the full per-slot power budget (entries no longer box-bounded) gives
    the matching unquantized full-power design. Zero slots stay zero.
    """
    check_real("power", power, positive=True)
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    norms = np.linalg.norm(x, axis=1)
    scale = np.ones_like(norms)
    ok = norms > 0
    scale[ok] = np.sqrt(power) / norms[ok]
    return x * scale[:, None]


def no_irs_variant(ch: ChannelSet) -> ChannelSet:
    """Channel set with the reflected path removed (G = 0).

    The effective channel then equals the direct channel, and every phase
    coefficient vanishes, making the reflection step a no-op.
    """
    return ChannelSet(h_d=ch.h_d, g=np.zeros_like(ch.g), h_r=ch.h_r)


@dataclass(frozen=True)
class SchemeSpec:
    """How the harness builds a transmit frame for one scheme identifier."""

    x_mode: str           # "onebit" | "relaxed" | "relaxed-quant" | "zf-quant"
    with_irs: bool


# the harness keys each scheme's design substream by its place in this order
SCHEMES = {base + suffix: SchemeSpec(x_mode=mode, with_irs=not suffix)
           for base, mode in (("onebit-md", "onebit"), ("relaxed", "relaxed"),
                              ("relaxed-quant", "relaxed-quant"), ("zf-quant", "zf-quant"))
           for suffix in ("", "-noirs")}
