"""Monte-Carlo error-rate experiments over random channel realizations.

Every random draw is keyed by (seed, channel index, stream tag), so all
schemes and all noise points see identical channels, symbols, and noise
(common random numbers), and results are bit-identical regardless of how
many worker processes run the channels.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ao import alternating_optimize, best_round, frame_margins, stopped_by_rule
from .baselines import (
    SCHEMES,
    no_irs_variant,
    quantize_onebit,
    relaxed_slp,
    rescale_to_power,
    zf_precode,
)
from .channel import ChannelSet, PhaseShifts, drop_users, effective_matrix, sample_channels
from .constellation import (
    PskConstellation,
    SymbolFrame,
    bit_errors,
    decide_index,
)
from .onebit import (
    OneBitFrame,
    SolverConfig,
    build_coefficients,
    check_count,
    check_real,
    frame_array,
    is_real,
    model_starts,
    solve_symbol,
    start_mu,
)

CSV_COLUMNS = (
    "scheme", "inv_sigma2_db", "ber", "ser", "bit_errors", "bits",
    "sym_errors", "syms", "mean_worst_margin", "mean_runtime_s",
    "n_channels_ok", "n_channels_failed",
)

# substream tags; the design tag block is keyed by the canonical scheme order
# so that adding or removing schemes never perturbs another scheme's draws
_TAG_CHANNEL = 0
_TAG_SYMBOLS = 1
_TAG_NOISE = 2
_TAG_THETA = 3
_TAG_DESIGN_BASE = 16
_CANONICAL_ORDER = tuple(SCHEMES)

THETA_POLICIES = ("shared", "random")


def check_schemes(schemes) -> tuple:
    """schemes as a tuple of known identifiers, at least one and none twice."""
    if isinstance(schemes, str):
        raise ValueError("schemes must be a sequence of identifiers, not a string")
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("schemes must be nonempty")
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; valid: {sorted(SCHEMES)}")
    if len(set(schemes)) != len(schemes):
        raise ValueError("duplicate scheme identifiers")
    return schemes


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; JSON round-trippable.

    noise_grid_db lists 1/sigma^2 values in dB. power is linear. theta_policy
    sets how baseline schemes obtain phase shifts: "shared" reuses the joint
    design's output and "random" always draws fresh phases. Schemes with no
    phase source fall back to random phases. record_runtime toggles the
    wall-time column; switch it off to make CSV output byte-reproducible
    across machines and worker counts.
    """

    m: int = 128
    n: int = 32
    k: int = 14
    t: int = 100
    order: int = 4
    power: float = 100.0
    noise_grid_db: tuple = (30.0, 34.0, 38.0, 42.0, 46.0, 50.0)
    n_channels: int = 1000
    schemes: tuple = ("onebit-md", "relaxed", "relaxed-quant", "zf-quant")
    seed: int = 0
    n_noise: int = 1
    theta_policy: str = "shared"
    record_runtime: bool = True
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        for name in ("m", "n", "k", "t", "order", "n_channels", "n_noise"):
            check_count(name, getattr(self, name), 1)
        PskConstellation(self.order)  # raises ValueError on an unsupported order
        check_real("power", self.power, positive=True)
        if (not isinstance(self.noise_grid_db, (list, tuple))
                or not all(map(is_real, self.noise_grid_db))):
            raise ValueError(f"noise_grid_db must be a list of numbers, "
                             f"got {self.noise_grid_db!r}")
        object.__setattr__(self, "noise_grid_db",
                           tuple(float(v) for v in self.noise_grid_db))
        if not self.noise_grid_db:
            raise ValueError("noise_grid_db must be nonempty")
        for v in self.noise_grid_db:
            try:
                sigma2 = inv_db_to_sigma2(v)
            except OverflowError:
                sigma2 = np.inf
            if not 0 < sigma2 < np.inf:
                raise ValueError(f"no positive finite noise variance at {v} dB")
        object.__setattr__(self, "schemes", check_schemes(self.schemes))
        if self.theta_policy not in THETA_POLICIES:
            raise ValueError(f"theta_policy must be one of {THETA_POLICIES}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.record_runtime, bool):
            raise ValueError(f"record_runtime must be true or false, got {self.record_runtime!r}")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError("solver must be a SolverConfig")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["noise_grid_db"] = list(self.noise_grid_db)
        d["schemes"] = list(self.schemes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        d = dict(d)
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "solver" in d and not isinstance(d["solver"], SolverConfig):
            d["solver"] = SolverConfig.from_dict(d["solver"])
        return cls(**d)


@dataclass(frozen=True)
class BerRecord:
    """Aggregate error counts for one (scheme, noise point) pair."""

    scheme: str
    inv_sigma2_db: float
    ber: float
    ser: float
    bit_errors: int
    bits: int
    sym_errors: int
    syms: int
    mean_worst_margin: float
    mean_runtime_s: float
    n_channels_ok: int
    n_channels_failed: int

    def __post_init__(self):
        if not (0 <= self.bit_errors <= self.bits and 0 <= self.sym_errors <= self.syms):
            raise ValueError("error counts must lie in [0, sent]")


def inv_db_to_sigma2(inv_sigma2_db: float) -> float:
    """Noise variance from the 1/sigma^2 axis value in dB."""
    return 10.0 ** (-inv_sigma2_db / 10.0)


# Blocks of at least this many receive points (n_noise * K * T) are decided
# in float32 first, with an exact float64 fallback (_decide); smaller blocks,
# such as the one-draw blocks of the acceptance runs, are decided in float64
# alone. The two cost about the same at 10,000 points: per
# simulate_transmission call on a K = 4, T = 50 QPSK frame (2-vCPU x86-64,
# numpy 2.4, BLAS on 1 thread, median of 9 interleaved runs, two sets),
# float32 first against float64 alone took 93-112 vs 71-72 µs at 1,000
# points, 118-143 vs 122-131 µs at 10,000, 176-183 vs 206-209 µs at 20,000
# and 498-553 vs 729-809 µs at 80,000.
FILTER_MIN_POINTS = 10_000
# the float32 pass runs only while the noise peak and the per-part bound B
# lie in this range; see _decide for why it keeps every float32 quantity
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
    largest |entry| and planar32 its float32 copy, which the float32 decision
    pass of simulate_transmission reads; planar32 is None for a block below
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


def draw_noise(n_noise: int, n_users: int, n_slots: int,
               rng: np.random.Generator) -> NoiseBlock:
    """Noise block of n_noise (K, T) draws of i.i.d. standard normal real and
    imaginary parts (all real parts are drawn first).

    simulate_transmission scales it to CN(0, sigma2), so one block serves
    every scheme and noise level of a channel.
    """
    if n_noise < 1:
        raise ValueError("need at least one noise draw")
    return NoiseBlock(rng.standard_normal((2, n_noise, n_users, n_slots)))


def _decide(noise: NoiseBlock, zz: np.ndarray, a: float,
            c: PskConstellation) -> np.ndarray:
    """Sector indices, (n_noise, K, T) uint8, of the receive points
    fl(fl(a*noise) + zz), where zz holds the noise-free points as a planar
    (2, K, T) array: decide_index's result on those float64 points, bit for
    bit, and decide_index is called once.

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
    bound = a * noise.peak + float(np.abs(zz).max())
    if noise.planar32 is None or not _F32_RANGE[0] <= bound <= _F32_RANGE[1]:
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
    # k lies in [-L/2, L/2]; int8's -1 is 255 as uint8 (see decide_index)
    decided = k.astype(np.int8)
    decided &= c.order - 1
    decided = decided.view(np.uint8)
    # the exact fallback: the float64 path's arithmetic on the gathered points
    flat = np.flatnonzero(~sure)
    y = noise.planar.reshape(2, -1)[:, flat] * a
    y += zz[:, 0, flat % kt]
    decided.reshape(-1)[flat] = decide_index(y[0], y[1], c)
    return decided.reshape(noise.planar.shape[1:])


def simulate_transmission(frame, phases: PhaseShifts, ch: ChannelSet,
                          symbols: SymbolFrame, sigma2: float, noise: NoiseBlock):
    """Count decision errors of a fixed design under AWGN.

    noise is a NoiseBlock of K x T draws; each of its n_noise (K, T) slices,
    scaled by sqrt(sigma2 / 2), is added to the noise-free receive points.
    sigma2 must be positive and finite. Returns (bit_errors, sym_errors,
    bits, syms).
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if not sigma2 < np.inf:
        raise ValueError("sigma2 must be finite")
    h_eff = effective_matrix(ch, phases)
    z = h_eff @ frame_array(frame).T
    if not isinstance(noise, NoiseBlock) or noise.planar.shape[2:] != z.shape:
        raise ValueError("noise must be a NoiseBlock of K x T draws")
    # the receive points z + sqrt(sigma2 / 2) * noise stay in planar form:
    # real parts first, then imaginary parts
    c = symbols.constellation
    decided = _decide(noise, np.array([z.real, z.imag]),
                      float(np.sqrt(sigma2 / 2.0)), c)
    # in the decisions' dtype, the comparison runs without a cast per entry
    sent = symbols.indices.astype(decided.dtype)
    sym_err = int(np.count_nonzero(decided != sent))
    bit_err = bit_errors(sent, decided, c)
    syms = decided.size
    return bit_err, sym_err, syms * c.bits_per_symbol, syms


@dataclass(frozen=True)
class _SchemeOutcome:
    status: str  # "ok" or the failure reason
    worst_margin: float
    runtime_s: float
    bit_err: tuple
    sym_err: tuple
    bits: int
    syms: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _status(converged: bool) -> str:
    return "ok" if converged else "inner-solver-nonconverged"


def _substream(cfg: ExperimentConfig, index: int, tag: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index, tag))
    return np.random.default_rng(ss)


def _design_rng(cfg: ExperimentConfig, index: int, scheme: str) -> np.random.Generator:
    return _substream(cfg, index, _TAG_DESIGN_BASE + _CANONICAL_ORDER.index(scheme))


def channel_realization(seed: int, index: int, m: int, n: int, k: int) -> ChannelSet:
    """The channel draw that channel `index` of an experiment with this seed
    sees; lets fixtures and cross-implementation checks reproduce it exactly."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, _TAG_CHANNEL))
    rng = np.random.default_rng(ss)
    return sample_channels(drop_users(k, rng), m, n, rng)


def _run_channel(cfg: ExperimentConfig, index: int) -> dict:
    """Design and simulate every requested scheme on one channel draw."""
    const = PskConstellation(cfg.order)
    ch = channel_realization(cfg.seed, index, cfg.m, cfg.n, cfg.k)
    symbols = SymbolFrame.random(const, cfg.k, cfg.t,
                                 _substream(cfg, index, _TAG_SYMBOLS))
    # one noise block serves every scheme and noise point (common random numbers)
    noise = draw_noise(cfg.n_noise, cfg.k, cfg.t, _substream(cfg, index, _TAG_NOISE))
    bare = no_irs_variant(ch)
    ones = PhaseShifts.ones(cfg.n)

    ao_phases = None
    if "onebit-md" in cfg.schemes:
        t0 = time.perf_counter()
        ao_frame, ao_phases, trace = alternating_optimize(
            ch, symbols, cfg.power, _design_rng(cfg, index, "onebit-md"), cfg.solver)
        ao_runtime = time.perf_counter() - t0
    # "shared" reuses the joint design's phases for schemes that cannot
    # optimize their own (falling back to random phases when the joint
    # scheme is not part of the run)
    if cfg.theta_policy == "shared" and ao_phases is not None:
        theta = ao_phases
    else:
        theta = PhaseShifts.random(cfg.n, _substream(cfg, index, _TAG_THETA))

    @functools.cache
    def box(with_irs: bool):
        # one box solve backs both the unquantized curve (rescaled to the
        # full power budget) and the naively quantized curve (sign rounding
        # is invariant to the per-slot rescale)
        t0 = time.perf_counter()
        channel, phases = (ch, theta) if with_irs else (bare, ones)
        # a cold solve starts at model_start; after a margin or fixed-point
        # stop, AO's last dual points reproduce it at AO's phases, at less cost
        warm = phases is ao_phases and stopped_by_rule(trace)
        lam0 = trace[-1].lams if warm else None
        res = relaxed_slp(effective_matrix(channel, phases), symbols,
                          cfg.power, cfg.solver, lam0)
        return (rescale_to_power(res.x, cfg.power), _status(res.converged.all()),
                time.perf_counter() - t0)

    out = {}
    for scheme in cfg.schemes:
        spec = SCHEMES[scheme]
        channel, phases = (ch, theta) if spec.with_irs else (bare, ones)
        t0 = time.perf_counter()
        if scheme == "onebit-md":
            frame, phases, runtime = ao_frame, ao_phases, ao_runtime
            status = _status(best_round(trace).converged)
        elif spec.x_mode == "onebit":
            h_eff, rng = np.conj(bare.h_d), _design_rng(cfg, index, scheme)
            coeffs = [build_coefficients(h_eff, symbols.symbols[:, t], const, cfg.power)
                      for t in range(cfg.t)]
            starts = model_starts(coeffs, start_mu(cfg.solver.mu))
            results = [solve_symbol(coeff, cfg.solver, rng, lam0)
                       for coeff, lam0 in zip(coeffs, starts)]
            frame = OneBitFrame.from_slots([res.xbar for res in results], cfg.power)
            status = _status(all(res.md.converged for res in results))
            runtime = time.perf_counter() - t0
        elif spec.x_mode == "relaxed":
            frame, status, runtime = box(spec.with_irs)
        elif spec.x_mode == "relaxed-quant":
            x, status, runtime = box(spec.with_irs)
            t0 = time.perf_counter()
            frame = quantize_onebit(x, cfg.power)
            runtime += time.perf_counter() - t0
        else:  # "zf-quant"
            zf = zf_precode(effective_matrix(channel, phases), symbols, cfg.power)
            frame = quantize_onebit(zf.x, cfg.power)
            status = "ok" if zf.full_rank else "rank-deficient"
            runtime = time.perf_counter() - t0
        counts = [simulate_transmission(frame, phases, channel, symbols,
                                        inv_db_to_sigma2(db), noise)
                  for db in cfg.noise_grid_db]
        bit_err, sym_err, bits, syms = zip(*counts)
        worst = float(frame_margins(channel, phases, frame, symbols).min())
        out[scheme] = _SchemeOutcome(status=status, worst_margin=worst,
                                     runtime_s=runtime, bit_err=bit_err,
                                     sym_err=sym_err, bits=bits[0], syms=syms[0])
    return out


def run_experiment(cfg: ExperimentConfig, threads: int = 1,
                   keep_channel_detail: bool = False):
    """Run all channels and aggregate one BerRecord per (scheme, noise point).

    Channels failing a scheme's convergence checks are counted in
    n_channels_failed and excluded from that scheme's error aggregates;
    they are never silently dropped. Output is independent of `threads`.
    Returns the record list; with keep_channel_detail, returns
    (records, per_channel) where per_channel[i][scheme] holds channel i's
    raw outcome (for paired per-channel statistics).
    """
    check_count("threads", threads, 1)
    if threads == 1:
        per_channel = [_run_channel(cfg, i) for i in range(cfg.n_channels)]
    else:
        # imported here, so that single-process runs do not pay for loading
        # the pool module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, cfg.n_channels)) as pool:
            per_channel = list(pool.map(functools.partial(_run_channel, cfg),
                                        range(cfg.n_channels),
                                        chunksize=max(1, cfg.n_channels // (4 * threads))))

    records = []
    for scheme in cfg.schemes:
        outcomes = [res[scheme] for res in per_channel]
        ok = [o for o in outcomes if o.ok]
        n_ok, n_failed = len(ok), len(outcomes) - len(ok)
        margin_mean = math.fsum(o.worst_margin for o in ok) / n_ok if ok else 0.0
        if cfg.record_runtime and ok:
            runtime_mean = math.fsum(o.runtime_s for o in ok) / n_ok
        else:
            runtime_mean = 0.0
        for j, db in enumerate(cfg.noise_grid_db):
            bit_err = sum(o.bit_err[j] for o in ok)
            sym_err = sum(o.sym_err[j] for o in ok)
            bits = sum(o.bits for o in ok)
            syms = sum(o.syms for o in ok)
            records.append(BerRecord(
                scheme=scheme,
                inv_sigma2_db=db,
                ber=bit_err / bits if bits else 0.0,
                ser=sym_err / syms if syms else 0.0,
                bit_errors=bit_err,
                bits=bits,
                sym_errors=sym_err,
                syms=syms,
                mean_worst_margin=margin_mean,
                mean_runtime_s=runtime_mean,
                n_channels_ok=n_ok,
                n_channels_failed=n_failed,
            ))
    if keep_channel_detail:
        return records, per_channel
    return records


def write_csv(records, path) -> None:
    """Write records in the fixed column order (text mode, LF newlines)."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([getattr(r, c) for c in CSV_COLUMNS])


def timing_report(records) -> str:
    """Mean per-channel design time per scheme, one line each."""
    seen = {}
    for r in records:
        seen.setdefault(r.scheme, r.mean_runtime_s)
    lines = ["mean design time per channel (s):"]
    for scheme, rt in seen.items():
        lines.append(f"  {scheme}: {rt:.6f}")
    return "\n".join(lines)
