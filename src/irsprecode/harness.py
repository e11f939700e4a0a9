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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ao import alternating_optimize, best_round, frame_margins
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


def draw_noise(n_noise: int, n_users: int, n_slots: int,
               rng: np.random.Generator) -> np.ndarray:
    """Real (2, n_noise, K, T) noise block of i.i.d. standard normal samples:
    the real parts of n_noise (K, T) complex draws, then their imaginary
    parts (all real parts are drawn first).

    simulate_transmission scales it to CN(0, sigma2), so one block serves
    every scheme and noise level of a channel.
    """
    if n_noise < 1:
        raise ValueError("need at least one noise draw")
    return rng.standard_normal((2, n_noise, n_users, n_slots))


def simulate_transmission(frame, phases: PhaseShifts, ch: ChannelSet,
                          symbols: SymbolFrame, sigma2: float, noise):
    """Count decision errors of a fixed design under AWGN.

    noise is a block from draw_noise; each of its n_noise (K, T) slices,
    scaled by sqrt(sigma2 / 2), is added to the noise-free receive points.
    Returns (bit_errors, sym_errors, bits, syms).
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    h_eff = effective_matrix(ch, phases)
    z = h_eff @ frame_array(frame).T
    noise = np.asarray(noise)
    if (noise.dtype.kind != "f" or noise.ndim != 4 or noise.shape[0] != 2
            or noise.shape[1] < 1 or noise.shape[2:] != z.shape):
        raise ValueError("noise must be a real (2, n_noise >= 1, K, T) block")
    # the receive points z + sqrt(sigma2 / 2) * noise stay in planar form:
    # real parts in y[0], imaginary parts in y[1]
    y = np.multiply(noise, np.sqrt(sigma2 / 2.0), dtype=float)
    y += np.array([z.real, z.imag])[:, None]
    c = symbols.constellation
    decided = decide_index(y[0], y[1], c)
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
        # a cold solve starts at model_start; after a margin-rule stop, AO's
        # last dual points reproduce it at AO's phases, at less cost
        warm = phases is ao_phases and best_round(trace) is not trace[-1]
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
