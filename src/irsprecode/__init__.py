"""One-bit symbol-level precoding with reflecting-surface phase design.

The package designs per-slot one-bit transmit signals and unit-modulus
reflection phases that maximize the worst user's PSK decision margin, and
ships a Monte-Carlo harness comparing the joint design against unquantized,
naively quantized, zero-forcing, and surface-free baselines.
"""

from .ao import AoConfig, alternating_optimize, frame_margins
from .baselines import (
    SCHEMES,
    no_irs_variant,
    quantize_onebit,
    relaxed_slp,
    rescale_to_power,
    zf_precode,
)
from .channel import (
    ChannelSet,
    GeometryConfig,
    PathLossModel,
    PhaseShifts,
    Scenario,
    effective_channel,
    effective_matrix,
    sample_channels,
    sample_scenario,
)
from .constellation import (
    PskConstellation,
    SymbolFrame,
    margin,
    sep_upper_bound,
)
from .harness import (
    BerRecord,
    ExperimentConfig,
    SolverConfig,
    channel_realization,
    run_experiment,
    simulate_transmission,
    write_csv,
)
from .onebit import (
    MdOptions,
    OneBitFrame,
    SolveOptions,
    brute_force_onebit,
    build_coefficients,
    mirror_descent,
    solve_relaxed,
    solve_symbol,
)
from .phase import (
    ApgOptions,
    apg_optimize,
    build_phase_coefficients,
    project_unit_modulus,
)

__version__ = "0.1.0"

__all__ = [
    "AoConfig",
    "ApgOptions",
    "BerRecord",
    "ChannelSet",
    "ExperimentConfig",
    "GeometryConfig",
    "MdOptions",
    "OneBitFrame",
    "PathLossModel",
    "PhaseShifts",
    "PskConstellation",
    "Scenario",
    "SCHEMES",
    "SolveOptions",
    "SolverConfig",
    "SymbolFrame",
    "alternating_optimize",
    "apg_optimize",
    "brute_force_onebit",
    "build_coefficients",
    "build_phase_coefficients",
    "channel_realization",
    "effective_channel",
    "effective_matrix",
    "frame_margins",
    "margin",
    "mirror_descent",
    "no_irs_variant",
    "project_unit_modulus",
    "quantize_onebit",
    "relaxed_slp",
    "rescale_to_power",
    "run_experiment",
    "sample_channels",
    "sample_scenario",
    "sep_upper_bound",
    "simulate_transmission",
    "solve_relaxed",
    "solve_symbol",
    "write_csv",
    "zf_precode",
]
