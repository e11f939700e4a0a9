"""One-bit symbol-level precoding with reflecting-surface phase design.

The package designs per-slot one-bit transmit signals and unit-modulus
reflection phases that maximize the worst user's PSK decision margin, and
ships a Monte-Carlo harness comparing the joint design against unquantized,
naively quantized, zero-forcing, and surface-free baselines.

The names below are the library surface the README documents; the solver
layers (onebit, phase, baselines) are importable from their modules.
"""

from .ao import alternating_optimize, best_round, frame_margins
from .channel import ChannelSet, drop_users, sample_channels
from .constellation import PskConstellation, SymbolFrame
from .harness import (
    ExperimentConfig,
    SolverConfig,
    channel_realization,
    run_experiment,
    timing_report,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "ExperimentConfig",
    "PskConstellation",
    "SolverConfig",
    "SymbolFrame",
    "alternating_optimize",
    "best_round",
    "channel_realization",
    "drop_users",
    "frame_margins",
    "run_experiment",
    "sample_channels",
    "timing_report",
    "write_csv",
]
