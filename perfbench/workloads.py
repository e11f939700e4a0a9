"""The benchmark's workloads: experiment configs the closed loop runs.

Every workload is QPSK at power 100 with the harness's default solver
settings, theta_policy "shared" and one design start, so the call counts in
tracing.expected_calls follow from the config alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from irsprecode.harness import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    geometry: dict          # ExperimentConfig fields other than seed and n_channels
    base_seed: int          # experiment seed for --seed 0
    s_per_channel: float    # nominal untraced seconds per channel; sizes a run
    margin_scheme: str      # scheme whose mean worst margin is margin_mean
    ber_scheme: str         # scheme whose BER at BER_REF_DB is ber_ref

    def n_channels(self, seconds: float) -> int:
        """Channels that take about `seconds` at the nominal rate.

        The count depends on --seconds only, never on measured speed, so two
        commits given the same arguments do identical work.
        """
        return max(1, round(seconds / self.s_per_channel))

    def config(self, seed: int, n_channels: int) -> ExperimentConfig:
        fields = dict(order=4, power=100.0, n_noise=1, theta_policy="shared",
                      record_runtime=True)
        fields.update(self.geometry)
        return ExperimentConfig(seed=(self.base_seed + seed) % 2 ** 64,
                                n_channels=n_channels, **fields)


BER_REF_DB = 38.0

_DESK = dict(m=32, n=16, k=4, t=50)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        why="acceptance-run geometry; every layer runs and the phase step is "
            "a visible share, so APG/LSE changes show here",
        geometry=dict(_DESK, noise_grid_db=(22.0, 26.0, 30.0, 34.0, 38.0, 42.0),
                      schemes=("onebit-md", "relaxed", "relaxed-quant",
                               "zf-quant", "onebit-md-noirs")),
        base_seed=314, s_per_channel=1.2,
        margin_scheme="onebit-md", ber_scheme="onebit-md"),
    # runnable for its layer split, but not in BENCHMARK.json: about six
    # channels fit in a run and their design times range over 3.5-14 s with
    # the AO round count, so channels_per_s does not hold still across seeds
    Workload(
        name="paper",
        why="the paper's operating point; the signal step (MD + MBI) is over "
            "90% of the time and the phase step about 3%",
        geometry=dict(m=128, n=32, k=14, t=100,
                      noise_grid_db=(30.0, 34.0, 38.0, 42.0, 46.0, 50.0),
                      schemes=("onebit-md", "relaxed", "relaxed-quant", "zf-quant")),
        base_seed=0, s_per_channel=5.0,
        margin_scheme="onebit-md", ber_scheme="onebit-md"),
    # relaxed-noirs reuses the box solve that relaxed-quant-noirs quantizes;
    # it is here for margin_mean, because quantized worst margins straddle
    # zero and no relative bound can gate their mean
    Workload(
        name="bercurve",
        why="no joint design: noise simulation dominates and AO/APG/MBI never "
            "run; MD runs only through the relaxed baseline",
        geometry=dict(_DESK, noise_grid_db=tuple(float(v) for v in range(20, 51, 2)),
                      schemes=("zf-quant", "zf-quant-noirs", "relaxed-quant-noirs",
                               "relaxed-noirs"),
                      n_noise=400),
        base_seed=2718, s_per_channel=0.6,
        margin_scheme="relaxed-noirs", ber_scheme="relaxed-quant-noirs"),
)}
