"""Frozen results: small desk and bercurve runs against pinned outputs.

A change that claims bit-identical results is checked here; a change that
moves results on purpose updates the goldens and says so in CHANGES.md.
Each run is a perfbench workload at --seed 0, and its digest is perfbench's
(the sha256 of the result rows without the runtime column), so the desk
golden equals what `python3 perfbench/run.py --workload desk --seed 0
--seconds 3.6` prints and the bercurve golden what `--workload bercurve
--seed 0 --seconds 2.4` prints. The per-scheme counts are compared first, so
a failure names the scheme that moved. Floating-point results can differ in
the last bits between NumPy and BLAS builds; the goldens were taken on
GOLDEN_BUILD, and a failure names the build it ran on.
"""

import sys
from pathlib import Path

import pytest

from irsprecode.harness import run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from bench import digest, machine_info  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN_BUILD = "numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0, Python 3.11.7"

# workload: (channels, digest, per scheme (channels ok, bit errors and
# symbol errors summed over the noise grid))
GOLDENS = {
    "desk": (3, "c9573a71998059ea0cff660084731d9c6e21f4ada0beba56aa461d75416c5469",
             {"onebit-md": (3, 1699, 1416), "relaxed": (3, 1415, 1200),
              "relaxed-quant": (3, 1718, 1440), "zf-quant": (3, 1735, 1457),
              "onebit-md-noirs": (3, 2048, 1691)}),
    "bercurve": (4, "4c1dc81a63c4707b8c7998430f9a3209994d525bb4703567d7afedf3d345bcee",
                 {"zf-quant": (4, 1668208, 1421379), "zf-quant-noirs": (4, 1914666, 1611191),
                  "relaxed-quant-noirs": (4, 1908994, 1605474),
                  "relaxed-noirs": (4, 1588189, 1342767)}),
}


def scheme_counts(records) -> dict:
    out = {}
    for r in records:
        ok, bits, syms = out.get(r.scheme, (r.n_channels_ok, 0, 0))
        out[r.scheme] = (ok, bits + r.bit_errors, syms + r.sym_errors)
    return out


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_results_equal_the_goldens(name):
    n_channels, want_digest, want_counts = GOLDENS[name]
    records = run_experiment(WORKLOADS[name].config(0, n_channels))
    info = machine_info()
    where = (f"{name} run on numpy {info['numpy']}, BLAS {info['blas']}, Python "
             f"{info['python']}; goldens taken on {GOLDEN_BUILD}")
    counts = scheme_counts(records)
    for scheme, want in want_counts.items():
        assert counts[scheme] == want, f"{scheme} moved ({where})"
    assert counts.keys() == want_counts.keys(), where
    assert digest(records) == want_digest, where
