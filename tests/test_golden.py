"""Frozen results: small desk, bercurve and paper runs against pinned outputs.

A change that claims bit-identical results is checked here; a change that
moves results on purpose updates the goldens and says so in CHANGES.md.
Each run is a perfbench workload at --seed 0, and its digest is perfbench's
(the sha256 of the result rows without the runtime column), so the desk
golden equals what `python3 perfbench/run.py --workload desk --seed 0
--seconds 3.6` prints, the bercurve golden what `--workload bercurve
--seed 0 --seconds 2.4` prints and the paper golden what `--workload paper
--seed 0 --seconds 5` prints. One run per workload serves two tests: the
per-scheme counts, which name the scheme that moved and hold on every
OpenBLAS kernel and NumPy SIMD target tried, and the digest, which hashes
the mean margins to the last bit. Floating-point results can differ in
the last bits between NumPy and BLAS builds; the goldens were taken on
GOLDEN_BUILD, and a failure names the build it ran on: the NumPy and BLAS
versions, the OpenBLAS kernel loaded (OPENBLAS_CORETYPE can pick another),
NumPy's AVX-512 dispatch targets (NPY_DISABLE_CPU_FEATURES can turn them
off) and the Python version. The same configs also run with BLAS pinned
to 1 and to 2 threads, which must give equal digests on any build.
"""

import ctypes
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from onebit_oracles import cold_start, dual_gradient, md_value

from irsprecode import baselines, onebit
from irsprecode.channel import PhaseShifts, drop_users, effective_matrix, sample_channels
from irsprecode.constellation import PskConstellation
from irsprecode.harness import SolverConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from bench import digest, machine_info  # noqa: E402
from run import BLAS_PIN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN_BUILD = ("numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0 core SkylakeX, "
                "AVX-512 targets X86_V4 AVX512_ICL AVX512_SPR, Python 3.11.7")

# workload: (channels, digest, per scheme (channels ok, bit errors and
# symbol errors summed over the noise grid))
GOLDENS = {
    "desk": (3, "009d024cb08602fabfaa77e32237abe648253830f6035944e9642f6e296184b6",
             {"onebit-md": (3, 1699, 1416), "relaxed": (3, 1415, 1200),
              "relaxed-quant": (3, 1718, 1440), "zf-quant": (3, 1735, 1457),
              "onebit-md-noirs": (3, 2048, 1691)}),
    "bercurve": (4, "1a1f74df8ee1f93e141906923fefaa700108150b6fa5c62d5d5832b84ebd92f1",
                 {"zf-quant": (4, 1668208, 1421379), "zf-quant-noirs": (4, 1914666, 1611191),
                  "relaxed-quant-noirs": (4, 1908994, 1605474),
                  "relaxed-noirs": (4, 1588252, 1342815)}),
    "paper": (1, "fcd7f7a2a620565e6de29daf23cc6c337ee41b29eda907aefe9fbb3bfb83c915",
              {"onebit-md": (1, 1079, 1008), "relaxed": (1, 689, 649),
               "relaxed-quant": (1, 1217, 1137), "zf-quant": (1, 1265, 1175)}),
}


def blas_core() -> str:
    """The OpenBLAS kernel this process loaded, read the way bench._blas_threads
    reads the thread count, or "unknown"."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def avx512_targets() -> str:
    """NumPy's AVX-512 dispatch targets that this process runs, or "none"; a
    target turned off by NPY_DISABLE_CPU_FEATURES is not among them."""
    found = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    return " ".join(t for t in found if t == "X86_V4" or t.startswith("AVX512")) or "none"


def build() -> str:
    info = machine_info()
    return (f"numpy {info['numpy']}, BLAS {info['blas']} core {blas_core()}, "
            f"AVX-512 targets {avx512_targets()}, Python {info['python']}")


def scheme_counts(records) -> dict:
    out = {}
    for r in records:
        ok, bits, syms = out.get(r.scheme, (r.n_channels_ok, 0, 0))
        out[r.scheme] = (ok, bits + r.bit_errors, syms + r.sym_errors)
    return out


@functools.cache
def golden_run(name: str) -> tuple:
    """(records of the golden config of workload name, where they ran): one
    run per process, shared by the counts test and the digest test."""
    records = run_experiment(WORKLOADS[name].config(0, GOLDENS[name][0]))
    return records, f"{name} run on {build()}; goldens taken on {GOLDEN_BUILD}"


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_counts_equal_the_goldens(name):
    records, where = golden_run(name)
    want_counts = GOLDENS[name][2]
    counts = scheme_counts(records)
    for scheme, want in want_counts.items():
        assert counts[scheme] == want, f"{scheme} moved ({where})"
    assert counts.keys() == want_counts.keys(), where


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_results_equal_the_goldens(name):
    # the digest; test_counts_equal_the_goldens names a scheme whose counts moved
    records, where = golden_run(name)
    assert digest(records) == GOLDENS[name][1], where


def test_cold_box_solves_start_at_their_optimum(monkeypatch):
    # channel 0 of the bercurve golden config: its one box solve (relaxed-noirs
    # and relaxed-quant-noirs) runs 50 cold slots, one MD call each. Measured:
    # 0 MD iterations from onebit.model_starts, 408 from the quadratic model's
    # minimizer that it replaced; a lost start fails here without a timing
    iters = []

    def spy(*args, real=onebit.mirror_descent, **kwargs):
        md = real(*args, **kwargs)
        iters.append(md.n_iter)
        return md

    monkeypatch.setattr(onebit, "mirror_descent", spy)
    run_experiment(WORKLOADS["bercurve"].config(0, 1))
    assert len(iters) == 50 and sum(iters) <= 10, iters


def test_cold_starts_that_md_certifies_pass_the_first_order_check(monkeypatch):
    # every cold solve_relaxed of the paper golden run, and of 60 power-1 slots
    # of criterion 4's geometry (M=32, K=2-4, N=8, QPSK and 8-PSK) at the
    # solver's mu, that MD stops at its first residual test returns the start's
    # point; its Frank-Wolfe gap g.lam - min g, a bound on f_mu(lam) - min f_mu,
    # must be within model_starts' START_GAP_RTOL. Solves that MD iterates are
    # certified by its residual instead. A solve is cold when it starts at a
    # row of a onebit.model_starts block, whether frame_slots took the frame's
    # starts or cold_start took one slot's.
    # Measured before model_starts checked its point: 9 of the 300 paper
    # solves and 8 of the 60 slots stopped at once with gaps up to 0.46 and
    # 2.0 times f_mu + s rho
    blocks, calls = [], []

    def start_spy(coeffs, mu, real=onebit.model_starts):
        block = real(coeffs, mu)
        blocks.append(block)
        return block

    def spy(coeff, mu, lam0, real=onebit.solve_relaxed):
        xrel, md = real(coeff, mu, lam0)
        cold = any(np.may_share_memory(lam0, b) for b in blocks)
        calls.append((coeff, mu, md, cold))
        return xrel, md

    monkeypatch.setattr(onebit, "model_starts", start_spy)
    monkeypatch.setattr(onebit, "solve_relaxed", spy)
    monkeypatch.setattr(baselines, "solve_relaxed", spy)
    run_experiment(WORKLOADS["paper"].config(0, 1))
    assert len(calls) == 300
    mu = SolverConfig().mu
    for i in range(60):
        rng = np.random.default_rng(1000 + i)
        k, c = (2, 3, 4)[i % 3], PskConstellation((4, 8)[i % 2])
        ch = sample_channels(drop_users(k, rng), 32, 8, rng)
        h_eff = effective_matrix(ch, PhaseShifts.random(8, rng))
        sym = c.points[rng.integers(0, c.order, k)]
        coeff = onebit.build_coefficients(h_eff, sym, c, 1.0)
        onebit.solve_relaxed(coeff, mu, cold_start(coeff, mu))
    assert len(calls) == 360 and all(md.converged for _, _, md, _ in calls)
    gaps = []
    for coeff, mu, md, cold in calls:
        if cold and md.n_iter == 0:
            g = dual_gradient(md.lam, coeff, mu)
            s = coeff.amplitude
            gaps.append((g @ md.lam - g.min()) / (md_value(md, coeff, mu) + s * mu * s))
    assert len(gaps) >= 100 and max(gaps) <= onebit.START_GAP_RTOL, max(gaps)


# prints the BLAS thread count read back from OpenBLAS and each golden
# config's digest, for the {workload: channels} map in argv[1]
_DIGESTS_UNDER_PIN = """
import json, sys
from bench import digest, machine_info
from workloads import WORKLOADS
from irsprecode.harness import SolverConfig, run_experiment
print(json.dumps({"blas_threads": machine_info()["blas_threads"], "digests": {
    name: digest(run_experiment(WORKLOADS[name].config(0, n)))
    for name, n in json.loads(sys.argv[1]).items()}}))
"""


def test_digests_do_not_depend_on_the_blas_thread_count():
    # the golden configs run in one process with BLAS on 1 thread and in
    # another with 2; the read-back shows that each pin took effect
    channels = json.dumps({name: n for name, (n, _, _) in GOLDENS.items()})
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench"),
                            os.environ.get("PYTHONPATH", "")])
    runs = {}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=path, **{k: str(threads) for k in BLAS_PIN})
        proc = subprocess.run([sys.executable, "-c", _DIGESTS_UNDER_PIN, channels],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout)
        assert runs[threads]["blas_threads"] == threads, \
            f"BLAS did not run on the {threads} threads pinned ({build()})"
    assert runs[1]["digests"] == runs[2]["digests"], \
        f"digests depend on the BLAS thread count ({build()})"
