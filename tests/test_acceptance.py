"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single verdict line
(CRITERION nn PASS/FAIL: ...); run with `pytest tests/test_acceptance.py -v -s`
to see the lines for passing criteria too. Expected wall time is a few
minutes; the two desk-scale experiments (criteria 9 and 10) dominate. A last
check tests the paper's premise that a larger surface raises the joint
design's worst margin, at the paper geometry.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from onebit_oracles import brute_force_onebit, dual_value

from irsprecode.ao import alternating_optimize, frame_margins
from irsprecode.channel import (
    PhaseShifts,
    drop_users,
    effective_matrix,
    sample_channels,
)
from irsprecode.constellation import PskConstellation, SymbolFrame, margin, sep_upper_bound
from irsprecode.harness import (
    ExperimentConfig,
    channel_realization,
    draw_noise,
    run_experiment,
    simulate_transmission,
    timing_report,
    write_csv,
)
from irsprecode.onebit import (
    SolverConfig,
    build_coefficients,
    dual_gradient,
    mirror_descent,
    recover_x,
    solve_relaxed,
    solve_symbol,
    worst_objective,
)
from irsprecode.phase import (
    apg_optimize,
    build_phase_coefficients,
    lse_gradient,
    lse_value,
    max_constraint,
    momentum_sequence,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _slot_instance(rng, m, k, order, power=100.0, n=4):
    """Protocol-scaled single-slot instance: channels, random phases, symbols."""
    c = PskConstellation(order)
    ch = sample_channels(drop_users(k, rng), m, n, rng)
    h_eff = effective_matrix(ch, PhaseShifts.random(n, rng))
    sym = c.points[rng.integers(0, order, k)]
    return build_coefficients(h_eff, sym, c, power), h_eff, sym, c


# --- 1: dual solution reproduces the primal worst-case value -----------------

def test_criterion_01_dual_primal_consistency():
    mu = 5e-4
    t0 = time.perf_counter()
    worst_gap = 0.0
    n_conv = 0
    for i in range(100):
        rng = np.random.default_rng(i)
        coeff, _, _, _ = _slot_instance(rng, m=16, k=3, order=(4, 8)[i % 2])
        md = mirror_descent(coeff, mu, SolverConfig(md_max_iter=20000, md_tol=1e-8))
        n_conv += md.converged
        x = recover_x(md.lam, coeff, mu)
        lhs = worst_objective(x, coeff) + 0.5 * mu * float(x @ x)
        gap = abs(lhs - (-md.value)) / (1e-6 * (1.0 + abs(md.value)))
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1.0 and n_conv == 100 and elapsed < 30.0
    _verdict(1, ok, f"max gap {worst_gap:.2e}x tolerance, {n_conv}/100 converged "
                    f"to 1e-8 stationarity, {elapsed:.1f}s < 30s")


# --- 2: analytic gradients match central finite differences ------------------

def test_criterion_02_gradient_oracles():
    t0 = time.perf_counter()
    mu = 5e-4
    rng = np.random.default_rng(42)

    # dual objective, probing away from the Huber knees
    worst_dual = 0.0
    checked = 0
    while checked < 20:
        coeff, _, _, _ = _slot_instance(rng, m=8, k=3, order=4)
        rho = mu * coeff.amplitude
        lam = rng.dirichlet(np.ones(coeff.n_constraints))
        y = coeff.c @ lam
        if np.any(np.abs(np.abs(y) - rho) <= 1e-3 * rho):
            continue
        g = dual_gradient(lam, coeff, mu)
        h = 1e-7
        fd = np.empty_like(g)
        for i in range(lam.size):
            e = np.zeros_like(lam)
            e[i] = h
            fd[i] = (dual_value(lam + e, coeff, mu)
                     - dual_value(lam - e, coeff, mu)) / (2 * h)
        worst_dual = max(worst_dual, np.linalg.norm(fd - g) / np.linalg.norm(g))
        checked += 1

    # smoothed phase objective (smooth everywhere, no exclusion needed)
    worst_lse = 0.0
    for i in range(20):
        prng = np.random.default_rng(500 + i)
        c = PskConstellation(4)
        ch = sample_channels(drop_users(2, prng), 6, 4, prng)
        sym = SymbolFrame.random(c, 2, 3, prng)
        frame = prng.standard_normal((3, 6)) + 1j * prng.standard_normal((3, 6))
        coeffs = build_phase_coefficients(ch, frame, sym)
        tb = prng.standard_normal(coeffs.n_lifted)
        delta = (1e-1, 1e-2)[i % 2]
        g = lse_gradient(tb, coeffs, delta)
        h = 1e-6
        fd = np.empty_like(g)
        for j in range(tb.size):
            e = np.zeros_like(tb)
            e[j] = h
            fd[j] = (lse_value(tb + e, coeffs, delta)
                     - lse_value(tb - e, coeffs, delta)) / (2 * h)
        worst_lse = max(worst_lse, np.linalg.norm(fd - g) / np.linalg.norm(g))

    elapsed = time.perf_counter() - t0
    ok = worst_dual <= 1e-5 and worst_lse <= 1e-5 and elapsed < 5.0
    _verdict(2, ok, f"dual grad rel err {worst_dual:.2e}, smoothed phase grad rel err "
                    f"{worst_lse:.2e} (tol 1e-5), {elapsed:.1f}s < 5s")


# --- 3: rounded solutions land in a certified band around the true optimum ---

def test_criterion_03_brute_force_band():
    t0 = time.perf_counter()
    in_band = 0
    bound_ok = 0
    for i in range(100):
        rng = np.random.default_rng(i)
        coeff, _, _, _ = _slot_instance(rng, m=4, k=2, order=4)
        _, bf_val = brute_force_onebit(coeff)
        res = solve_symbol(coeff, SolverConfig(mbi_restarts=5),
                           rng=np.random.default_rng(5000 + i))
        if res.onebit_lower_bound <= bf_val + 1e-12:
            bound_ok += 1
        if res.objective <= bf_val + 0.05 * (bf_val - res.onebit_lower_bound) + 1e-12:
            in_band += 1
    elapsed = time.perf_counter() - t0
    ok = in_band >= 90 and bound_ok == 100 and elapsed < 60.0
    _verdict(3, ok, f"{in_band}/100 within the 5% certified band (need >= 90), "
                    f"{bound_ok}/100 lower bounds valid (need 100), {elapsed:.1f}s < 60s")


# --- 4: box relaxation leaves at most 2K-1 fractional entries -----------------

def test_criterion_04_fractional_entries():
    t0 = time.perf_counter()
    ok_count = 0
    violations = []
    for i in range(200):
        k = (2, 3, 4)[i % 3]
        order = (4, 8)[i % 2]
        rng = np.random.default_rng(1000 + i)
        coeff, _, _, _ = _slot_instance(rng, m=32, k=k, order=order, power=1.0, n=8)
        xrel, md = solve_relaxed(coeff, 1e-6, SolverConfig(md_max_iter=20000, md_tol=1e-6))
        n_frac = int(np.sum(np.abs(xrel) < coeff.amplitude * (1 - 1e-6)))
        if n_frac <= 2 * k - 1:
            ok_count += 1
        else:
            violations.append((1000 + i, k, n_frac))
    elapsed = time.perf_counter() - t0
    ok = ok_count >= 190 and elapsed < 120.0
    _verdict(4, ok, f"{ok_count}/200 instances with <= 2K-1 fractional entries "
                    f"(need >= 190), violations (seed, K, count): {violations}, "
                    f"{elapsed:.1f}s < 2min")


# --- 5: smoothed phase objective sandwich and iterate feasibility -------------

def test_criterion_05_lse_sandwich_and_feasibility():
    t0 = time.perf_counter()
    probes = 0
    sandwich_ok = True
    feas_err = 0.0
    for i in range(10):
        rng = np.random.default_rng(200 + i)
        c = PskConstellation(4)
        ch = sample_channels(drop_users(2, rng), 8, 4, rng)
        sym = SymbolFrame.random(c, 2, 3, rng)
        frame = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        coeffs = build_phase_coefficients(ch, frame, sym)
        span = np.log(coeffs.n_constraints)
        for j in range(100):
            tb = rng.standard_normal(coeffs.n_lifted)
            delta = (1e-1, 1e-2, 1e-3)[j % 3]
            mx = max_constraint(tb, coeffs)
            val = lse_value(tb, coeffs, delta)
            sandwich_ok &= mx <= val <= mx + delta * span
            probes += 1
        res = apg_optimize(coeffs, rng.standard_normal(coeffs.n_lifted),
                           SolverConfig(apg_max_iter=200), record_trace=True)
        n = coeffs.n_lifted // 2
        for rec in res.trace:
            tb = rec.theta_bar
            norms = np.hypot(tb[:n], tb[n:])
            feas_err = max(feas_err, float(np.abs(norms - 1.0).max()))
        fin = np.hypot(res.theta_bar[:n], res.theta_bar[n:])
        feas_err = max(feas_err, float(np.abs(fin - 1.0).max()))
    elapsed = time.perf_counter() - t0
    ok = sandwich_ok and probes == 1000 and feas_err <= 1e-12 and elapsed < 10.0
    _verdict(5, ok, f"sandwich held on {probes}/1000 probes, max unit-modulus "
                    f"error {feas_err:.2e} <= 1e-12, {elapsed:.1f}s < 10s")


# --- 6: momentum pairs follow the accelerated recursion -----------------------

def test_criterion_06_momentum_schedule():
    zeta, psi = momentum_sequence(101)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    err = max(abs(zeta[0] - 1.0), abs(psi[0]),
              abs(zeta[1] - phi), abs(psi[1] - (phi - 1.0) / phi))
    prev = 0.0
    for r in range(101):
        expect = (1.0 + math.sqrt(1.0 + 4.0 * prev * prev)) / 2.0
        err = max(err, abs(zeta[r] - expect), abs(psi[r] - (zeta[r] - 1.0) / zeta[r]))
        prev = zeta[r]
    ok = err <= 1e-12
    _verdict(6, ok, f"zeta_0=1, psi_0=0, zeta_1=golden ratio, recursion error "
                    f"{err:.2e} <= 1e-12 for r <= 100")


# --- 7: alternating design reaches near-exhaustive quality on tiny instances --

def test_criterion_07_joint_small_instance_quality():
    t0 = time.perf_counter()
    m, n, k, power = 2, 2, 1, 100.0
    c = PskConstellation(4)
    s = np.sqrt(power / (2 * m))
    codes = np.arange(1 << (2 * m))
    signs = ((codes[:, None] >> np.arange(2 * m)) & 1) * 2 - 1
    xs = s * (signs[:, :m] + 1j * signs[:, m:])
    ang = 2 * np.pi * np.arange(16) / 16
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ch = sample_channels(drop_users(k, rng), m, n, rng)
        sym = SymbolFrame.random(c, k, 1, rng)
        best = -np.inf
        for i in range(16):
            for j in range(16):
                theta = np.array([np.exp(1j * ang[i]), np.exp(1j * ang[j])])
                h_eff = np.conj(ch.h_d) + (theta * np.conj(ch.h_r)) @ ch.g
                z = (xs @ h_eff[0]) * np.conj(sym.symbols[0, 0])
                best = max(best, margin(z, c).max())
        cfg = SolverConfig(n_starts=5, delta=1e-3)
        frame, phases, _ = alternating_optimize(ch, sym, power,
                                                np.random.default_rng(10000 + seed), cfg)
        got = float(frame_margins(ch, phases, frame, sym).min())
        if got >= best - 0.05 * abs(best):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 80 and elapsed < 120.0
    _verdict(7, ok, f"{hits}/100 seeds within 5% of the exhaustive sign/phase-grid "
                    f"optimum (need >= 80), {elapsed:.1f}s < 2min")


# --- 8: analytic error bound dominates the empirical symbol error rate --------

def test_criterion_08_sep_bound_validity():
    c = PskConstellation(4)
    ch = channel_realization(seed=0, index=0, m=8, n=4, k=2)
    sym = SymbolFrame.random(c, 2, 3, np.random.default_rng(1))
    theta = PhaseShifts.random(4, np.random.default_rng(2))
    h_eff = effective_matrix(ch, theta)
    rng = np.random.default_rng(3)
    rows = [solve_symbol(build_coefficients(h_eff, sym.symbols[:, t], c, 100.0), rng=rng).xbar
            for t in range(3)]
    xbar = np.stack(rows)
    x = xbar[:, :8] + 1j * xbar[:, 8:]
    margins = frame_margins(ch, theta, x, sym)
    assert margins.min() > 0
    sigma2 = 2.0 * (margins.min() / 2.2) ** 2
    noise = draw_noise(100000, 2, 3, np.random.default_rng(4))
    _, sym_err, _, syms = simulate_transmission(x, theta, ch, sym, sigma2, noise)
    ser = sym_err / syms
    bound = np.minimum(1.0, sep_upper_bound(margins, sigma2, c))
    bavg = float(bound.mean())
    sd = math.sqrt(bavg * (1.0 - bavg) / syms)
    ok = 0.0 < ser <= bavg + 3.0 * sd
    _verdict(8, ok, f"empirical SER {ser:.5f} <= bound average {bavg:.5f} "
                    f"+ 3 MC sd ({3 * sd:.2e}) over {syms} decisions per design")


# --- 9/10: desk-scale comparison run, shared between the two criteria ---------

DESK_CONFIG = ExperimentConfig(
    m=32, n=16, k=4, t=50, order=4, power=100.0,
    noise_grid_db=(22.0, 26.0, 30.0, 34.0, 38.0, 42.0),
    n_channels=100,
    schemes=("onebit-md", "relaxed", "relaxed-quant", "zf-quant", "onebit-md-noirs"),
    seed=314,
    record_runtime=False,
)

ORDERINGS = (
    ("relaxed", "onebit-md"),
    ("onebit-md", "relaxed-quant"),
    ("onebit-md", "zf-quant"),
    ("onebit-md", "onebit-md-noirs"),
)


@pytest.fixture(scope="module")
def desk_run():
    t0 = time.perf_counter()
    records, detail = run_experiment(DESK_CONFIG, threads=1, keep_channel_detail=True)
    return records, detail, time.perf_counter() - t0


def _ordering_gaps(detail, cfg):
    """Worst paired separation over the required inequalities.

    For BER(a) <= BER(b) at noise index j the paired per-channel means must
    satisfy mean_a + se_a < mean_b - se_b; returns the minimum of
    (mean_b - se_b) - (mean_a + se_a) over all checks (positive iff all hold).
    """
    worst = np.inf
    points = range(len(cfg.noise_grid_db) - 2, len(cfg.noise_grid_db))
    for a, b in ORDERINGS:
        for j in points:
            pairs = [(d[a].bit_err[j] / d[a].bits, d[b].bit_err[j] / d[b].bits)
                     for d in detail if d[a].ok and d[b].ok]
            va = np.array([p[0] for p in pairs])
            vb = np.array([p[1] for p in pairs])
            se_a = va.std(ddof=1) / math.sqrt(va.size)
            se_b = vb.std(ddof=1) / math.sqrt(vb.size)
            worst = min(worst, (vb.mean() - se_b) - (va.mean() + se_a))
    return worst


@pytest.mark.slow
def test_criterion_09_desk_scale_ordering(desk_run):
    records, detail, elapsed = desk_run
    gap = _ordering_gaps(detail, DESK_CONFIG)
    cfg = DESK_CONFIG
    if gap <= 0:
        # enlarge once if any separation is inconclusive at 100 channels
        cfg = dataclasses.replace(DESK_CONFIG, n_channels=400)
        t0 = time.perf_counter()
        records, detail = run_experiment(cfg, threads=1, keep_channel_detail=True)
        elapsed += time.perf_counter() - t0
        gap = _ordering_gaps(detail, cfg)
    n_ok = min(r.n_channels_ok for r in records)
    ok = gap > 0 and elapsed < 1800.0
    _verdict(9, ok, f"all 8 BER orderings hold at the two highest 1/sigma^2 points "
                    f"with non-overlapping paired standard errors (min separation "
                    f"{gap:.2e}) over {cfg.n_channels} channels ({n_ok} converged), "
                    f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_10_thread_determinism(desk_run, tmp_path):
    records, _, _ = desk_run
    p1 = tmp_path / "threads1.csv"
    p2 = tmp_path / "threads2.csv"
    write_csv(records, p1)
    write_csv(run_experiment(DESK_CONFIG, threads=2), p2)
    same = p1.read_bytes() == p2.read_bytes()
    _verdict(10, same, f"CSV byte-identical across thread counts 1 and 2 "
                       f"({p1.stat().st_size} bytes, seed {DESK_CONFIG.seed})")


# --- 11: per-channel design time is recorded and reported ---------------------

def test_criterion_11_timing_report():
    cfg = ExperimentConfig(
        m=8, n=4, k=2, t=6, order=4, power=100.0, noise_grid_db=(36.0,),
        n_channels=3, schemes=("onebit-md", "zf-quant"), seed=7,
        record_runtime=True)
    records = run_experiment(cfg)
    rec = next(r for r in records if r.scheme == "onebit-md")
    report = timing_report(records)
    ok = rec.mean_runtime_s > 0 and "onebit-md" in report and len(report) > 0
    _verdict(11, ok, f"timing report emitted; onebit-md mean design time "
                     f"{rec.mean_runtime_s:.3f}s per channel (informational)")


# --- the paper's premise: a larger surface raises the worst margin ------------

@pytest.mark.slow
def test_paper_margin_rises_with_the_surface_size():
    # onebit-md alone at the paper geometry (M=128, K=14, T=100) and the paper
    # workload's seed, 20 channels for each N; the draws differ by N, so the
    # +/-1 standard-error intervals are unpaired
    t0 = time.perf_counter()
    stats = []
    for n in (8, 16, 32, 64):
        cfg = ExperimentConfig(n=n, n_channels=20, schemes=("onebit-md",), seed=0,
                               record_runtime=False)
        _, detail = run_experiment(cfg, keep_channel_detail=True)
        margins = np.array([d["onebit-md"].worst_margin for d in detail
                            if d["onebit-md"].ok])
        stats.append((n, margins.size, margins.mean(),
                      margins.std(ddof=1) / math.sqrt(margins.size)))
    line = (", ".join(f"N={n}: {mean:.5f} +/- {se:.5f} ({size} ok)"
                      for n, size, mean, se in stats)
            + f", {time.perf_counter() - t0:.0f}s")
    print(f"SURFACE SIZE: {line}", flush=True)
    for (_, _, lo_mean, lo_se), (_, _, hi_mean, hi_se) in zip(stats, stats[1:]):
        assert hi_mean - hi_se > lo_mean + lo_se, line
