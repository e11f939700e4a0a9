"""Experiment harness tests: configs, pairing, determinism, aggregation."""

import dataclasses
import functools
import inspect
import json
import math

import numpy as np
import pytest
from counting_oracles import reference_simulate_transmission
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irsprecode import ao, baselines, harness, onebit, phase
from irsprecode.ao import AoIterationRecord, frame_margins
from irsprecode.baselines import SCHEMES, zf_precode
from irsprecode.channel import ChannelSet, PhaseShifts, effective_matrix
from irsprecode.constellation import PskConstellation, SymbolFrame, sep_upper_bound
from irsprecode.harness import (
    CSV_COLUMNS,
    BerRecord,
    ExperimentConfig,
    SolverConfig,
    channel_realization,
    draw_noise,
    inv_db_to_sigma2,
    run_experiment,
    simulate_transmission,
    timing_report,
    write_csv,
)
from irsprecode.onebit import build_coefficients, mirror_descent, solve_symbol

QPSK = PskConstellation(4)


def small_cfg(**kw):
    base = dict(m=8, n=4, k=2, t=4, order=4, power=100.0,
                noise_grid_db=(36.0, 44.0), n_channels=4,
                schemes=("onebit-md", "zf-quant"), seed=3,
                record_runtime=False)
    base.update(kw)
    return ExperimentConfig(**base)


def fixed_design(seed=0, m=6, k=2, t=3):
    """A one-bit design on a fixed channel, for simulation-only tests."""
    ch = channel_realization(seed, 0, m, 4, k)
    rng = np.random.default_rng(seed)
    symbols = SymbolFrame.random(QPSK, k, t, rng)
    phases = PhaseShifts.random(4, rng)
    h_eff = effective_matrix(ch, phases)
    rows = [solve_symbol(build_coefficients(h_eff, symbols.symbols[:, j], QPSK, 100.0),
                         rng=rng).xbar
            for j in range(t)]
    xbar = np.stack(rows)
    x = xbar[:, :m] + 1j * xbar[:, m:]
    return ch, phases, x, symbols


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_cfg(solver=SolverConfig(mu=1e-3, n_starts=2))
        # the path the command line takes: JSON text through from_dict
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(n_channels=0)
        with pytest.raises(ValueError):
            small_cfg(noise_grid_db=())
        with pytest.raises(ValueError):
            small_cfg(k=0)
        with pytest.raises(ValueError):
            small_cfg(schemes=("nonesuch",))
        with pytest.raises(ValueError):
            small_cfg(schemes="onebit-md")
        with pytest.raises(ValueError):
            small_cfg(schemes=("onebit-md", "onebit-md"))
        # an empty list used to load and run to a header-only CSV
        with pytest.raises(ValueError, match="schemes must be nonempty"):
            small_cfg(schemes=())
        with pytest.raises(ValueError, match="schemes must be nonempty"):
            ExperimentConfig.from_dict({"m": 4, "schemes": []})
        with pytest.raises(ValueError):
            small_cfg(theta_policy="fixed")
        with pytest.raises(ValueError):
            small_cfg(theta_policy="reoptimized")
        with pytest.raises(ValueError):
            small_cfg(power=0.0)
        with pytest.raises(ValueError, match="seed"):
            small_cfg(seed=1.5)
        # sigma^2 = 10^(-db/10) underflows to 0 at 4000 dB and overflows at
        # -4000 dB; both used to load and then fail inside a channel run
        for db in (4000.0, -4000.0):
            with pytest.raises(ValueError, match="noise variance"):
                small_cfg(noise_grid_db=(30.0, db))
        assert small_cfg(noise_grid_db=(3000.0, -3000.0)).noise_grid_db == (3000.0, -3000.0)
        # these used to load: a string grid iterated to (3.0, 0.0) dB, an
        # unsupported order failed in the first channel, any truthy string
        # switched the runtime column on, and True passed as 1
        for bad in (dict(noise_grid_db="30"), dict(noise_grid_db=30.0),
                    dict(noise_grid_db=(30.0, "38")), dict(noise_grid_db=(True,)),
                    dict(order=3), dict(order=32), dict(record_runtime="no"),
                    dict(record_runtime=1), dict(m=True), dict(n_channels=True),
                    dict(seed=True), dict(power=True), dict(power="100"),
                    dict(power=math.nan), dict(solver={"mu": 1e-3})):
            with pytest.raises(ValueError):
                small_cfg(**bad)

    def test_unimplemented_scheme_rejected_as_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme 'onebit-gemm'"):
            small_cfg(schemes=("onebit-gemm",))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"m": 4, "bogus": 1})
        with pytest.raises(ValueError, match="unknown solver config keys"):
            SolverConfig.from_dict({"mu": 1e-3, "bogus": 1})

    @pytest.mark.parametrize("solver", [5, None, "x", [1], [["mu", 1e-3]], 1e-3, True])
    def test_solver_entry_must_be_an_object(self, solver):
        # a number or null used to raise TypeError, and a string or list was
        # read as a collection of "unknown solver config keys"
        with pytest.raises(ValueError, match="solver must be a JSON object"):
            ExperimentConfig.from_dict({"m": 4, "solver": solver})

    @pytest.mark.parametrize("config", [[1, 2], 5, None, "m", [["m", 4]]])
    def test_config_must_be_an_object(self, config):
        # a list, number or null used to raise TypeError
        with pytest.raises(ValueError, match="config must be a JSON object"):
            ExperimentConfig.from_dict(config)

    @pytest.mark.parametrize("solver", [{"mbi_restarts": 0}, {"delta": 0},
                                        {"ao_max_outer": 0}, {"mu": 0},
                                        {"mu": math.nan}, {"mu": math.inf},
                                        {"delta": math.nan}, {"md_max_iter": -1},
                                        {"md_tol": -1}, {"md_tol": math.nan},
                                        {"apg_tol": math.nan}, {"ao_stop_tol": math.nan},
                                        {"md_max_iter": 10.5}, {"mbi_restarts": 1.5},
                                        {"ao_max_outer": 2.5}, {"apg_max_iter": 3.5},
                                        {"n_starts": 1.5}, {"mu": "0.1"},
                                        {"md_tol": "1e-6"}, {"mu": True},
                                        {"md_tol": False}, {"n_starts": True},
                                        {"apg_max_iter": "500"}],
                             ids=["mbi_restarts", "delta", "ao_max_outer", "mu",
                                  "mu_nan", "mu_inf", "delta_nan", "md_max_iter_negative",
                                  "md_tol_negative", "md_tol_nan", "apg_tol_nan",
                                  "ao_stop_tol_nan", "md_max_iter_fractional",
                                  "mbi_restarts_fractional", "ao_max_outer_fractional",
                                  "apg_max_iter_fractional", "n_starts_fractional",
                                  "mu_string", "md_tol_string", "mu_bool", "md_tol_bool",
                                  "n_starts_bool", "apg_max_iter_string"])
    def test_bad_solver_settings_rejected_on_load(self, solver):
        # rejected when the config loads, not later inside a channel run
        # (a NaN mu would hang mirror descent's backtracking; a fractional
        # count would raise TypeError in the first channel; a string used to
        # raise TypeError on load and a bool passed as 0 or 1)
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"m": 4, "solver": solver})

    @pytest.mark.parametrize("text", [
        '{"power": NaN}', '{"power": Infinity}', '{"noise_grid_db": [NaN]}',
        '{"noise_grid_db": [30.0, Infinity]}', '{"noise_grid_db": [-Infinity]}',
        '{"solver": {"mu": NaN}}',
    ])
    def test_non_finite_json_values_rejected_on_load(self, text):
        # json.loads accepts these literals; the config must not
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(json.loads(text))


class TestSimulate:
    def test_vanishing_noise_no_errors(self):
        ch, phases, x, symbols = fixed_design()
        margins = frame_margins(ch, phases, x, symbols)
        assert margins.min() > 0  # precondition for the zero-error claim
        noise = draw_noise(4, symbols.n_users, symbols.n_slots, np.random.default_rng(0))
        be, se, bits, syms = simulate_transmission(x, phases, ch, symbols, 1e-30, noise)
        assert (be, se) == (0, 0)
        assert syms == 4 * symbols.n_users * symbols.n_slots
        assert bits == 2 * syms

    def test_same_seed_same_counts(self):
        ch, phases, x, symbols = fixed_design(1)
        sigma2 = inv_db_to_sigma2(38.0)

        def counts():
            noise = draw_noise(50, symbols.n_users, symbols.n_slots, np.random.default_rng(7))
            return simulate_transmission(x, phases, ch, symbols, sigma2, noise)

        assert counts() == counts()

    def test_empirical_ser_within_bound(self):
        # union bound on the symbol error probability, Monte-Carlo checked
        ch, phases, x, symbols = fixed_design(2)
        margins = frame_margins(ch, phases, x, symbols)
        sigma2 = float((margins.min() / 2.2) ** 2 * 2)  # moderate error rate
        n_noise = 10000
        noise = draw_noise(n_noise, symbols.n_users, symbols.n_slots,
                           np.random.default_rng(3))
        _, se, _, syms = simulate_transmission(x, phases, ch, symbols, sigma2, noise)
        ser = se / syms
        bound = float(np.minimum(sep_upper_bound(margins, sigma2, QPSK), 1.0).mean())
        mc_sd = np.sqrt(max(ser * (1 - ser), 1e-12) / syms)
        assert ser <= bound + 3 * mc_sd
        assert ser > 0  # the check is vacuous if nothing errors

    @settings(max_examples=60, deadline=None)
    @given(order=st.sampled_from([2, 4, 8, 16]), n_noise=st.sampled_from([1, 3, 400]),
           seed=st.integers(0, 2 ** 32 - 1), log_sigma2=st.floats(-300, 300),
           design=st.sampled_from(["one-bit", "zero"]), zero_noise=st.booleans())
    # -0 noise parts meet the -0 parts of a zero design: the sign of each zero
    # sum picks sector 0 or L/2
    @example(order=2, n_noise=1, seed=4_294_967_294, log_sigma2=0.0, design="zero",
             zero_noise=True)
    def test_counts_match_the_reference(self, order, n_noise, seed, log_sigma2,
                                        design, zero_noise):
        # the in-place counting path gives the plain formulation's counts
        # exactly, also where signed zeros meet in the noise or the design
        rng = np.random.default_rng(seed)
        c = PskConstellation(order)
        ch = channel_realization(seed % 1000, 0, 6, 4, 2)
        phases = PhaseShifts.random(4, rng)
        symbols = SymbolFrame.random(c, 2, 3, rng)
        x = rng.choice([-1.0, 1.0], size=(3, 6)) + 1j * rng.choice([-1.0, 1.0], size=(3, 6))
        if design == "zero":
            x = np.zeros((3, 6), dtype=complex)
        noise = draw_noise(n_noise, 2, 3, rng)
        if zero_noise:
            for part in noise:
                hit = rng.random(part.shape) < 0.3
                part[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
        sigma2 = 10.0 ** log_sigma2
        assert (simulate_transmission(x, phases, ch, symbols, sigma2, noise)
                == reference_simulate_transmission(x, phases, ch, symbols, sigma2, noise))

    @settings(max_examples=60, deadline=None)
    @given(order=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 2 ** 32 - 1),
           n_noise=st.sampled_from([1, 3, 50]), wobble=st.floats(0.0, 0.3),
           shrink=st.floats(1e-6, 0.9))
    def test_positive_margin_design_is_error_free_as_noise_vanishes(
            self, order, seed, n_noise, wobble, shrink):
        # a random design near zero forcing; once every scaled noise sample is
        # shorter than margin * sin(pi/L), the distance from each receive point
        # to its sector's edges, no decision can be wrong
        rng = np.random.default_rng(seed)
        c = PskConstellation(order)
        ch = channel_realization(seed % 1000, 0, 8, 4, 3)
        phases = PhaseShifts.random(4, rng)
        symbols = SymbolFrame.random(c, 3, 5, rng)
        x = zf_precode(effective_matrix(ch, phases), symbols, 100.0).x
        x = x + wobble * np.abs(x).mean() * (rng.standard_normal(x.shape)
                                             + 1j * rng.standard_normal(x.shape))
        worst = frame_margins(ch, phases, x, symbols).min()
        reach = np.abs(effective_matrix(ch, phases)).sum(axis=1).max() * np.abs(x).max()
        assume(worst > 1e-9 * reach)  # well clear of rounding
        noise = draw_noise(n_noise, 3, 5, rng)
        radius = worst * np.sin(np.pi / order)
        sigma2 = 2.0 * (shrink * radius / np.hypot(*noise).max()) ** 2
        be, se, bits, syms = simulate_transmission(x, phases, ch, symbols, sigma2, noise)
        assert (be, se) == (0, 0)
        assert syms == n_noise * 3 * 5 and bits == syms * c.bits_per_symbol

    def test_invalid_args(self):
        ch, phases, x, symbols = fixed_design(3)
        k, t = symbols.n_users, symbols.n_slots
        noise = draw_noise(1, k, t, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_transmission(x, phases, ch, symbols, 0.0, noise)
        with pytest.raises(ValueError):
            draw_noise(0, k, t, np.random.default_rng(0))
        # a complex block, a 3-D block, and blocks of the wrong size
        for bad in (noise[0] + 1j * noise[1], noise[0], noise[:1], noise[:, :0],
                    noise[:, :, :, :-1], noise[..., None]):
            with pytest.raises(ValueError, match="noise"):
                simulate_transmission(x, phases, ch, symbols, 1.0, bad)

    def test_noise_block_holds_the_complex_draws(self):
        # the planar block is the complex (n_noise, K, T) draw that the same
        # substream gives, all real parts first
        shape = (3, 4, 5)
        rng = np.random.default_rng(9)
        want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        noise = draw_noise(*shape, np.random.default_rng(9))
        assert noise.shape == (2, *shape) and noise.dtype == np.float64
        assert np.array_equal(noise[0] + 1j * noise[1], want)
        assert np.array_equal(noise[0], want.real) and np.array_equal(noise[1], want.imag)


def uniform_replays(calls):
    """The spied mirror_descent calls rerun from the uniform point, where MD
    iterates; from their cold start, onebit.model_start, it mostly does not."""
    return [mirror_descent(a["coeff"], a["mu"], a["opts"]) for a, _ in calls]


# per solver setting: a non-default value, the function that reads it (module
# and name as its caller looks it up) and what that function's (arguments,
# result) pairs from one 2-channel run show only when the value reached it
SETTING_READERS = {
    "mu": (1e-3, onebit, "mirror_descent",
           lambda calls: all(a["mu"] == 1e-3 for a, _ in calls)),
    "md_max_iter": (2, onebit, "mirror_descent",
                    lambda calls: max(md.n_iter for md in uniform_replays(calls)) == 2),
    "md_tol": (1e-2, onebit, "mirror_descent",
               lambda calls: any(md.converged and md.residual > 1e-6
                                 for md in uniform_replays(calls))),
    "mbi_restarts": (3, onebit, "mbi_round",
                     lambda calls: all(a["restarts"] == 3 for a, _ in calls)),
    "delta": (5e-2, phase, "_lse", lambda calls: all(a["delta"] == 5e-2 for a, _ in calls)),
    "apg_max_iter": (2, ao, "apg_optimize",
                     lambda calls: max(res.n_iter for _, res in calls) == 2),
    # a unit-modulus step moves by at most 2 sqrt(N) = 4, so APG stops at once
    "apg_tol": (5.0, ao, "apg_optimize",
                lambda calls: all(res.converged and res.n_iter == 1 for _, res in calls)),
    "ao_max_outer": (1, harness, "alternating_optimize",
                     lambda calls: all(len(trace) == 1 for _, (_, _, trace) in calls)),
    "n_starts": (2, ao, "_single_run", lambda calls: len(calls) == 4),
}


class TestRunExperiment:
    def test_record_layout(self):
        cfg = small_cfg()
        recs = run_experiment(cfg)
        assert len(recs) == len(cfg.schemes) * len(cfg.noise_grid_db)
        keys = [(r.scheme, r.inv_sigma2_db) for r in recs]
        assert keys == [(s, db) for s in cfg.schemes for db in cfg.noise_grid_db]
        for r in recs:
            assert r.n_channels_ok + r.n_channels_failed == cfg.n_channels
            assert 0 <= r.bit_errors <= r.bits
            assert 0 <= r.sym_errors <= r.syms

    @pytest.mark.parametrize("policy", ["random", "shared"])
    def test_relaxed_starts_warm_only_at_the_joint_designs_phases(self, monkeypatch,
                                                                  policy):
        # "random": the box solve runs cold at the channel's random phases.
        # "shared": it runs at AO's phases from AO's last dual points as they
        # are. Either way it equals a cold relaxed_slp there
        import irsprecode.harness as hn

        cfg = small_cfg(schemes=("onebit-md", "relaxed", "relaxed-quant"),
                        n_channels=2, theta_policy=policy)
        designs, boxes = [], []
        real_ao, real_box = hn.alternating_optimize, hn.relaxed_slp

        def ao_spy(*args, **kwargs):
            designs.append(real_ao(*args, **kwargs))
            return designs[-1]

        def box_spy(h_eff, symbols, power, opts, lam0):
            boxes.append((h_eff, symbols, lam0, real_box(h_eff, symbols, power, opts, lam0)))
            return boxes[-1][-1]

        monkeypatch.setattr(hn, "alternating_optimize", ao_spy)
        monkeypatch.setattr(hn, "relaxed_slp", box_spy)
        run_experiment(cfg)
        assert len(boxes) == len(designs) == cfg.n_channels
        opts = cfg.solver
        for i, ((_, phases, trace), (h_eff, symbols, lam0, res)) in enumerate(
                zip(designs, boxes)):
            if policy == "shared":
                assert lam0 is trace[-1].lams
            else:
                phases = PhaseShifts.random(cfg.n, hn._substream(cfg, i, hn._TAG_THETA))
                assert lam0 is None
            ch = channel_realization(cfg.seed, i, cfg.m, cfg.n, cfg.k)
            assert np.array_equal(h_eff, effective_matrix(ch, phases))
            direct = real_box(h_eff, symbols, cfg.power, opts, None)
            for name in ("x", "relax_values", "converged"):
                assert np.array_equal(getattr(res, name), getattr(direct, name))

    def test_box_at_the_joint_designs_phases_is_cold_after_a_round_cap_stop(
            self, monkeypatch):
        # one AO round: every run stops at the cap, and its last dual points
        # were computed at the phases before the phase step, so the box at
        # AO's phases must equal a cold relaxed_slp
        import irsprecode.harness as hn

        cfg = small_cfg(schemes=("onebit-md", "relaxed"), t=6, n_channels=6,
                        solver=SolverConfig(ao_max_outer=1))
        designs, boxes = [], []
        real_ao, real_box = hn.alternating_optimize, hn.relaxed_slp

        def ao_spy(*args, **kwargs):
            designs.append(real_ao(*args, **kwargs))
            return designs[-1]

        def box_spy(h_eff, symbols, power, opts, lam0):
            boxes.append((h_eff, symbols, real_box(h_eff, symbols, power, opts, lam0)))
            return boxes[-1][-1]

        monkeypatch.setattr(hn, "alternating_optimize", ao_spy)
        monkeypatch.setattr(hn, "relaxed_slp", box_spy)
        run_experiment(cfg)
        assert len(boxes) == len(designs) == cfg.n_channels
        for i, ((_, phases, trace), (h_eff, symbols, res)) in enumerate(
                zip(designs, boxes)):
            assert len(trace) == 1
            ch = channel_realization(cfg.seed, i, cfg.m, cfg.n, cfg.k)
            assert np.array_equal(h_eff, effective_matrix(ch, phases))
            direct = real_box(h_eff, symbols, cfg.power, cfg.solver, None)
            for name in ("x", "relax_values", "converged"):
                assert np.array_equal(getattr(res, name), getattr(direct, name))

    def test_each_frame_takes_its_cold_starts_in_one_call(self, monkeypatch):
        # one onebit.model_starts call of T slots per AO round's x-step, per
        # onebit-md-noirs frame and per cold box solve (relaxed-noirs); no slot
        # falls back to solve_relaxed's single-slot start
        calls = {module: [] for module in (ao, harness, baselines, onebit)}
        rounds = []

        for module in calls:
            def start_spy(coeffs, mu, real=onebit.model_starts, module=module):
                calls[module].append(len(coeffs))
                return real(coeffs, mu)

            monkeypatch.setattr(module, "model_starts", start_spy)

        def ao_spy(*args, real=harness.alternating_optimize, **kwargs):
            out = real(*args, **kwargs)
            rounds.append(len(out[2]))
            return out

        monkeypatch.setattr(harness, "alternating_optimize", ao_spy)
        cfg = small_cfg(schemes=("onebit-md", "onebit-md-noirs", "relaxed-noirs"))
        run_experiment(cfg)
        assert len(rounds) == cfg.n_channels and sum(rounds) > cfg.n_channels
        assert calls[ao] == [cfg.t] * sum(rounds)
        assert calls[harness] == calls[baselines] == [cfg.t] * cfg.n_channels
        assert calls[onebit] == []

    def test_design_substreams_follow_the_registry_order(self):
        # a scheme's design draws come from the substream at its place in
        # SCHEMES, so reordering the registry would re-key every scheme's draws
        assert harness._CANONICAL_ORDER == tuple(SCHEMES) == (
            "onebit-md", "onebit-md-noirs", "relaxed", "relaxed-noirs",
            "relaxed-quant", "relaxed-quant-noirs", "zf-quant", "zf-quant-noirs")

    @settings(max_examples=40, deadline=None)
    @given(order=st.permutations(tuple(SCHEMES)),
           keep=st.lists(st.booleans(), min_size=len(SCHEMES), max_size=len(SCHEMES)),
           policy=st.sampled_from(["shared", "random"]))
    def test_scheme_subset_invariance(self, order, keep, policy):
        # adding schemes to a run must not perturb existing schemes' numbers,
        # except that the shared-phase baselines take onebit-md's phases and
        # dual points: a subset's records equal the full run's when it holds
        # onebit-md (or the baselines draw random phases), else those of the
        # run of every scheme but onebit-md
        subset = [s for s, k in zip(order, keep) if k]
        assume(subset)
        ref = _subset_reference(policy, policy == "random" or "onebit-md" in subset)
        recs = run_experiment(_subset_cfg(tuple(subset), policy))
        assert recs == [r for s in subset for r in ref if r.scheme == s]

    def test_zf_only_run_skips_slp_solvers(self, monkeypatch):
        import irsprecode.harness as hn

        def boom(*a, **k):
            raise AssertionError("SLP solver invoked")

        monkeypatch.setattr(hn, "solve_symbol", boom)
        monkeypatch.setattr(hn, "relaxed_slp", boom)
        monkeypatch.setattr(hn, "alternating_optimize", boom)
        recs = run_experiment(small_cfg(schemes=("zf-quant", "zf-quant-noirs")))
        assert all(r.n_channels_ok == 4 for r in recs)

    def test_shared_noise_block_matches_a_fresh_draw_per_point(self, monkeypatch):
        # each (scheme, noise point) counts errors under exactly the noise a
        # fresh _TAG_NOISE substream of its channel draws
        import irsprecode.harness as hn

        cfg = small_cfg(schemes=("onebit-md", "zf-quant", "relaxed-quant-noirs"),
                        noise_grid_db=(10.0, 20.0, 30.0), n_noise=3, n_channels=3)
        calls = []
        real = hn.simulate_transmission

        def spy(frame, phases, ch, symbols, sigma2, noise):
            calls.append((frame, phases, ch, symbols, sigma2))
            return real(frame, phases, ch, symbols, sigma2, noise)

        monkeypatch.setattr(hn, "simulate_transmission", spy)
        _, per_channel = run_experiment(cfg, keep_channel_detail=True)
        shape = (cfg.n_noise, cfg.k, cfg.t)
        pending = iter(calls)
        total_errors = 0
        for i, outcomes in enumerate(per_channel):
            for scheme in cfg.schemes:
                for j, db in enumerate(cfg.noise_grid_db):
                    frame, phases, ch, symbols, sigma2 = next(pending)
                    assert sigma2 == inv_db_to_sigma2(db)
                    rng = hn._substream(cfg, i, hn._TAG_NOISE)
                    fresh = np.stack([rng.standard_normal(shape), rng.standard_normal(shape)])
                    be, se, _, _ = real(frame, phases, ch, symbols, sigma2, fresh)
                    assert (be, se) == (outcomes[scheme].bit_err[j],
                                        outcomes[scheme].sym_err[j])
                    total_errors += be
        assert next(pending, None) is None
        assert total_errors > 0

    @pytest.mark.parametrize("best_converged", [True, False])
    def test_ao_status_comes_from_the_returned_round(self, monkeypatch, best_converged):
        # the joint design takes its status from the round
        # alternating_optimize returns (here the first: the last round did
        # not improve on it), not from the last round that ran
        import irsprecode.harness as hn

        real = hn.alternating_optimize

        def fake(ch, symbols, power, rng, opts):
            frame, phases, trace = real(ch, symbols, power, rng, opts)
            n_slots, lams = symbols.n_slots, trace[-1].lams
            best = AoIterationRecord(1, 0.2, [best_converged] * n_slots, best_converged,
                                     lams)
            last = AoIterationRecord(2, 0.1, [not best_converged] * n_slots,
                                     not best_converged, lams)
            return frame, phases, [best, last]

        monkeypatch.setattr(hn, "alternating_optimize", fake)
        cfg = small_cfg(schemes=("onebit-md",), n_channels=2)
        _, per_channel = run_experiment(cfg, keep_channel_detail=True)
        want = "ok" if best_converged else "inner-solver-nonconverged"
        for outcomes in per_channel:
            assert outcomes["onebit-md"].status == want

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = small_cfg(n_channels=5,
                        schemes=("onebit-md", "relaxed", "zf-quant-noirs"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg, threads=1), p1)
        write_csv(run_experiment(cfg, threads=2), p2)
        assert p1.read_bytes() == p2.read_bytes()
        # 2.5 used to fail inside the process pool, "2" on the comparison,
        # and True ran as 1
        for bad in (0, 2.5, "2", True):
            with pytest.raises(ValueError, match="threads must be an integer >= 1"):
                run_experiment(cfg, threads=bad)

    def test_workers_do_not_outnumber_the_channels(self, monkeypatch):
        # the fork start method launches every worker of the pool at once
        started = []

        class Pool(harness.ProcessPoolExecutor):
            def __exit__(self, *exc):
                started.append(len(self._processes))
                return super().__exit__(*exc)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        cfg = small_cfg(n_channels=1)
        assert run_experiment(cfg, threads=3) == run_experiment(cfg)
        assert started == [1]

    def test_mean_worst_margin_matches_detail(self):
        cfg = small_cfg()
        recs, detail = run_experiment(cfg, keep_channel_detail=True)
        for scheme in cfg.schemes:
            rec = next(r for r in recs if r.scheme == scheme)
            margins = [d[scheme].worst_margin for d in detail if d[scheme].ok]
            assert rec.mean_worst_margin == pytest.approx(np.mean(margins))

    def test_forced_failures_are_counted_not_dropped(self):
        weak = SolverConfig(md_max_iter=1, md_tol=1e-16)
        cfg = small_cfg(schemes=("onebit-md",), solver=weak)
        recs = run_experiment(cfg)
        for r in recs:
            assert r.n_channels_failed == cfg.n_channels
            assert r.n_channels_ok == 0
            assert r.bits == 0 and r.ber == 0.0

    def test_noise_draw_knob_scales_counts(self):
        cfg = small_cfg(schemes=("zf-quant",), n_noise=3)
        recs = run_experiment(cfg)
        per_channel_syms = 3 * cfg.k * cfg.t
        assert all(r.syms == 4 * per_channel_syms for r in recs)
        assert all(r.bits == 2 * r.syms for r in recs)

    def test_runtime_column_suppressed_and_enabled(self):
        quiet = run_experiment(small_cfg(schemes=("onebit-md",)))
        assert all(r.mean_runtime_s == 0.0 for r in quiet)
        timed = run_experiment(small_cfg(schemes=("onebit-md",),
                                         record_runtime=True))
        assert all(r.mean_runtime_s > 0.0 for r in timed)
        report = timing_report(timed)
        assert "onebit-md" in report and "mean design time" in report

    def test_margin_ordering_across_schemes(self):
        # unquantized proxy >= joint one-bit design >= naive quantization,
        # in mean worst margin over channels
        cfg = ExperimentConfig(m=16, n=8, k=3, t=8, noise_grid_db=(34.0,),
                               n_channels=12,
                               schemes=("onebit-md", "relaxed", "relaxed-quant",
                                        "zf-quant"),
                               seed=5, record_runtime=False)
        recs = run_experiment(cfg)
        by = {r.scheme: r.mean_worst_margin for r in recs}
        assert by["relaxed"] > by["onebit-md"] > by["relaxed-quant"]
        assert by["onebit-md"] > by["zf-quant"]

    def test_mc_standard_error_scaling(self):
        # doubling the channel count shrinks the standard error of the
        # per-channel BER mean by about sqrt(2)
        cfg = ExperimentConfig(m=8, n=4, k=2, t=10, noise_grid_db=(38.0,),
                               n_channels=40, schemes=("zf-quant",), seed=11,
                               record_runtime=False)
        _, detail = run_experiment(cfg, keep_channel_detail=True)
        bers = np.array([d["zf-quant"].bit_err[0] / d["zf-quant"].bits
                         for d in detail])
        se20 = bers[:20].std(ddof=1) / np.sqrt(20)
        se40 = bers.std(ddof=1) / np.sqrt(40)
        assert 1.2 <= se20 / se40 <= 1.8

    def test_theta_policies_run(self):
        for policy in ("shared", "random"):
            cfg = small_cfg(schemes=("onebit-md", "relaxed", "zf-quant"),
                            n_channels=2, theta_policy=policy)
            recs = run_experiment(cfg)
            assert len(recs) == 6
        # without the joint scheme, shared falls back to random phases
        a = run_experiment(small_cfg(schemes=("zf-quant",), n_channels=2,
                                     theta_policy="shared"))
        b = run_experiment(small_cfg(schemes=("zf-quant",), n_channels=2,
                                     theta_policy="random"))
        assert a == b

    @pytest.mark.parametrize("name", sorted(SETTING_READERS))
    def test_each_solver_setting_reaches_its_reader(self, monkeypatch, name):
        # the benchmark digests cover default settings only; here each
        # setting at a non-default value changes what its reader does in a
        # run, and the same check fails at the default
        value, module, fn_name, shows = SETTING_READERS[name]
        real = getattr(module, fn_name)
        sig = inspect.signature(real)
        calls = []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments, out))
            return out

        monkeypatch.setattr(module, fn_name, spy)
        cfg = small_cfg(n_channels=2, schemes=("onebit-md", "relaxed", "onebit-md-noirs"))
        for solver, want in ((SolverConfig(), False), (SolverConfig(**{name: value}), True)):
            calls.clear()
            run_experiment(dataclasses.replace(cfg, solver=solver))
            assert calls and shows(calls) == want


def _subset_cfg(schemes, policy):
    return small_cfg(n_channels=2, n_noise=2, schemes=schemes, theta_policy=policy)


@functools.cache
def _subset_reference(policy, with_joint):
    """Records of the run of all 8 schemes, or of the 7 without onebit-md."""
    schemes = tuple(s for s in SCHEMES if with_joint or s != "onebit-md")
    return run_experiment(_subset_cfg(schemes, policy))


def assert_tallies(cfg, records, per_channel):
    """What the records must satisfy given the run: every channel counted,
    ok or failed, and the bits and errors consistent with what was sent."""
    bits_per_symbol = int(math.log2(cfg.order))
    assert len(per_channel) == cfg.n_channels
    assert [(r.scheme, r.inv_sigma2_db) for r in records] == [
        (s, db) for s in cfg.schemes for db in cfg.noise_grid_db]
    for r in records:
        n_ok = sum(res[r.scheme].ok for res in per_channel)
        assert (r.n_channels_ok, r.n_channels_failed) == (n_ok, cfg.n_channels - n_ok)
        assert r.syms == n_ok * cfg.k * cfg.t * cfg.n_noise
        assert r.bits == r.syms * bits_per_symbol
        # a Gray-labelled symbol error flips between 1 and log2(L) bits
        assert 0 <= r.sym_errors <= r.bit_errors <= bits_per_symbol * r.sym_errors
        assert r.sym_errors <= r.syms
        assert r.ber == (r.bit_errors / r.bits if r.bits else 0.0)


class TestEdgeRuns:
    @pytest.mark.parametrize("order", [2, 16])
    def test_extreme_psk_orders_tally(self, order):
        # BPSK has cot(pi/L) = 0; 16-PSK carries four bits per symbol
        cfg = small_cfg(order=order, n_channels=2, n_noise=2, schemes=tuple(SCHEMES),
                        noise_grid_db=(10.0, 40.0))
        records, per_channel = run_experiment(cfg, keep_channel_detail=True)
        assert_tallies(cfg, records, per_channel)
        assert sum(r.bit_errors for r in records) > 0
        assert all(res["onebit-md"].ok for res in per_channel)

    def test_large_noise_block_counts_match_the_reference(self, monkeypatch):
        # 20000 noise draws per channel: the tallies hold (bits = ok channels
        # x K x T x n_noise x 2) and the counts equal those of the plain array
        # formulation channel by channel
        import irsprecode.harness as hn

        cfg = small_cfg(m=8, k=2, t=4, n_channels=2, n_noise=20000,
                        schemes=("zf-quant", "relaxed-quant-noirs"))
        records, per_channel = run_experiment(cfg, keep_channel_detail=True)
        monkeypatch.setattr(hn, "simulate_transmission", reference_simulate_transmission)
        _, reference = run_experiment(cfg, keep_channel_detail=True)
        assert_tallies(cfg, records, per_channel)
        assert sum(r.bit_errors for r in records) > 0

        def counts(outcomes):
            return [{s: (o.status, o.bit_err, o.sym_err, o.bits, o.syms)
                     for s, o in res.items()} for res in outcomes]

        assert counts(per_channel) == counts(reference)

    def test_more_users_than_antennas(self):
        # K > M: zero forcing is rank deficient on every channel and is
        # counted as failed with its reason, while the one-bit design runs
        cfg = small_cfg(m=2, k=3, n_channels=3,
                        schemes=("onebit-md", "zf-quant", "onebit-md-noirs", "zf-quant-noirs"))
        records, per_channel = run_experiment(cfg, keep_channel_detail=True)
        assert_tallies(cfg, records, per_channel)
        for res in per_channel:
            assert res["zf-quant"].status == "rank-deficient"
            assert res["zf-quant-noirs"].status == "rank-deficient"
            assert res["onebit-md"].ok and res["onebit-md-noirs"].ok
            assert np.isfinite(res["onebit-md"].worst_margin)
        for r in records:
            if r.scheme.startswith("zf-quant"):
                assert (r.n_channels_ok, r.n_channels_failed) == (0, cfg.n_channels)
            else:
                assert r.n_channels_ok == cfg.n_channels and r.bits > 0

    def test_all_zero_channels(self, monkeypatch):
        # every coefficient matrix is zero: mirror descent returns at its
        # zero-Gram branch, APG at its zero-Lipschitz branch, and zero forcing
        # is counted rank deficient; every pair is still tallied
        import irsprecode.harness as hn
        import irsprecode.onebit as ob

        def zero_channels(seed, index, m, n, k):
            return ChannelSet(h_d=np.zeros((k, m)), g=np.zeros((n, m)), h_r=np.zeros((k, n)))

        md_runs = []
        real_md = ob.mirror_descent

        def spy(*args, **kwargs):
            md = real_md(*args, **kwargs)
            md_runs.append((md.n_iter, md.converged))
            return md

        monkeypatch.setattr(hn, "channel_realization", zero_channels)
        monkeypatch.setattr(ob, "mirror_descent", spy)
        cfg = small_cfg(n_channels=2, schemes=tuple(SCHEMES))
        records, per_channel = run_experiment(cfg, keep_channel_detail=True)
        assert_tallies(cfg, records, per_channel)
        assert md_runs and set(md_runs) == {(0, True)}
        for res in per_channel:
            assert {s: o.status for s, o in res.items() if not o.ok} == {
                "zf-quant": "rank-deficient", "zf-quant-noirs": "rank-deficient"}
            assert all(np.isfinite(o.worst_margin) for o in res.values())

    @pytest.mark.parametrize("policy", ["random", "shared"])
    def test_zero_reflected_path(self, monkeypatch, policy):
        # with G = 0 the surface does nothing: each scheme on the surface
        # channel sees the direct channel of its no-surface twin. Under
        # "shared" the surface box solve starts from AO's last dual points
        # and its twin from the uniform point, so both stop within MD's
        # tolerance of one optimum but not on the same bits
        import irsprecode.harness as hn

        def no_surface(seed, index, m, n, k):
            return hn.no_irs_variant(channel_realization(seed, index, m, n, k))

        monkeypatch.setattr(hn, "channel_realization", no_surface)
        cfg = small_cfg(n_channels=2, n_noise=2, schemes=tuple(SCHEMES),
                        noise_grid_db=(10.0, 40.0), theta_policy=policy)
        records, per_channel = run_experiment(cfg, keep_channel_detail=True)
        assert_tallies(cfg, records, per_channel)
        exact = ("zf-quant",) if policy == "shared" else ("relaxed", "relaxed-quant",
                                                          "zf-quant")
        for res in per_channel:
            assert all(o.ok for o in res.values())
            for scheme in exact:
                with_surface, without = (dataclasses.replace(res[name], runtime_s=0.0)
                                         for name in (scheme, scheme + "-noirs"))
                assert with_surface == without
            for scheme in ("relaxed", "relaxed-quant"):
                assert res[scheme].status == res[scheme + "-noirs"].status
            assert res["relaxed"].worst_margin == pytest.approx(
                res["relaxed-noirs"].worst_margin, rel=1e-4)
            # AO's first round is the no-surface design, and AO never
            # returns a round worse than its first
            assert res["onebit-md"].worst_margin >= res["onebit-md-noirs"].worst_margin


class TestCsv:
    def test_columns_and_round_trip(self, tmp_path):
        recs = run_experiment(small_cfg())
        path = tmp_path / "out.csv"
        write_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(recs)
        import csv as csvmod
        with open(path) as fh:
            rows = list(csvmod.DictReader(fh))
        for row, rec in zip(rows, recs):
            assert row["scheme"] == rec.scheme
            assert int(row["bit_errors"]) == rec.bit_errors
            assert float(row["ber"]) == rec.ber
            assert int(row["n_channels_ok"]) == rec.n_channels_ok

    def test_record_invariant(self):
        with pytest.raises(ValueError):
            BerRecord(scheme="zf-quant", inv_sigma2_db=30.0, ber=0.0, ser=0.0,
                      bit_errors=5, bits=4, sym_errors=0, syms=2,
                      mean_worst_margin=0.0, mean_runtime_s=0.0,
                      n_channels_ok=1, n_channels_failed=0)


class TestFixtures:
    def test_channel_realization_deterministic(self):
        a = channel_realization(9, 2, 6, 4, 3)
        b = channel_realization(9, 2, 6, 4, 3)
        assert np.array_equal(a.h_d, b.h_d)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.h_r, b.h_r)
        c = channel_realization(9, 3, 6, 4, 3)
        assert not np.array_equal(a.h_d, c.h_d)

    def test_round_trip_through_channel_json(self):
        ch = channel_realization(4, 0, 5, 3, 2)
        again = ChannelSet.from_dict(json.loads(json.dumps(ch.to_dict())))
        assert np.allclose(again.h_d, ch.h_d)
        assert np.allclose(again.g, ch.g)
        assert np.allclose(again.h_r, ch.h_r)
