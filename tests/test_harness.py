"""Experiment harness tests: configs, pairing, determinism, aggregation."""

import json

import numpy as np
import pytest

from irsprecode.ao import frame_margins
from irsprecode.channel import ChannelSet, PhaseShifts
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
from irsprecode.onebit import solve_symbol

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
    from irsprecode.channel import effective_matrix
    h_eff = effective_matrix(ch, phases)
    rows = [solve_symbol(h_eff, symbols.symbols[:, j], QPSK, 100.0, rng=rng).xbar
            for j in range(t)]
    xbar = np.stack(rows)
    x = xbar[:, :m] + 1j * xbar[:, m:]
    return ch, phases, x, symbols


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_cfg(solver=SolverConfig(mu=1e-3, n_starts=2))
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert isinstance(json.loads(cfg.to_json()), dict)

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
        with pytest.raises(ValueError):
            small_cfg(theta_policy="fixed")
        with pytest.raises(ValueError):
            small_cfg(power=0.0)

    def test_reserved_scheme_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            small_cfg(schemes=("onebit-gemm",))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"m": 4, "bogus": 1})
        with pytest.raises(ValueError, match="unknown solver config keys"):
            SolverConfig.from_dict({"mu": 1e-3, "bogus": 1})

    @pytest.mark.parametrize("solver", [{"mbi_restarts": 0}, {"delta": 0},
                                        {"ao_max_outer": 0}, {"mu": 0}],
                             ids=["mbi_restarts", "delta", "ao_max_outer", "mu"])
    def test_bad_solver_settings_rejected_on_load(self, solver):
        # rejected when the config loads, not later inside a channel run
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"m": 4, "solver": solver})


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

    def test_invalid_args(self):
        ch, phases, x, symbols = fixed_design(3)
        k, t = symbols.n_users, symbols.n_slots
        noise = draw_noise(1, k, t, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_transmission(x, phases, ch, symbols, 0.0, noise)
        with pytest.raises(ValueError):
            draw_noise(0, k, t, np.random.default_rng(0))
        for bad in (noise[0], noise[:0], noise[:, :, :-1]):
            with pytest.raises(ValueError):
                simulate_transmission(x, phases, ch, symbols, 1.0, bad)


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

    def test_scheme_subset_invariance(self):
        # adding schemes to a run must not perturb existing schemes' numbers
        lone = run_experiment(small_cfg(schemes=("onebit-md",)))
        joint = run_experiment(small_cfg(
            schemes=("onebit-md", "relaxed", "zf-quant", "onebit-md-noirs")))
        assert [r for r in joint if r.scheme == "onebit-md"] == lone

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
                    fresh = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    be, se, _, _ = real(frame, phases, ch, symbols, sigma2, fresh)
                    assert (be, se) == (outcomes[scheme].bit_err[j],
                                        outcomes[scheme].sym_err[j])
                    total_errors += be
        assert next(pending, None) is None
        assert total_errors > 0

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = small_cfg(n_channels=5,
                        schemes=("onebit-md", "relaxed", "zf-quant-noirs"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg, threads=1), p1)
        write_csv(run_experiment(cfg, threads=2), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        for policy in ("shared", "random", "reoptimized"):
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
