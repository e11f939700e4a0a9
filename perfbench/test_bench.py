"""The benchmark's own checks: span coverage, the correctness gate, the tail rule.

Run from the repository root with `python -m pytest perfbench`.
"""

import dataclasses
import json

import pytest

import bench
import irsprecode.harness as harness
import irsprecode.onebit as onebit
from irsprecode.harness import ExperimentConfig, run_experiment
from tracing import SPAN_KEYS, Tracer, coverage_problems, expected_calls
from workloads import WORKLOADS

# every scheme kind, small enough to run in about a second
SMALL = ExperimentConfig(
    m=8, n=4, k=2, t=4, order=4, power=100.0, noise_grid_db=(30.0, 38.0),
    n_channels=2, n_noise=3, seed=5,
    schemes=("onebit-md", "relaxed", "relaxed-quant", "zf-quant", "onebit-md-noirs",
             "relaxed-noirs", "relaxed-quant-noirs", "zf-quant-noirs"))


def test_traced_counts_match_the_run_and_results_are_unchanged():
    plain, _ = run_experiment(SMALL, keep_channel_detail=True)
    with Tracer() as tracer:
        records, per_channel, wall = bench.timed_call(SMALL)
    assert coverage_problems(tracer, SMALL) == []
    assert bench.check_outputs(SMALL, records, per_channel) == []
    assert bench.digest(records) == bench.digest(plain)
    assert tracer.counts["ao.rounds"] >= SMALL.n_channels
    assert all(tracer.stats[k][0] > 0 for k in SPAN_KEYS)
    assert tracer.reconcile_error(wall) < bench.RECONCILE_TOL


def test_tracer_restores_every_namespace():
    before = (harness.solve_symbol, onebit.mirror_descent, harness.effective_matrix)
    with Tracer():
        assert harness.solve_symbol is not before[0]
    assert (harness.solve_symbol, onebit.mirror_descent, harness.effective_matrix) == before


def test_a_missed_namespace_fails_the_coverage_check(monkeypatch):
    original = harness.solve_symbol
    with Tracer() as tracer:
        # as if the harness's reference had not been patched
        monkeypatch.setattr(harness, "solve_symbol", original)
        run_experiment(SMALL)
    problems = coverage_problems(tracer, SMALL)
    assert any(p.startswith("span coverage: onebit.solve_symbol") for p in problems)


def test_expected_calls_reproduce_the_desk_example():
    # 10 desk channels with 35 AO rounds in total: T * (35 + 10 relaxed + 10 direct)
    cfg = WORKLOADS["desk"].config(0, 10)
    assert expected_calls(cfg, ao_rounds=35)["onebit.mirror_descent"] == 2750


def test_gate_rejects_inconsistent_records():
    records, per_channel = run_experiment(SMALL, keep_channel_detail=True)
    assert bench.check_outputs(SMALL, records, per_channel) == []
    bad = list(records)
    bad[0] = dataclasses.replace(bad[0], bits=bad[0].bits + 2)
    assert bench.check_outputs(SMALL, bad, per_channel)
    bad = list(records)
    bad[1] = dataclasses.replace(bad[1], n_channels_ok=bad[1].n_channels_ok - 1)
    assert bench.check_outputs(SMALL, bad, per_channel)


@pytest.mark.parametrize("n, index", [(25, 14), (11, 0), (100, 89)])
def test_tail_leaves_ten_samples_beyond(n, index):
    value, _ = bench.tail(list(range(n)))
    assert value == index
    assert n - 1 - value == bench.TAIL_BEYOND


def test_tail_falls_back_to_max_on_few_samples():
    assert bench.tail([3.0, 1.0, 2.0])[0] == 3.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_cover_their_reference_schemes(name):
    w = WORKLOADS[name]
    cfg = w.config(0, w.n_channels(30))
    assert {w.margin_scheme, w.ber_scheme} <= set(cfg.schemes)
    assert 38.0 in cfg.noise_grid_db
    expected_calls(cfg, ao_rounds=0)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    per_layer = {name: unit for name, (_, unit) in Tracer().metrics(1.0).items()}
    per_layer["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
