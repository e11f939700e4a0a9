"""Command-line interface tests."""

import json
import subprocess
import sys

import numpy as np
import pytest

from irsprecode.channel import ChannelSet
from irsprecode.cli import main
from irsprecode.harness import (
    ExperimentConfig,
    channel_realization,
    run_experiment,
    write_csv,
)


@pytest.fixture
def config_file(tmp_path):
    cfg = ExperimentConfig(m=6, n=3, k=2, t=3, noise_grid_db=(36.0, 44.0),
                           n_channels=3, schemes=("onebit-md", "zf-quant"),
                           seed=21, record_runtime=False)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return cfg, path


def test_run_matches_library_output(tmp_path, config_file, capsys):
    cfg, cfg_path = config_file
    out = tmp_path / "out.csv"
    ref = tmp_path / "ref.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    write_csv(run_experiment(cfg), ref)
    assert out.read_bytes() == ref.read_bytes()
    printed = capsys.readouterr().out
    assert "wrote 4 records" in printed
    assert "mean design time" in printed
    assert "disabled by config" in printed


def test_run_seed_override(tmp_path, config_file):
    _, cfg_path = config_file
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", str(cfg_path), "--out", str(a), "--seed", "1"])
    main(["run", "--config", str(cfg_path), "--out", str(b), "--seed", "2"])
    assert a.read_bytes() != b.read_bytes()


def test_run_schemes_override(tmp_path, config_file):
    _, cfg_path = config_file
    out = tmp_path / "o.csv"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--schemes", "zf-quant,zf-quant-noirs"])
    body = out.read_text().splitlines()
    assert len(body) == 1 + 2 * 2
    assert all(line.startswith("zf-quant") for line in body[1:])


def test_run_threads_flag(tmp_path, config_file):
    _, cfg_path = config_file
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", str(cfg_path), "--out", str(a), "--threads", "1"])
    main(["run", "--config", str(cfg_path), "--out", str(b), "--threads", "2"])
    assert a.read_bytes() == b.read_bytes()


def test_fixtures_dump_round_trip(tmp_path):
    out = tmp_path / "fix.json"
    rc = main(["fixtures", "dump", "--out", str(out), "--seed", "5",
               "--index", "2", "--m", "6", "--n", "3", "--k", "2"])
    assert rc == 0
    loaded = ChannelSet.from_dict(json.loads(out.read_text()))
    ref = channel_realization(5, 2, 6, 3, 2)
    assert np.allclose(loaded.h_d, ref.h_d)
    assert np.allclose(loaded.g, ref.g)
    assert np.allclose(loaded.h_r, ref.h_r)


@pytest.mark.parametrize("flag, value", [("--m", "0"), ("--n", "0"), ("--k", "0"),
                                         ("--seed", "-1"), ("--index", "-1"),
                                         ("--m", "two")])
def test_fixtures_dump_rejects_bad_arguments(tmp_path, capsys, flag, value):
    # --m 0 used to write a channel with no antennas, and a negative seed or
    # index ended in a NumPy traceback
    out = tmp_path / "fix.json"
    with pytest.raises(SystemExit) as exc:
        main(["fixtures", "dump", "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "fix.json"
    proc = subprocess.run(
        [sys.executable, "-m", "irsprecode.cli", "fixtures", "dump",
         "--out", str(out), "--m", "4", "--n", "2", "--k", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["m"] == 4 and data["n"] == 2 and data["k"] == 1


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
