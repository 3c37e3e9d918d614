import contextlib
import dataclasses
import fcntl
import functools
import importlib.util
import inspect
import io
import itertools
import json
import math
import multiprocessing
import operator
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairdim import chirp_sim, cli, codec, dimension, dsp_chain, enhancer, parallel, scenario
from stairdim.chirp_sim import NOISELESS
from stairdim.codec import to_dict
from stairdim.enhancer import (
    BATCH_SIZE,
    VAL_FRACTION,
    init_model,
    save_model,
    write_dataset,
)
from stairdim.rf_params import RadarConfig, derive_attributes
from stairdim.scenario import ScenarioConfig, load_scenario, scenario_to_dict
from stairdim.scene import WalkConfig

from oracles import dataset_of, naive_per_acquisition

R_RES = derive_attributes(RadarConfig()).range_resolution_m


@pytest.fixture()
def short_config(tmp_path):
    sc = ScenarioConfig(name="short", seed=4, walk=WalkConfig(duration_s=1.2), noise=NOISELESS)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(scenario_to_dict(sc)))
    return path


@pytest.fixture()
def noisy_config(tmp_path):
    sc = ScenarioConfig(name="noisy", seed=4, walk=WalkConfig(duration_s=1.2))
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(scenario_to_dict(sc)))
    return path


def test_simulate_writes_cubes_sidecar_manifest(tmp_path, short_config, capsys):
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(out)]) == 0
    cubes = sorted((out / "cubes").glob("frame_*.bin"))
    assert len(cubes) == 12
    assert cubes[0].name == "frame_00000.bin" and cubes[-1].name == "frame_00011.bin"

    sidecar = json.loads((out / "sidecar.json").read_text())
    assert set(sidecar) == {"scenario", "trajectory", "true_corners_m", "d_true_m", "h_true_m"}
    assert sidecar["d_true_m"] == 0.30 and sidecar["h_true_m"] == 0.15
    assert len(sidecar["true_corners_m"]) == 4
    assert len(sidecar["trajectory"]["frames"]) == 12

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"simulate"}
    assert set(manifest["simulate"]) == {"config", "seed", "versions"}
    assert manifest["simulate"]["config"].startswith("sha256:")
    assert manifest["simulate"]["seed"] == 4
    assert "wrote 12 cubes to" in capsys.readouterr().out


def test_process_from_disk_equals_in_memory(tmp_path, short_config, capsys):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0

    from_disk = tmp_path / "disk"
    from_mem = tmp_path / "mem"
    assert cli.main(["process", "--cubes", str(sim), "--out", str(from_disk)]) == 0
    assert "processed 12 frames" in capsys.readouterr().out
    assert cli.main(["process", "--config", str(short_config), "--out", str(from_mem)]) == 0

    disk_bytes = (from_disk / "targets.jsonl").read_bytes()
    assert disk_bytes == (from_mem / "targets.jsonl").read_bytes()
    assert (from_disk / "report.json").read_bytes() == (from_mem / "report.json").read_bytes()

    # the cubes/ subdirectory works as --cubes too
    sub = tmp_path / "sub"
    assert cli.main(["process", "--cubes", str(sim / "cubes"), "--out", str(sub)]) == 0
    assert (sub / "targets.jsonl").read_bytes() == disk_bytes

    # Range refinement and AoA on every bin give the in-memory targets byte for
    # byte from cube files too. A cube loaded into a strided array sums its
    # range profile in another order, which changes the last bit of about one
    # noisy frame in 50, so this leg runs a noisy 50-frame walk.
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(scenario_to_dict(ScenarioConfig(name="noisy", seed=4, walk=WalkConfig(duration_s=5.0)))))
    noisy_sim = tmp_path / "noisy_sim"
    assert cli.main(["simulate", "--config", str(noisy), "--out", str(noisy_sim)]) == 0
    interp_disk = tmp_path / "interp_disk"
    interp_mem = tmp_path / "interp_mem"
    assert cli.main(
        ["process", "--cubes", str(noisy_sim), "--peak-interp", "--exhaustive-aoa", "--out", str(interp_disk)]
    ) == 0
    assert cli.main(["process", "--config", str(noisy), "--peak-interp", "--out", str(interp_mem)]) == 0
    interp_bytes = (interp_disk / "targets.jsonl").read_bytes()
    assert len(interp_bytes.splitlines()) == 50
    assert interp_bytes == (interp_mem / "targets.jsonl").read_bytes()

    # reruns are byte-identical
    again = tmp_path / "again"
    assert cli.main(["process", "--cubes", str(sim), "--out", str(again)]) == 0
    assert (again / "targets.jsonl").read_bytes() == disk_bytes

    report = json.loads((from_disk / "report.json").read_text())
    agg = report["aggregate"]
    assert agg["frames_total"] == 12
    assert agg["frames_with_estimate"] >= 6
    assert abs(agg["d_m"] - 0.30) <= R_RES
    assert abs(agg["h_m"] - 0.15) <= R_RES
    assert len(report["frames"]) == 12
    assert set(report["frames"][0]) == {"t", "gamma_deg", "n_targets", "d_m", "h_m"}


def test_process_exhaustive_aoa_is_equivalent(tmp_path, short_config):
    base = tmp_path / "base"
    full = tmp_path / "full"
    assert cli.main(["process", "--config", str(short_config), "--out", str(base)]) == 0
    assert cli.main(["process", "--config", str(short_config), "--exhaustive-aoa", "--out", str(full)]) == 0
    assert (base / "targets.jsonl").read_bytes() == (full / "targets.jsonl").read_bytes()


def test_per_frame_calls_the_benchmark_tracer_replaces(tmp_path, short_config, monkeypatch):
    """Each per-frame name that ``bench/tracing.py`` swaps for a timed wrapper is called once a frame.

    The traced benchmark times a frame only through these module attributes;
    a pipeline that stops calling one leaves its spans empty, and the check
    ``traced_decomposition_equals_process_frame`` fails with zero frames. The
    tracer change of ROADMAP item 4, which wraps the ``dsp_chain`` stages by
    name, may retire this test.
    """
    counts = Counter()

    def count(module, name):
        fn = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    per_frame = ("synthesize_frame", "quantize_to_wire", "process_frame", "estimate_initial")
    for name in per_frame:
        count(scenario, name)
    result = scenario.run_scenario(load_scenario(short_config))
    assert [counts[f"scenario.{name}"] for name in per_frame] == [12] * 4

    counts.clear()
    for name in ("scenario_trajectory", "load_cube"):
        count(cli, name)
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0
    assert counts["cli.scenario_trajectory"] == 1
    # process --cubes runs the same per-frame loop, scenario.process_walk
    assert cli.main(["process", "--cubes", str(sim), "--out", str(tmp_path / "p")]) == 0
    assert counts["cli.load_cube"] == counts["scenario.process_frame"] == counts["scenario.estimate_initial"] == 12
    # the walk is built once, and the sidecar holds that walk
    sidecar = json.loads((sim / "sidecar.json").read_text())
    assert sidecar["trajectory"] == json.loads(json.dumps(to_dict(result.trajectory)))


def test_seed_override_reaches_the_synthesis(tmp_path, short_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", str(short_config), "--seed", "99", "--out", str(b)]) == 0
    sidecar = json.loads((b / "sidecar.json").read_text())
    assert sidecar["scenario"]["seed"] == 99
    # a different master seed draws a different walk, hence different cubes
    assert (a / "cubes/frame_00000.bin").read_bytes() != (b / "cubes/frame_00000.bin").read_bytes()


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_rerun_into_another_walks_run_equals_a_fresh_run(tmp_path, short_config, capsys):
    """Every file of a simulate-and-process run is the same over an older, longer run as in a fresh directory."""
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps({"name": "a_longer_walk", "seed": 123456, "walk": {"duration_s": 2.5}}))

    def run(config: Path, out: Path) -> None:
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert cli.main(["process", "--cubes", str(out), "--exhaustive-aoa", "--out", str(out)]) == 0

    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    run(longer, reused)
    assert len(list((reused / "cubes").glob("frame_*.bin"))) == 25
    run(short_config, reused)
    run(short_config, fresh)
    assert "processed 12 frames" in capsys.readouterr().out
    tree = _tree(fresh)
    assert len(tree) == 12 + 4  # cubes, sidecar, manifest, targets, report
    assert _tree(reused) == tree


def test_a_shorter_resimulate_removes_the_stale_frames(tmp_path, short_config, capsys):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--out", str(sim)]) == 0
    (sim / "cubes" / "notes.txt").write_text("kept")
    assert len(list((sim / "cubes").glob("frame_*.bin"))) == 50
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps({"walk": {"rate_hz": 4.0}}))
    assert cli.main(["simulate", "--config", str(slower), "--out", str(sim)]) == 0
    cubes = sorted(p.name for p in (sim / "cubes").glob("frame_*.bin"))
    assert cubes == [f"frame_{i:05d}.bin" for i in range(20)]
    assert (sim / "cubes" / "notes.txt").read_text() == "kept"
    capsys.readouterr()
    assert cli.main(["process", "--cubes", str(sim), "--out", str(tmp_path / "p")]) == 0
    assert "processed 20 frames" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["extra", "missing", "gap_and_extra"])
def test_cube_count_unlike_the_sidecar_exits_with_one_line(tmp_path, short_config, capsys, change):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0
    cubes = sim / "cubes"
    if change != "missing":
        (cubes / "frame_00012.bin").write_bytes((cubes / "frame_00000.bin").read_bytes())
    if change != "extra":
        (cubes / "frame_00011.bin").unlink()
    capsys.readouterr()
    assert cli.main(["process", "--cubes", str(sim), "--out", str(tmp_path / "p")]) == 1
    err = _one_line_error(capsys)
    n_files = {"extra": 13, "missing": 11, "gap_and_extra": 12}[change]
    assert f"holds {n_files} cube files" in err and "12 frames" in err
    assert ("frame_00011.bin" in err) == (change != "extra")
    assert ("frame_00012.bin" in err) == (change != "missing")


def test_an_interrupted_resimulate_is_refused_not_read(tmp_path, short_config, capsys, monkeypatch):
    """A walk half rewritten over an older one of the same length has no sidecar until it is whole."""
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0
    real_save = cli.save_cube

    def save_five(cube, path):
        if path.name == "frame_00005.bin":
            raise OSError("killed")
        real_save(cube, path)

    monkeypatch.setattr(cli, "save_cube", save_five)
    assert cli.main(["simulate", "--config", str(short_config), "--seed", "9", "--out", str(sim)]) == 2
    assert len(list((sim / "cubes").glob("frame_*.bin"))) == 12  # five new frames, seven old
    assert not (sim / "sidecar.json").exists()
    capsys.readouterr()
    assert cli.main(["process", "--cubes", str(sim), "--out", str(tmp_path / "p")]) == 2
    assert str(sim / "sidecar.json") in _one_line_error(capsys)
    assert not (tmp_path / "p" / "targets.jsonl").exists()


def test_sidecar_without_a_frame_list_exits_with_one_line(tmp_path, short_config, capsys):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0
    sidecar = json.loads((sim / "sidecar.json").read_text())
    sidecar["trajectory"] = [1, 2]
    (sim / "sidecar.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert cli.main(["process", "--cubes", str(sim), "--out", str(tmp_path / "p")]) == 1
    assert "sidecar.json" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "field, value",
    [
        ("timestamp_s", math.inf),
        ("gamma_rad", math.inf),
        ("gamma_rad", math.nan),
        ("v_host_mps", math.nan),
        ("gamma_rad", 1e308),  # finite, but not in degrees: the report would hold Infinity
    ],
)
def test_cube_header_float_that_is_not_finite_exits_with_one_line(tmp_path, short_config, capsys, field, value):
    cube, err = _process_with_header_float(tmp_path, short_config, capsys, field, value)
    assert f"{cube}: header {field} {value!r} is not finite" in err


_V_RES = derive_attributes(RadarConfig()).velocity_resolution_mps


@pytest.mark.parametrize("value", [1e308, _V_RES, -_V_RES], ids=["1e308", "v_res", "minus_v_res"])
def test_cube_header_host_speed_that_synthesis_refuses_exits_with_one_line(tmp_path, short_config, capsys, value):
    cube, err = _process_with_header_float(tmp_path, short_config, capsys, "v_host_mps", value)
    assert f"stairdim: {cube}: host speed {value:.3g} m/s reaches the velocity resolution {_V_RES:.3g} m/s" in err


def _process_with_header_float(tmp_path, short_config, capsys, field, value) -> tuple[Path, str]:
    """``process --cubes`` of a simulate run whose third cube has header ``field`` set to
    ``value``: that cube and the one line of the refusal, which writes no output."""
    sim, out = tmp_path / "sim", tmp_path / "p"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0
    cube = sim / "cubes" / "frame_00002.bin"
    raw = bytearray(cube.read_bytes())
    header = list(chirp_sim._HEADER.unpack_from(raw))
    header[4 + ("timestamp_s", "gamma_rad", "v_host_mps").index(field)] = value
    chirp_sim._HEADER.pack_into(raw, 0, *header)
    cube.write_bytes(raw)
    capsys.readouterr()
    assert cli.main(["process", "--cubes", str(sim), "--out", str(out)]) == 1
    err = _one_line_error(capsys)
    assert not (out / "targets.jsonl").exists() and not (out / "report.json").exists()
    return cube, err


def test_the_parser_is_built_once_and_the_command_resolved_at_call_time(tmp_path, monkeypatch):
    seen = []

    def fake(name):
        def cmd(args):
            seen.append((name, vars(args)))
            return 7

        return cmd

    monkeypatch.setattr(cli, "cmd_simulate", fake("simulate"))
    monkeypatch.setattr(cli, "cmd_process", fake("process"))
    out = str(tmp_path / "o")
    assert cli.main(["simulate", "--out", out, "--seed", "3"]) == 7
    assert cli.main(["process", "--config", "x.json", "--exhaustive-aoa", "--out", out]) == 7
    assert cli.main(["process", "--out", out]) == 7
    assert not list(tmp_path.iterdir())  # the real commands never ran
    assert [name for name, _ in seen] == ["simulate", "process", "process"]
    assert seen[0][1] == {"command": "simulate", "config": None, "out": out, "seed": 3}
    assert seen[1][1]["exhaustive_aoa"] and seen[1][1]["config"] == "x.json"
    # the second parse starts from the defaults, not from the first one's values
    assert not seen[2][1]["exhaustive_aoa"] and seen[2][1]["config"] is None
    assert cli.build_parser() is cli.build_parser()


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["simulate"])  # --out is required
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        cli.main(["frobnicate", "--out", str(tmp_path)])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0
    assert "stairdim" in capsys.readouterr().out

    # missing files are I/O errors (2), bad values are validation errors (1)
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    rc = cli.main(["train", "--out", str(tmp_path / "empty_run")])
    assert rc == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radar": {"bandwidth_hz": -1.0}}))
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o2")])
    assert rc == 1

    rc = cli.main(["sweep", "--out", str(tmp_path / "o3"), "--cfar-pfa", "2.0"])
    assert rc == 1


@pytest.mark.parametrize("walks", ["0", "-3"])
def test_sweep_rejects_walks_per_combo_below_one(tmp_path, capsys, walks):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--out", str(out), "--walks-per-combo", walks]) == 1
    assert f"--walks-per-combo must be >= 1, got {walks}" in _one_line_error(capsys)
    assert not (out / "dataset.csv").exists()


def test_a_rejected_sweep_creates_no_run_directory(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--out", str(out), "--walks-per-combo", "0"]) == 1
    assert "--walks-per-combo" in _one_line_error(capsys)
    assert not out.exists()


def test_process_refuses_a_config_beside_cubes(tmp_path, short_config, capsys):
    sim, out = tmp_path / "sim", tmp_path / "p"
    assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0
    capsys.readouterr()
    argv = ["process", "--config", str(short_config), "--cubes", str(sim), "--out", str(out)]
    assert cli.main(argv) == 1
    assert "--config and --cubes" in _one_line_error(capsys)
    assert not out.exists()


def test_train_rejects_underpopulated_dataset(tmp_path):
    # three combos cannot cover the seven held-out ones the split needs
    rng = np.random.default_rng(55)
    rows = []
    for i, d in enumerate((0.26, 0.30, 0.34)):
        for f in range(4):
            rows.append(
                dict(
                    r1_m=2.0 + rng.uniform(0, 0.5),
                    theta1_rad=-0.2,
                    r2_m=2.4,
                    theta2_rad=-0.1,
                    hr_m=0.45,
                    gamma_rad=-0.35,
                    d_true_m=d,
                    h_true_m=0.15,
                    scenario_id=f"d{i}h15_w{f % 2}",
                    frame_id=f,
                    r1_fine_m=2.01,
                    theta1_fine_rad=-0.21,
                    r2_fine_m=2.39,
                    theta2_fine_rad=-0.11,
                )
            )
    run = tmp_path / "run"
    run.mkdir()
    write_dataset(dataset_of(rows), run / "dataset.csv")
    assert cli.main(["train", "--out", str(run), "--epochs", "1"]) == 1


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("stairdim: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


def _write_splittable_dataset(run: Path, r1_fine_m: float = 2.01) -> None:
    """A dataset the split accepts: 35 combos of 3 walks, one frame each."""
    rng = np.random.default_rng(56)
    rows = [
        dict(
            r1_m=2.0 + rng.uniform(0, 0.5),
            theta1_rad=-0.2,
            r2_m=2.4,
            theta2_rad=-0.1,
            hr_m=0.45,
            gamma_rad=-0.35,
            d_true_m=d / 100,
            h_true_m=h / 100,
            scenario_id=f"d{d}h{h}_w{w}",
            frame_id=0,
            r1_fine_m=r1_fine_m,
            theta1_fine_rad=-0.21,
            r2_fine_m=2.39,
            theta2_fine_rad=-0.11,
        )
        for d in range(26, 40, 2)
        for h in range(10, 20, 2)
        for w in range(3)
    ]
    run.mkdir(parents=True)
    write_dataset(dataset_of(rows), run / "dataset.csv")


def test_train_rejects_zero_epochs(tmp_path, capsys):
    # a dataset the split accepts, so that only the epoch count is at fault
    run = tmp_path / "run"
    _write_splittable_dataset(run)
    assert cli.main(["train", "--out", str(run), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--out", str(run), "--epochs", "0"]) == 1
    assert "epochs must be >= 1" in _one_line_error(capsys)


def test_train_reports_divergence_in_one_line(tmp_path, capsys, monkeypatch):
    # no finite column the CLI accepts diverges at its learning rate, so the
    # loss is made non-finite from the first step
    real = enhancer.loss_and_gradients
    monkeypatch.setattr(enhancer, "loss_and_gradients", lambda *a, **k: (math.nan, real(*a, **k)[1]))
    run = tmp_path / "run"
    _write_splittable_dataset(run)
    assert cli.main(["train", "--out", str(run), "--epochs", "1"]) == 1
    assert "training diverged at epoch 0" in _one_line_error(capsys)
    assert not (run / "model.json").exists()


@pytest.mark.parametrize(
    "column, value, walks",
    [
        ("r1_fine_m", "1e308", ("_w0", "_w1", "_w2")),  # a mean beyond the floats
        ("gamma_rad", "1e300", ("_w0",)),  # a finite mean, a spread beyond the floats
    ],
)
def test_train_refuses_a_dataset_whose_spread_leaves_the_float_range(tmp_path, capsys, column, value, walks):
    run = tmp_path / "run"
    _write_splittable_dataset(run)
    path = run / "dataset.csv"
    header, *lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[enhancer.DATASET_COLUMNS.index("scenario_id")].endswith(walks):
            cells[enhancer.DATASET_COLUMNS.index(column)] = value
            lines[i] = ",".join(cells)
    path.write_text("\n".join([header, *lines]) + "\n")
    assert cli.main(["train", "--out", str(run), "--epochs", "1"]) == 1
    assert _one_line_error(capsys) == f"stairdim: {path}: the spread of {column} leaves the float range\n"
    assert not (run / "model.json").exists()


def test_scenario_with_unknown_radar_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radar": {"bandwidth_hz": 4.0e9, "bogus": 1}}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = _one_line_error(capsys)
    assert "'radar'" in err and "'bogus'" in err


def test_scenario_missing_staircase_height(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"staircase": {"depth_m": 0.3, "step_count": 4}}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = _one_line_error(capsys)
    assert "missing" in err and "'height_m'" in err


_STAIRS = {"depth_m": 0.3, "height_m": 0.15}


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"radar": {"bandwidth_hz": "x"}}, "'radar.bandwidth_hz'"),
        ({"staircase": {**_STAIRS, "depth_m": None, "step_count": 4}}, "'staircase.depth_m'"),
        (
            {"standards": {"depth_range_m": 5, "height_range_m": [0.1, 0.2]}},
            "'standards.depth_range_m'",
        ),
        ([1, 2], "scenario must be an object"),
        (5, "scenario must be an object"),
        ({"radar": 5}, "section 'radar' must be an object"),
        ({"walk": {"bogus": 1}}, "section 'walk' has unknown key 'bogus'"),
        ({"dsp": {"range_cfar": {"bogus": 1}}}, "section 'dsp.range_cfar' has unknown key 'bogus'"),
        ({"noise": {"snr_db": "loud"}}, "'noise.snr_db'"),
        ({"walk": {"duration_s": 10**400}}, "'walk.duration_s'"),
        ({"staircase": {**_STAIRS, "step_count": 4.7}}, "'staircase.step_count'"),
        ({"dsp": {"range_cfar": {"training_cells": 2.5}}}, "'dsp.range_cfar.training_cells'"),
        ({"dsp": {"aoa_cfar": {"scale_factor": 3.0}}}, "section 'dsp.aoa_cfar' has unknown key 'scale_factor'"),
        ({"clutter": {"count": -3}}, "clutter.count must be in [0, 4096], got -3"),
        ({"walk": {"sway_noise_sigma_deg": -1}}, "walk.sway_noise_sigma_deg must be >= 0, got -1.0"),
        ({"walk": {"imu_noise_sigma_deg": -1}}, "walk.imu_noise_sigma_deg must be >= 0, got -1.0"),
        ({"dsp": {"aoa_fft_len": 3}}, "aoa_fft_len 3 is shorter than the radar's 8 virtual antennas"),
        # settings that were removed: the weighting, a pinned CFAR alpha and
        # the staircase offset are fixed
        ({"dsp": {"range_window": "hann"}}, "section 'dsp' has unknown key 'range_window'"),
        ({"dsp": {"doppler_window": "rect"}}, "section 'dsp' has unknown key 'doppler_window'"),
        ({"dsp": {"aoa_window": "rect"}}, "section 'dsp' has unknown key 'aoa_window'"),
        (
            {"dsp": {"range_cfar": {"scale_factor": None}}},
            "section 'dsp.range_cfar' has unknown key 'scale_factor'",
        ),
        (
            {"staircase": {**_STAIRS, "step_count": 4, "foot_x_m": 0.0}},
            "section 'staircase' has unknown key 'foot_x_m'",
        ),
        # sizes and levels that would exhaust memory or leave the float
        # range; each is rejected before anything is allocated
        ({"walk": {"duration_s": 1e9}}, "1e+10 frames exceeds the limit of 100000"),
        ({"noise": {"snr_db": 1e9}}, "noise.snr_db must be in [-300, 300], got 1000000000.0"),
        ({"noise": {"snr_db": -1e9}}, "noise.snr_db must be in [-300, 300], got -1000000000.0"),
        ({"noise": {"power": -1.0}}, "noise.power must be > 0, got -1.0"),
        ({"radar": {"samples_per_chirp": 1e8}}, "a cube of 6400000000 samples"),
        ({"dsp": {"aoa_fft_len": 1e8}}, "aoa_fft_len must be in [1, 4096], got 100000000"),
        (
            {"radar": {"samples_per_chirp": 2**17, "chirps_per_frame": 1, "tx_count": 1, "rx_count": 1}},
            "131072 range bins x dsp.aoa_fft_len 64 exceed the limit of 4194304 AoA cells",
        ),
        # a clutter reflectivity that is negative or not a number
        ({"clutter": {"count": 4, "reflectivity": -1.0}}, "clutter.reflectivity must be >= 0, got -1.0"),
        ({"clutter": {"count": 4, "reflectivity": math.nan}}, "clutter.reflectivity must be finite, got nan"),
        ({"clutter": {"count": 4, "reflectivity": math.inf}}, "clutter.reflectivity must be finite, got inf"),
        # walk values that are not finite (JSON's 1e400 reads as inf, as
        # Infinity does), and finite ones whose products in the walk are not
        ({"walk": {"imu_noise_sigma_deg": math.inf}}, "walk.imu_noise_sigma_deg must be finite, got inf"),
        ({"walk": {"sway_amplitude_deg": math.inf}}, "walk.sway_amplitude_deg must be finite, got inf"),
        ({"walk": {"sway_noise_sigma_deg": math.inf}}, "walk.sway_noise_sigma_deg must be finite, got inf"),
        ({"walk": {"sway_frequency_hz": math.inf}}, "walk.sway_frequency_hz must be finite, got inf"),
        ({"walk": {"start_standoff_m": math.nan}}, "walk.start_standoff_m must be finite, got nan"),
        ({"walk": {"end_standoff_m": math.nan}}, "walk.end_standoff_m must be finite, got nan"),
        ({"walk": {"mount_tilt_deg": math.nan}}, "walk.mount_tilt_deg must be finite, got nan"),
        ({"walk": {"sway_frequency_hz": 1e308}}, "walk.sway_frequency_hz 1e+308: sway phase overflows"),
        (
            {"walk": {"start_standoff_m": 1e308, "duration_s": 1e-300, "rate_hz": 2e300}},
            "walk standoffs over 5e-301 s: host speed overflows",
        ),
        # finite dimensions whose farthest corner is not
        (
            {"staircase": {**_STAIRS, "depth_m": 1e308, "step_count": 4}},
            "staircase of 4 steps of 1e+308 x 0.15 m: its farthest corner leaves the float range",
        ),
        # one rule in two sections, each named
        ({"dsp": {"range_cfar": {"pfa": 2}}}, "dsp.range_cfar.pfa must be in (0, 1), got 2.0"),
        ({"dsp": {"aoa_cfar": {"pfa": 2}}}, "dsp.aoa_cfar.pfa must be in (0, 1), got 2.0"),
        # radar values whose derived quantities leave the float range
        (
            {"radar": {"carrier_frequency_hz": 5e-324}},
            "the derived velocity_resolution_mps must be finite and > 0, got inf",
        ),
        (
            {"radar": {"chirp_duration_s": 5e-324}},
            "the derived velocity_resolution_mps must be finite and > 0, got inf",
        ),
        ({"radar": {"bandwidth_hz": 5e-324}}, "the derived range_resolution_m must be finite and > 0, got inf"),
        (
            {"radar": {"bandwidth_hz": 1e300, "chirp_duration_s": 1e-10}},
            "the derived chirp_slope_hz_per_s must be finite and > 0, got inf",
        ),
        (
            {"radar": {"carrier_frequency_hz": 1e300, "bandwidth_hz": 1e-15, "chirp_duration_s": 1e-322}},
            "the derived sample_interval_s must be finite and > 0, got 0.0",
        ),
        # a CFAR threshold factor beyond the float range
        (
            {"dsp": {"range_cfar": {"pfa": 5e-324, "training_cells": 1}}},
            "pfa 5e-324 over 1 training cells gives a threshold factor beyond the float range",
        ),
    ],
)
def test_malformed_scenario_exits_with_one_line(tmp_path, capsys, recwarn, doc, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["process", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = _one_line_error(capsys)
    assert err.startswith(f"stairdim: {bad}: ") and fragment in err
    # the same scenario in the sidecar of a simulate run
    run = tmp_path / "run"
    (run / "cubes").mkdir(parents=True)
    (run / "sidecar.json").write_text(json.dumps({"scenario": doc}))
    assert cli.main(["process", "--cubes", str(run), "--out", str(tmp_path / "o")]) == 1
    err = _one_line_error(capsys)
    assert err.startswith(f"stairdim: {run / 'sidecar.json'}: ") and fragment in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_simulate_refuses_a_walk_beyond_the_float_range_before_writing_a_cube(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"walk": {"imu_noise_sigma_deg": 1e400}}')
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert f"{bad}: walk.imu_noise_sigma_deg must be finite, got inf" in _one_line_error(capsys)
    assert not list(tmp_path.rglob("*.bin"))


def _json_paths(doc, path=()):
    """(path, value) of every value in a JSON document, the document itself first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, (*path, key))


_SHORT_WALK = scenario_to_dict(ScenarioConfig(name="short", seed=4, walk=WalkConfig(duration_s=1.2)))
_LEAVES = [path for path, value in _json_paths(_SHORT_WALK) if not isinstance(value, dict)]
_KEYS = [path for path, _ in _json_paths(_SHORT_WALK) if path and isinstance(path[-1], str)]
_OBJECTS = [path for path, value in _json_paths(_SHORT_WALK) if isinstance(value, dict)]
_BIG = "1e400"  # a JSON number beyond the float range, written into the text as is
_DROP = "@DROP@"
_MUTATIONS = st.one_of(
    st.tuples(
        st.sampled_from(_LEAVES),
        st.sampled_from([math.nan, math.inf, -math.inf, None, True, False, "text", _BIG, [], {}]),
    ),
    st.tuples(st.sampled_from(_KEYS), st.just(_DROP)),
    st.tuples(st.sampled_from(_OBJECTS).map(lambda path: (*path, "bogus")), st.just(1)),
)


def _mutated_text(doc, mutation) -> str:
    """``doc`` as JSON text with the value at ``path`` set to ``value``, or dropped."""
    path, value = mutation
    doc = json.loads(json.dumps(doc))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value == _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = "@BIG@" if value == _BIG else value
    return json.dumps(doc).replace('"@BIG@"', _BIG)


def _run_quietly(argv) -> tuple[int, str]:
    """``cli.main(argv)`` with warnings as errors: its exit code and its stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def short_walk_run(tmp_path_factory):
    """A scratch root, and in it a simulate run of ``_SHORT_WALK`` and that run's sidecar."""
    root = tmp_path_factory.mktemp("mutated")
    (root / "short.json").write_text(json.dumps(_SHORT_WALK))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(root / "short.json"), "--out", str(root / "sim")]) == 0
    return root, json.loads((root / "sim" / "sidecar.json").read_text())


_EXAMPLE = itertools.count()
_RADAR = RadarConfig()
_CUBE_BYTES = chirp_sim._HEADER.size + 8 * _RADAR.samples_per_chirp * _RADAR.chirps_per_frame * _RADAR.virtual_antennas
_HEADER_FIELDS = ["magic", "n_s", "n_p", "n_a", "timestamp_s", "gamma_rad", "v_host_mps"]
_CUBE_MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, _CUBE_BYTES - 1)),
    st.tuples(st.just("magic"), st.binary(min_size=8, max_size=8).filter(lambda b: b != chirp_sim.CUBE_MAGIC)),
    st.tuples(st.sampled_from(["n_s", "n_p", "n_a"]), st.integers(0, 2**32 - 1)),
    st.tuples(
        st.sampled_from(["timestamp_s", "gamma_rad", "v_host_mps"]),
        st.sampled_from([math.nan, math.inf, -math.inf, 1e308]),
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutation=_MUTATIONS)
def test_a_mutated_scenario_exits_the_same_way_from_a_file_and_from_a_sidecar(short_walk_run, mutation):
    """One bad leaf, or one key dropped or added, in a scenario the program wrote.

    ``process --config`` and ``process --cubes`` on a sidecar that holds the
    same scenario (beside the unmutated walk's cubes) either both succeed
    quietly or both refuse it in one line that names their file, for the
    same reason; no numpy warning escapes either.
    """
    root, sidecar = short_walk_run
    text = _mutated_text(_SHORT_WALK, mutation)
    example = root / f"example{next(_EXAMPLE)}"
    (example / "run").mkdir(parents=True)
    config = example / "scenario.json"
    config.write_text(text)
    (example / "run" / "cubes").symlink_to(root / "sim" / "cubes")
    sidecar_path = example / "run" / "sidecar.json"
    sidecar_path.write_text(json.dumps({**sidecar, "scenario": "@SCENARIO@"}).replace('"@SCENARIO@"', text))

    outcomes = []
    for argv, path in (
        (["process", "--config", str(config)], config),
        (["process", "--cubes", str(example / "run")], sidecar_path),
    ):
        code, err = _run_quietly([*argv, "--out", str(example / "out")])
        assert code in (0, 1, 2), err
        if code == 0:
            assert err == ""
        else:
            assert len(err.splitlines()) == 1 and err.startswith(f"stairdim: {path}: "), err
        outcomes.append((code, err.removeprefix(f"stairdim: {path}: ")))
    assert outcomes[0] == outcomes[1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(frame=st.integers(0, 11), mutation=_CUBE_MUTATIONS)
def test_a_mutated_cube_file_exits_quietly_or_with_one_line_naming_it(short_walk_run, frame, mutation):
    """One cube of a simulate run cut at a byte, or one header field overwritten.

    ``process --cubes`` either succeeds quietly, writing strict JSON, or
    refuses the walk in one line that names the mutated cube; no traceback
    or numpy warning escapes.
    """
    root = short_walk_run[0]
    cubes = sorted((root / "sim" / "cubes").glob("frame_*.bin"))
    assert len(cubes) == 12
    example = root / f"example{next(_EXAMPLE)}"
    (example / "cubes").mkdir(parents=True)
    (example / "sidecar.json").symlink_to(root / "sim" / "sidecar.json")
    for path in cubes:
        if path != cubes[frame]:
            (example / "cubes" / path.name).symlink_to(path)
    raw = bytearray(cubes[frame].read_bytes())
    field, value = mutation
    if field == "cut":
        del raw[value:]
    else:
        header = list(chirp_sim._HEADER.unpack_from(raw))
        if header[_HEADER_FIELDS.index(field)] == value:  # an axis drawn at its own size
            return
        header[_HEADER_FIELDS.index(field)] = value
        chirp_sim._HEADER.pack_into(raw, 0, *header)
    bad = example / "cubes" / cubes[frame].name
    bad.write_bytes(raw)
    code, err = _run_quietly(["process", "--cubes", str(example), "--out", str(example / "out")])
    assert code in (0, 1, 2), err
    if code == 0:
        assert err == ""
        out = example / "out"
        for doc in [(out / "report.json").read_text(), *(out / "targets.jsonl").read_text().splitlines()]:
            json.loads(doc, parse_constant=_no_constant)
    else:
        assert len(err.splitlines()) == 1 and err.startswith(f"stairdim: {bad}: "), err


_DATASET_MUTATIONS = st.one_of(
    st.tuples(
        st.just("cell"),
        st.sampled_from(enhancer.DATASET_COLUMNS),
        st.sampled_from(["nan", "inf", "-inf", "1e308", "1e400", "", "text"]),
    ),
    st.tuples(st.sampled_from(["cut", "separator"]), st.integers(0, 10**4), st.none()),
)


@pytest.fixture(scope="module")
def swept_dataset(tmp_path_factory):
    """A scratch root, the lines of a sweep's dataset cut to four rows a walk, and a model trained on them."""
    root = tmp_path_factory.mktemp("swept")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--out", str(root / "sweep"), "--walks-per-combo", "2", "--seed", "0"]) == 0
    header, *rows = (root / "sweep" / "dataset.csv").read_bytes().decode().splitlines(keepends=True)
    walk = enhancer.DATASET_COLUMNS.index("scenario_id")
    rows_of_walk = Counter()
    lines = [header]
    for row in rows:
        scenario_id = row.split(",")[walk]
        rows_of_walk[scenario_id] += 1
        if rows_of_walk[scenario_id] <= 4:
            lines.append(row)
    (root / "clean.csv").write_text("".join(lines), newline="")
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["train", "--out", str(root / "clean"), "--dataset", str(root / "clean.csv"), "--epochs", "1"]
        assert cli.main(argv) == 0
    return root, lines


@settings(derandomize=True, max_examples=200, deadline=None)
@given(row=st.integers(0, 10**4), mutation=_DATASET_MUTATIONS)
# a cell of a training row whose column's spread leaves the float range
@example(row=0, mutation=("cell", "r1_fine_m", "1e308"))
@example(row=8, mutation=("cell", "gamma_rad", "1e308"))
def test_a_mutated_dataset_trains_and_evaluates_quietly_or_exits_with_one_line_naming_it(
    swept_dataset, row, mutation
):
    """One cell of a sweep's dataset replaced, one row cut short, or one separator added.

    ``train`` and then ``evaluate`` (on the model ``train`` wrote, else on
    one trained from the unmutated rows) each succeed quietly, writing
    strict JSON, or refuse in one line that names the dataset; no traceback
    or numpy warning escapes.
    """
    root, lines = swept_dataset
    lines = list(lines)
    i = 1 + row % (len(lines) - 1)
    line = lines[i].removesuffix("\r\n")
    kind, at, value = mutation
    if kind == "cell":
        cells = line.split(",")
        cells[enhancer.DATASET_COLUMNS.index(at)] = value
        line = ",".join(cells)
    elif kind == "cut":
        line = line[: at % len(line)]
    else:
        at %= len(line) + 1
        line = line[:at] + "," + line[at:]
    lines[i] = line + "\r\n"
    case = root / f"example{next(_EXAMPLE)}"
    case.mkdir()
    dataset = case / "dataset.csv"
    dataset.write_text("".join(lines), newline="")
    out = case / "out"
    code, err = _run_quietly(["train", "--out", str(out), "--dataset", str(dataset), "--epochs", "1"])
    model = out / "model.json" if code == 0 else root / "clean" / "model.json"
    outcomes = [(code, err, (f"stairdim: {dataset}: ",))]
    code, err = _run_quietly(["evaluate", "--out", str(out), "--dataset", str(dataset), "--model", str(model)])
    outcomes.append((code, err, (f"stairdim: {dataset}: ", f"stairdim: {model} on {dataset}: ")))
    for code, err, named in outcomes:
        assert code in (0, 1, 2), err
        if code == 0:
            assert err == ""
        else:
            assert len(err.splitlines()) == 1 and err.startswith(named), err
    for doc in out.rglob("*.json"):
        json.loads(doc.read_text(), parse_constant=_no_constant)


def _declared_bounds(cls, section=()):
    """(file path, field, whether an int, bound) of every bound declared in ``cls`` and its sections."""
    for f, key, tp in codec._fields(cls):
        if dataclasses.is_dataclass(tp):
            yield from _declared_bounds(tp, (*section, key))
        elif "check" in f.metadata:
            yield (*section, key), f, tp is int, f.metadata["check"]


def _nearest(bound, integer):
    """(refused, accepted) at each end of ``bound``, one ulp apart (1 for an int), in field units."""
    if bound.lo is None:  # finite only
        return [(math.inf, sys.float_info.max), (-math.inf, -sys.float_info.max)]

    def step(value, sign):
        return value + sign if integer else math.nextafter(float(value), sign * math.inf)

    ends = [(bound.lo, -1)] + ([(bound.hi, 1)] if bound.hi is not None else [])
    return [(end, step(end, -out)) if bound.open else (step(end, out), end) for end, out in ends]


def _file_value(f, integer, value):
    """A field-unit ``value`` as the file holds it: degrees for a ``*_rad`` field, clamped to the floats."""
    if integer:
        return value
    if f.name.endswith("_rad") and math.isfinite(value):
        return max(-sys.float_info.max, min(sys.float_info.max, math.degrees(value)))
    return float(value)


def _boundary_cases():
    """One case per declared bound, end, side and tuple item, its value as the file holds it."""
    for path, f, integer, bound in _declared_bounds(ScenarioConfig):
        leaf = functools.reduce(operator.getitem, path, _SHORT_WALK)
        for item in range(len(leaf)) if isinstance(leaf, list) else [None]:
            where = ".".join(path) + ("" if item is None else f"[{item}]")
            for pair in _nearest(bound, integer):
                for raw, refused in zip(pair, (True, False)):
                    value = _file_value(f, integer, raw)
                    verdict = "refused" if refused else "accepted"
                    yield pytest.param(path, f, item, value, bound, refused, id=f"{where}-{verdict}-{value!r}")


@pytest.mark.parametrize("path, f, item, value, bound, refused", list(_boundary_cases()))
def test_the_nearest_values_to_each_declared_bound(short_walk_run, path, f, item, value, bound, refused):
    """The boundary pass: one value of ``_SHORT_WALK`` set just outside, or just inside, a declared bound.

    Just outside, ``process --config`` and ``process --cubes`` refuse it
    with the same single ``<section>.<key> must be <rule>, got <value>``
    line, the value as the file holds it. Just inside, ``process --config``
    succeeds quietly or refuses the scenario in one line that names the
    file, not by that bound; no warning or traceback escapes either.
    """
    root, sidecar = short_walk_run
    doc = json.loads(json.dumps(_SHORT_WALK))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if item is None:
        parent[path[-1]] = value
    else:
        parent[path[-1]][item] = value
    shown = math.degrees(math.radians(value)) if f.name.endswith("_rad") else parent[path[-1]]
    example = root / f"example{next(_EXAMPLE)}"
    (example / "run").mkdir(parents=True)
    config = example / "scenario.json"
    config.write_text(json.dumps(doc))
    (example / "run" / "cubes").symlink_to(root / "sim" / "cubes")
    sidecar_path = example / "run" / "sidecar.json"
    sidecar_path.write_text(json.dumps({**sidecar, "scenario": doc}))
    bound_line = f"{'.'.join(path)} must be "
    if refused:
        rule = str(bound) if math.isfinite(value) else "finite"
        routes = ((["--config", str(config)], config), (["--cubes", str(example / "run")], sidecar_path))
        for argv, named in routes:
            code, err = _run_quietly(["process", *argv, "--out", str(example / "out")])
            assert (code, err) == (1, f"stairdim: {named}: {bound_line}{rule}, got {shown!r}\n")
        return
    code, err = _run_quietly(["process", "--config", str(config), "--out", str(example / "out")])
    if code != 0:
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith(f"stairdim: {config}: "), err
    assert bound_line not in err


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "kind, content",
    [
        ("sidecar", b"[1, 2]"),
        ("sidecar", b"{not json"),
        ("manifest", b"[]"),
        ("manifest", b"{not json"),
        ("scenario", b"{not json"),
        ("scenario", b"\xff\xfe{}"),
        ("scenario", b'{"seed": ' + b"9" * 5000 + b"}"),  # past the int digit limit of str -> int
    ],
    ids=[
        "sidecar_list", "sidecar_text", "manifest_list", "manifest_text", "scenario_text", "scenario_utf16",
        "scenario_long_int",
    ],
)
def test_json_input_that_is_not_json_or_not_an_object_exits_with_one_line(
    tmp_path, short_config, capsys, kind, content
):
    out = tmp_path / "o"
    argv = ["process", "--config", str(short_config), "--out", str(out)]
    if kind == "sidecar":
        bad = tmp_path / "run" / "sidecar.json"
        (tmp_path / "run" / "cubes").mkdir(parents=True)
        argv = ["process", "--cubes", str(bad.parent), "--out", str(out)]
    elif kind == "manifest":
        bad = out / "manifest.json"
        out.mkdir()
    else:
        bad = tmp_path / "bad.json"
        argv[2] = str(bad)
    bad.write_bytes(content)
    assert cli.main(argv) == 1
    assert str(bad) in _one_line_error(capsys)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"walk": {"rate_hz": 5e-324}}, "walk must span at least 2 frames, got 0"),
        ({"radar": {"samples_per_chirp": 1}}, "farthest corner at 4.94 m exceeds max range 0.0416 m"),
        ({"radar": {"carrier_frequency_hz": 1e15}}, "host speed 3.18 m/s reaches the velocity resolution 0.000293 m/s"),
        ({"noise": {"power": 1e300}}, "cube samples exceed the float32 wire range"),
        ({"walk": {"start_standoff_m": 1e300}}, "farthest corner at 1e+300 m exceeds max range 6 m at"),
    ],
)
def test_a_refusal_while_building_or_synthesizing_the_walk_names_the_scenario_file(tmp_path, capsys, doc, fragment):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**doc, "walk": {"duration_s": 1.2, **doc.get("walk", {})}}))
    for command in ("simulate", "process"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 1
        err = _one_line_error(capsys)
        assert err.startswith(f"stairdim: {config}: ") and fragment in err


@pytest.mark.parametrize(
    "level",
    [{"noise": {"power": 1e300}}, {"clutter": {"count": 2, "reflectivity": 1e40}}],
    ids=["noise_power", "clutter_reflectivity"],
)
def test_cube_beyond_the_float32_wire_exits_with_one_line(tmp_path, capsys, recwarn, level):
    # the complex128 cube is finite, its complex64 wire form is not
    config = tmp_path / "loud.json"
    config.write_text(json.dumps({**level, "walk": {"duration_s": 1.2}}))
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(config), "--out", str(sim)]) == 1
    err = _one_line_error(capsys)
    for name in ("float32 wire range", "noise.power", "snr_db", "clutter.reflectivity"):
        assert name in err
    assert not list(sim.rglob("*.bin"))
    assert cli.main(["process", "--config", str(config), "--out", str(tmp_path / "p")]) == 1
    assert _one_line_error(capsys) == err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("trained") / "run"
    _write_splittable_dataset(run)
    assert cli.main(["train", "--out", str(run), "--epochs", "1"]) == 0
    return run


@pytest.mark.parametrize(
    "where, value",
    [
        (("biases", 0), [0.1]),
        (("normalization", "mean"), [0.0]),
        (("normalization", "scale"), [1.0]),
        (("weights", 0), [[0.1] * 16] * 6),  # the first layer transposed
        (("activation",), "tanh"),
        (("layer_sizes",), 5),
        (("normalization",), [1, 2]),
        (("normalization",), "mean"),
        (("weights",), 5),
        (("weights", 1), [[0.1] * 16] * 7 + [[0.1]]),  # ragged rows
        (("biases", 2), ["x", "y"]),
    ],
)
def test_evaluate_rejects_malformed_model(trained_run, tmp_path, capsys, where, value):
    # numpy would broadcast a one-element bias or normalization into a network
    assert _evaluate_edited_model(trained_run, tmp_path, capsys, where, value) == 1
    assert "bad_model.json" in _one_line_error(capsys)


def _evaluate_edited_model(trained_run, tmp_path, capsys, where, value) -> int:
    """``evaluate`` with the trained model's value at the key path ``where`` replaced."""
    doc = json.loads((trained_run / "model.json").read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    dataset = str(trained_run / "dataset.csv")
    return cli.main(["evaluate", "--out", str(tmp_path / "o"), "--dataset", dataset, "--model", str(bad)])


@pytest.mark.parametrize(
    "where, value, fragment",
    [
        # numpy reads true as 1.0 and null as NaN
        (("weights", 1, 3, 2), True, "weights holds True, not a finite number"),
        (("weights", 1, 3, 2), None, "weights holds None, not a finite number"),
        (("biases", 0, 4), math.nan, "biases holds nan, not a finite number"),
        (("normalization", "mean", 2), math.inf, "normalization.mean holds inf, not a finite number"),
        # train floors a zero feature spread at 1, so it never writes these
        (("normalization", "scale", 0), 0.0, "normalization.scale holds 0.0, not a number > 0"),
        (("normalization", "scale", 0), -1.0, "normalization.scale holds -1.0, not a number > 0"),
        # json reads it as an int, which numpy cannot convert
        (("weights", 0, 0, 0), 10**400, "weights holds an integer beyond the float range"),
    ],
    ids=["true", "null", "nan", "inf", "zero_scale", "negative_scale", "int_beyond_float"],
)
def test_evaluate_names_the_field_of_a_model_value_train_never_writes(
    trained_run, tmp_path, capsys, recwarn, where, value, fragment
):
    assert _evaluate_edited_model(trained_run, tmp_path, capsys, where, value) == 1
    assert f"bad_model.json: {fragment}" in _one_line_error(capsys)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("key", ["normalization", "layer_sizes", "weights", "biases", "activation"])
def test_evaluate_names_the_model_file_that_lacks_a_key(trained_run, tmp_path, capsys, key):
    doc = json.loads((trained_run / "model.json").read_text())
    del doc[key]
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    dataset = str(trained_run / "dataset.csv")
    argv = ["evaluate", "--out", str(tmp_path / "o"), "--dataset", dataset, "--model", str(bad)]
    assert cli.main(argv) == 1
    assert _one_line_error(capsys) == f"stairdim: {bad}: missing required key '{key}'\n"


@pytest.mark.parametrize(
    "where, value",
    [(("biases", 2, 0), 1e300), (("normalization", "scale", 0), 1e-300)],
    ids=["huge_output_bias", "tiny_scale"],
)
def test_evaluate_refuses_a_finite_model_that_overflows(
    trained_run, tmp_path, capsys, recwarn, where, value
):
    # every value is finite, but the errors of the predictions are not
    assert _evaluate_edited_model(trained_run, tmp_path, capsys, where, value) == 1
    assert "bad_model.json on " in _one_line_error(capsys)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "o").exists()


def test_evaluate_takes_no_seed(trained_run, tmp_path, capsys):
    # evaluate draws nothing at random, so a seed would be ignored
    dataset, model = str(trained_run / "dataset.csv"), str(trained_run / "model.json")
    argv = ["evaluate", "--out", str(tmp_path / "o"), "--dataset", dataset, "--model", model, "--seed", "1"]
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: stairdim ") and err.endswith("error: unrecognized arguments: --seed 1\n")
    assert not (tmp_path / "o").exists()


def test_sweep_takes_no_exhaustive_aoa(tmp_path, capsys):
    # exhaustive AoA masked to the range detections gives the selective targets, so the option changed no row
    with pytest.raises(SystemExit) as ei:
        cli.main(["sweep", "--walks-per-combo", "1", "--exhaustive-aoa", "--out", str(tmp_path / "o")])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: stairdim ") and err.endswith("error: unrecognized arguments: --exhaustive-aoa\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sizes", [[5, 16, 8, 2], [6, 16, 8, 3]])
def test_evaluate_rejects_model_of_another_width(trained_run, tmp_path, capsys, sizes):
    # a well-formed model whose input or output width is not the dataset's
    bad = tmp_path / "bad_model.json"
    save_model(init_model(sizes, np.zeros(sizes[0]), np.ones(sizes[0])), bad)
    capsys.readouterr()
    dataset = str(trained_run / "dataset.csv")
    argv = ["evaluate", "--out", str(tmp_path / "o"), "--dataset", dataset, "--model", str(bad)]
    assert cli.main(argv) == 1
    err = _one_line_error(capsys)
    assert "bad_model.json" in err
    assert f"maps {sizes[0]} inputs to {sizes[-1]} outputs" in err
    assert "the dataset has 6 features and 2 labels" in err


def test_every_name_the_benchmark_tracer_swaps_resolves_and_is_put_back():
    """``bench/tracing.py::patched`` finds each ``stairdim`` name it wraps, and restores it.

    A ``src/`` change that drops or renames one of those names breaks every
    traced benchmark run; this finds it without running one.
    """
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (cli, dimension, dsp_chain, enhancer, scenario)
    before = [dict(vars(module)) for module in modules]
    with tracing.patched(tracing.Tracer()):
        inside = [dict(vars(module)) for module in modules]
    swapped = 0
    for module, names, patched in zip(modules, before, inside):
        assert patched.keys() == names.keys() == vars(module).keys(), module.__name__
        for name, fn in names.items():
            if patched[name] is not fn:
                assert inspect.unwrap(patched[name]) is fn, f"{module.__name__}.{name}"
                swapped += 1
            assert getattr(module, name) is fn, f"{module.__name__}.{name}"
    assert swapped > 0


def test_train_makes_the_calls_the_benchmark_tracer_wraps(tmp_path, monkeypatch):
    """``train`` takes one ``enhancer.loss_and_gradients`` call a step and
    ``enhancer.forward`` calls between epochs.

    ``bench/tracing.py`` times ``enhancer.step_us`` from the step calls and
    cuts ``enhancer.epoch_ms`` at the first step after a forward pass, so a
    trainer that stops calling either leaves those spans empty or wrong.
    """
    events = []
    for name in ("loss_and_gradients", "forward"):
        fn = getattr(enhancer, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            events.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(enhancer, name, counted)
    run = tmp_path / "run"
    _write_splittable_dataset(run)
    epochs = 3
    assert cli.main(["train", "--out", str(run), "--epochs", str(epochs)]) == 0
    rows = json.loads((run / "manifest.json").read_text())["train"]["train_rows"]
    n_train = rows - round(rows * VAL_FRACTION)
    steps = -(-n_train // BATCH_SIZE)
    assert steps > 1  # the short last batch is among them
    # per epoch: the steps, then the forward passes of the two loss curves
    assert events == (["loss_and_gradients"] * steps + ["forward"] * 2) * epochs


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_train_and_evaluate_read_and_split_through_the_names_the_benchmark_tracer_wraps(
    trained_run, tmp_path, monkeypatch, command
):
    """``train`` and ``evaluate`` each make one ``cli.read_dataset`` and one
    ``cli.split_dataset`` call.

    ``bench/tracing.py`` wraps those two names of ``cli`` for its
    ``enhancer.read_dataset`` and ``enhancer.split_dataset`` spans, so a
    command that read or split the dataset some other way, or more than once,
    would leave the spans empty or count them twice.
    """
    events = []
    for name in ("read_dataset", "split_dataset"):
        fn = getattr(cli, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            events.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--dataset", str(trained_run / "dataset.csv")]
    if command == "train":
        argv += ["--epochs", "1"]
    else:
        argv += ["--model", str(trained_run / "model.json")]
    assert cli.main(argv) == 0
    assert events == ["read_dataset", "split_dataset"]


@pytest.mark.parametrize(
    "line, cell, fragment",
    [
        (None, None, "empty file, expected the dataset header"),
        (3, "nan", "line 3: r1_fine_m 'nan' is not a finite number"),
        (5, "2.01m", "line 5: r1_fine_m '2.01m' is not a finite number"),
        # finite, but its millimetres overflow the split's combination key
        (2, ("0.26", "1e306"), "labels (1e+306, 0.1) of d26h10_w0 frame 0 are too large"),
    ],
)
def test_malformed_dataset_exits_with_one_line(trained_run, tmp_path, capsys, line, cell, fragment):
    bad = tmp_path / "bad.csv"
    if line is None:
        bad.write_bytes(b"")
    else:
        # a plain cell replaces r1_fine_m, an (old, new) pair any cell
        old, new = cell if isinstance(cell, tuple) else ("2.01", cell)
        lines = (trained_run / "dataset.csv").read_text().splitlines()
        lines[line - 1] = lines[line - 1].replace(f",{old},", f",{new},")
        bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = str(tmp_path / "o")
    assert cli.main(["train", "--out", out, "--dataset", str(bad)]) == 1
    err = _one_line_error(capsys)
    assert "bad.csv" in err and fragment in err
    model = str(trained_run / "model.json")
    assert cli.main(["evaluate", "--out", out, "--dataset", str(bad), "--model", model]) == 1
    assert _one_line_error(capsys) == err


def test_dataset_cell_over_the_csv_field_limit_exits_with_one_line(tmp_path, capsys):
    bad = tmp_path / "long.csv"
    cells = {c: "0.25" for c in enhancer.DATASET_COLUMNS}
    cells.update(scenario_id="w" * 200_000, frame_id="0")
    bad.write_text(",".join(enhancer.DATASET_COLUMNS) + "\n" + ",".join(cells.values()) + "\n")
    assert cli.main(["train", "--out", str(tmp_path / "o"), "--dataset", str(bad)]) == 1
    err = _one_line_error(capsys)
    assert f"{bad}: line 2: field larger than field limit" in err


@pytest.mark.parametrize("text", ["[1, 2]", "5", '"model"', "{not json"])
def test_evaluate_rejects_model_file_that_is_not_an_object(trained_run, tmp_path, capsys, text):
    bad = tmp_path / "bad_model.json"
    bad.write_text(text)
    capsys.readouterr()
    dataset = str(trained_run / "dataset.csv")
    argv = ["evaluate", "--out", str(tmp_path / "o"), "--dataset", dataset, "--model", str(bad)]
    assert cli.main(argv) == 1
    assert "bad_model.json" in _one_line_error(capsys)


def test_sweep_train_evaluate_chain(tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["sweep", "--out", str(run), "--walks-per-combo", "2", "--seed", "0"]) == 0
    sweep_out = capsys.readouterr().out
    assert "sweep: 70 scenarios ->" in sweep_out
    assert (run / "dataset.csv").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["sweep"]["scenarios"] == 70
    assert manifest["sweep"]["rows"] > 0
    assert manifest["sweep"]["walks_per_combo"] == 2

    assert cli.main(["train", "--out", str(run), "--epochs", "5"]) == 0
    assert "trained on" in capsys.readouterr().out
    curve = json.loads((run / "training_curve.json").read_text())
    assert len(curve["train_loss"]) == 5
    assert len(curve["val_loss"]) == 5
    model_doc = json.loads((run / "model.json").read_text())
    assert model_doc["layer_sizes"] == [6, 16, 8, 2]
    assert model_doc["dataset_fingerprint"].startswith("sha256:")

    assert cli.main(["evaluate", "--out", str(run)]) == 0
    assert "per-frame MAE (cm): depth" in capsys.readouterr().out
    report = json.loads((run / "eval" / "report.json").read_text())
    assert set(report) == {"n_frames", "n_acquisitions", "per_frame", "per_acquisition"}
    assert report["n_frames"] > 0
    assert report["n_acquisitions"] > 0
    assert report["per_frame"]["initial"]["depth"]["n"] == report["n_frames"]
    for name in ("initial_depth", "initial_height", "enhanced_depth", "enhanced_height"):
        lines = (run / "eval" / f"hist_{name}.csv").read_text().splitlines()
        assert lines[0] == "bin_center_cm,density"
        assert len(lines) == 61

    manifest = json.loads((run / "manifest.json").read_text())
    assert set(manifest) == {"sweep", "train", "evaluate"}
    assert manifest["train"]["dataset"] == manifest["evaluate"]["dataset"]

    # retraining from the same dataset is byte-identical
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    assert cli.main(["train", "--out", str(rerun), "--dataset", str(run / "dataset.csv"), "--epochs", "5"]) == 0
    assert (rerun / "model.json").read_bytes() == (run / "model.json").read_bytes()


def test_train_evaluate_and_process_cubes_never_import_the_sweep_pool(tmp_path, short_config):
    # only a sweep needs parallel; the commands that never sweep keep its import out of their memory
    run = tmp_path / "run"
    _write_splittable_dataset(run)
    sim = tmp_path / "sim"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(short_config), "--out", str(sim)]) == 0
    commands = [
        ["train", "--out", str(run), "--epochs", "1"],
        ["evaluate", "--out", str(run)],
        ["process", "--cubes", str(sim), "--out", str(tmp_path / "process")],
    ]
    script = (
        "import json, sys\n"
        "from stairdim import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert "stairdim.enhancer" in modules and parallel.__name__ not in modules


_ESTIMATES = st.floats(-1.0, 1.0, allow_nan=False, width=32)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(["d26h10_w1", "d26h10_w0", "b", "a_w10", "a_w9", "a_w"]), min_size=1, max_size=30),
    st.data(),
)
def test_per_acquisition_equals_naive_grouping(ids, data):
    n = len(ids)
    initial, enhanced, truths = (
        np.array(data.draw(st.lists(st.tuples(_ESTIMATES, _ESTIMATES), min_size=n, max_size=n)))
        for _ in range(3)
    )
    rows = [dict.fromkeys(enhancer.DATASET_COLUMNS, 0.0) | {"scenario_id": s, "frame_id": i} for i, s in enumerate(ids)]
    estimates = {"initial": initial, "enhanced": enhanced}
    got_medians, got_truths = cli._per_acquisition(dataset_of(rows), estimates, truths)
    expected_medians, expected_truths = naive_per_acquisition(rows, estimates, truths)
    got = [*got_medians.values(), got_truths]
    expected = [*expected_medians.values(), expected_truths]
    assert list(got_medians) == list(expected_medians) == ["initial", "enhanced"]
    assert [a.shape for a in got] == [a.shape for a in expected] == [(len(set(ids)), 2)] * 3
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def _no_thread_or_child_outlives(before: list) -> None:
    assert threading.enumerate() == before
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no forked child is left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _locked(path: Path):
    """``path`` opened for appending under an fcntl lock, so that processes' lines never interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        fcntl.lockf(fd, fcntl.LOCK_EX)
        yield fd
    finally:
        os.close(fd)  # drops the lock


def _append(path: Path, line: str) -> None:
    with _locked(path) as fd:
        os.write(fd, f"{line}\n".encode())


def _fake_walk(tmp_path: Path, failing=(), worker=None):
    """A ``run_scenario`` that finds no corner pair, and raises for the walks named ``failing``.

    Each walk adds ``start <name> <pid>`` to ``tmp_path / "log"`` as it
    starts, and a failing walk adds ``fail <name> <pid>`` before it raises.
    With ``worker`` set, the calling process's first walk waits until a
    worker process has started a walk, and a walk in a worker ``"fails"``,
    ``"exits"`` (``os._exit``) or is ``"killed"`` (SIGKILL). A worker is any
    process other than the one that made this fake: a plain fork has no
    ``multiprocessing.parent_process()``.
    """
    caller, log = str(os.getpid()), tmp_path / "log"
    waiting = worker is not None

    def run(sc):
        nonlocal waiting
        pid = str(os.getpid())
        _append(log, f"start {sc.name} {pid}")
        if waiting and pid == caller:
            waiting = False
            for _ in range(10_000):  # at most 10 s
                if any(started != caller for started in log.read_text().split()[2::3]):
                    break
                time.sleep(0.001)
        if worker == "exits" and pid != caller:
            os._exit(1)
        if worker == "killed" and pid != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        if sc.name in failing or (worker == "fails" and pid != caller):
            _append(log, f"fail {sc.name} {pid}")
            raise ValueError(f"{sc.name} fails")
        return scenario.ScenarioResult(sc, None, [], [])

    return run


def _log(tmp_path: Path) -> list[list[str]]:
    """The lines the fakes wrote, each split into words; the log is removed."""
    lines = [line.split() for line in (tmp_path / "log").read_text().splitlines()]
    (tmp_path / "log").unlink()
    return lines


def test_no_thread_outlives_a_command(tmp_path, noisy_config, monkeypatch, capsys):
    before = threading.enumerate()
    scenario.run_scenario(load_scenario(noisy_config))
    _no_thread_or_child_outlives(before)
    assert cli.main(["simulate", "--config", str(noisy_config), "--out", str(tmp_path / "s")]) == 0
    _no_thread_or_child_outlives(before)
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
    assert cli.main(["sweep", "--walks-per-combo", "1", "--out", str(tmp_path / "w")]) == 0
    _no_thread_or_child_outlives(before)

    real = scenario.process_frame
    frames = []

    def fails_at_frame_3(cube, cfg=None):
        frames.append(cube)
        if len(frames) == 4:
            raise ValueError("frame 3 fails")
        return real(cube, cfg)

    monkeypatch.setattr(scenario, "process_frame", fails_at_frame_3)
    capsys.readouterr()
    assert cli.main(["process", "--config", str(noisy_config), "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"stairdim: {noisy_config}: frame 3 fails"]
    _no_thread_or_child_outlives(before)

    saved = []

    def save_fails_at_frame_3(cube, path):
        saved.append(path)
        if len(saved) == 4:
            raise OSError("frame 3 fails")

    monkeypatch.setattr(cli, "save_cube", save_fails_at_frame_3)
    assert cli.main(["simulate", "--config", str(noisy_config), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.splitlines() == ["stairdim: frame 3 fails"]
    assert not (tmp_path / "f" / "sidecar.json").exists()
    _no_thread_or_child_outlives(before)

    # with two CPUs, walk 1 runs in the worker while this process holds walk 0
    monkeypatch.setattr(scenario, "run_scenario", _fake_walk(tmp_path, worker="fails"))
    assert cli.main(["sweep", "--walks-per-combo", "1", "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err.splitlines() == ["stairdim: d26h12_w0 fails"]
    _no_thread_or_child_outlives(before)
    assert [line[:2] for line in _log(tmp_path)][-2:] == [["start", "d26h12_w0"], ["fail", "d26h12_w0"]]
    for death in ("exits", "killed"):
        monkeypatch.setattr(scenario, "run_scenario", _fake_walk(tmp_path, worker=death))
        assert cli.main(["sweep", "--walks-per-combo", "1", "--out", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "stairdim: a sweep worker process died before it returned its walks"
        ]
        _no_thread_or_child_outlives(before)
        assert ["start", "d26h12_w0"] in [line[:2] for line in _log(tmp_path)]


@pytest.mark.parametrize(
    "failing",
    [
        ["d26h16_w0", "d28h12_w0"],  # walks 3 and 6
        ["d26h14_w0", "d26h16_w0"],  # walks 2 and 3
        ["d38h18_w0"],  # the last walk
    ],
    ids=["3-and-6", "2-and-3", "last"],
)
def test_a_failed_sweep_exits_as_a_serial_one_does(tmp_path, monkeypatch, capsys, failing):
    names = [sc.name for sc in scenario.build_sweep(0, 1)]
    real = parallel._claim

    def claim(counter, items, failed=False):
        # logged under the log's lock, so the lines stand in the order the claims took effect
        with _locked(tmp_path / "log") as fd:
            i = real(counter, items, failed)
            os.write(fd, f"{'stop' if failed else 'claim'} {i} {os.getpid()}\n".encode())
        return i

    monkeypatch.setattr(parallel, "_claim", claim)
    monkeypatch.setattr(scenario, "run_scenario", _fake_walk(tmp_path, failing))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: cpus)
        assert cli.main(["sweep", "--walks-per-combo", "1", "--out", str(tmp_path / "w")]) == 1
        # the first failed walk in scenario order, whichever process ran it
        assert capsys.readouterr().err.splitlines() == [f"stairdim: {failing[0]} fails"]
        log = _log(tmp_path)
        claimed = [int(i) for word, i, _ in log if word == "claim" and i != "None"]
        started = [names.index(name) for word, name, _ in log if word == "start"]
        # the walks claimed and started, each once, are the first ones in scenario order
        assert sorted(claimed) == sorted(started) == list(range(len(claimed)))
        assert names.index(failing[0]) in claimed
        assert len({pid for *_, pid in log}) <= cpus
        # every walk after the first failure was claimed before it was reported
        stop = [word for word, *_ in log].index("stop")
        assert all(i == "None" for word, i, _ in log[stop:] if word == "claim")
        if cpus == 1:
            assert [name for word, name, _ in log if word == "fail"] == failing[:1]


def test_a_sweep_starts_no_worker_while_another_thread_is_alive(tmp_path, monkeypatch, capsys):
    # every walk fails: with a worker, walk 0 would fail here and walk 1 in the worker
    every_walk = [sc.name for sc in scenario.build_sweep(0, 1)]
    monkeypatch.setattr(scenario, "run_scenario", _fake_walk(tmp_path, failing=every_walk))
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
    before = threading.enumerate()
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert cli.main(["sweep", "--walks-per-combo", "1", "--out", str(tmp_path / "w")]) == 1
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert capsys.readouterr().err.splitlines() == [f"stairdim: {every_walk[0]} fails"]
    pid = str(os.getpid())
    assert _log(tmp_path) == [["start", every_walk[0], pid], ["fail", every_walk[0], pid]]
    _no_thread_or_child_outlives(before)


def test_more_processes_than_cpus_claim_every_walk_once(tmp_path, monkeypatch):
    # walks that take no time keep four processes contending for the counter
    sweep = scenario.build_sweep(0, 10)
    monkeypatch.setattr(scenario, "run_scenario", _fake_walk(tmp_path))
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 4)
    before = threading.enumerate()
    assert enhancer.assemble_dataset(sweep).n_rows == 0
    started = [name for word, name, _ in _log(tmp_path)]
    assert sorted(started) == sorted(sc.name for sc in sweep)
    _no_thread_or_child_outlives(before)


def test_a_sweep_writes_the_same_files_on_any_number_of_cpus(tmp_path, monkeypatch):
    real = scenario.run_scenario
    names = [sc.name for sc in scenario.build_sweep(0, 2)]

    def run(sc):
        _append(tmp_path / "log", f"{sc.name} {os.getpid()}")
        return real(sc)

    monkeypatch.setattr(scenario, "run_scenario", run)
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["sweep", "--walks-per-combo", "2", "--seed", "0", "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("dataset.csv", "manifest.json")])
        # every walk ran exactly once, in at most one process per CPU, this one among them
        log = _log(tmp_path)
        assert sorted(name for name, _ in log) == sorted(names)
        pids = {pid for _, pid in log}
        assert str(os.getpid()) in pids and len(pids) <= cpus
    assert outputs[0] == outputs[1] == outputs[2]
