"""``codec.rewrite``, the one file writer: in place, cut at the last byte written."""

import json
import os

import numpy as np
import pytest

from stairdim import cli, codec
from stairdim.chirp_sim import NoiseConfig, load_cube, quantize_to_wire, save_cube, synthesize_frame
from stairdim.codec import read_json, rewrite, write_json
from stairdim.dsp_chain import write_target_lists
from stairdim.enhancer import assemble_dataset, write_dataset
from stairdim.evaluation import build_error_report, write_histogram_csv
from stairdim.rf_params import RadarConfig
from stairdim.scenario import ScenarioConfig, scenario_to_dict
from stairdim.scene import GaitFrame, Scatterer, WalkConfig

CFG = RadarConfig()


def _cube():
    frame = GaitFrame(timestamp_s=0.4, x_m=-1.5, y_m=0.45, tilt_rad=-0.3, gamma_rad=-0.3, v_host_mps=0.6)
    return synthesize_frame(CFG, frame, [Scatterer(1.0, -0.3)], NoiseConfig(snr_db=15.0), seed=3)


def test_a_cube_over_a_longer_junk_file_loads(tmp_path):
    path = tmp_path / "frame.bin"
    path.write_bytes(os.urandom(200_000))
    cube = _cube()
    save_cube(cube, path)
    assert path.stat().st_size == 64 + 8 * 144 * 8 * 8
    back = load_cube(path, CFG)
    assert np.array_equal(back.samples, quantize_to_wire(cube).samples)


def test_json_over_longer_json_reads_back_equal(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"long": list(range(500)), "name": "old"}, path)
    doc = {"name": "new"}
    write_json(doc, path)
    assert read_json(path) == doc
    assert path.read_bytes() == b'{\n  "name": "new"\n}\n'


@pytest.mark.parametrize("binary", [False, True])
def test_an_exception_mid_stream_leaves_what_was_written(tmp_path, binary):
    path = tmp_path / "artifact"
    path.write_bytes(b"x" * 10_000)
    first = b"first line\n"
    with pytest.raises(RuntimeError):
        with rewrite(path, binary=binary) as fh:
            fh.write(first if binary else first.decode())
            raise RuntimeError("stopped")
    assert path.read_bytes() == first


def test_text_is_utf8_written_as_given(tmp_path):
    path = tmp_path / "t.csv"
    with rewrite(path) as fh:
        fh.write("a,°\r\nb\n")
    assert path.read_bytes() == "a,°\r\nb\n".encode("utf-8")


def test_a_new_file_gets_the_mode_bits_of_open_w(tmp_path):
    old = os.umask(0o002)
    try:
        with open(tmp_path / "by_open", "w"):
            pass
        with rewrite(tmp_path / "by_rewrite"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "by_rewrite").stat().st_mode == (tmp_path / "by_open").stat().st_mode


def test_no_writer_truncates_on_open(tmp_path, monkeypatch):
    """Every artifact goes through one ``os.open``, and none passes ``O_TRUNC``.

    Truncating on open frees a file's blocks only for the rewrite to
    allocate them again; on ext4 that made a cube rewrite 4-10x slower.
    """
    calls = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        calls.append((os.path.realpath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(codec.os, "open", recording_open)

    sc = ScenarioConfig(name="short", seed=4, walk=WalkConfig(duration_s=1.2))
    config = tmp_path / "short.json"
    config.write_text(json.dumps(scenario_to_dict(sc)))
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    assert cli.main(["process", "--cubes", str(run), "--out", str(run)]) == 0
    data = assemble_dataset([sc])
    write_dataset(data, run / "dataset.csv")
    report = build_error_report({"initial": data.initial_estimate()}, data.labels())
    write_histogram_csv(report["initial"]["depth"], run / "hist.csv")
    write_target_lists([], run / "empty.jsonl")

    written = {os.path.realpath(p) for p in run.rglob("*") if p.is_file()}
    assert written == {path for path, _ in calls}
    # 12 cubes; sidecar, report and the manifest twice; targets; the three direct writes
    assert len(calls) == 12 + 4 + 1 + 3
    assert all(flags & os.O_TRUNC == 0 for _, flags in calls)
