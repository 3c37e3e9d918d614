"""The Python demos run to completion against the package in ``src``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_single_frame.py", "02_walk_to_dimensions.py", "03_train_enhancer.py"])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_tour_runs(tmp_path):
    """The shell demo runs all five commands into one run directory, which keeps one manifest entry each."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "04_cli_tour.sh")], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    manifest = next(tmp_path.glob("*/runs/demo/manifest.json"))
    assert set(json.loads(manifest.read_text())) == {"simulate", "process", "sweep", "train", "evaluate"}
