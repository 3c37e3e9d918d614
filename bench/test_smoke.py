"""Smoke test of the benchmark at its smallest size.

Runs every workload untraced and traced with ``--size smoke`` and checks the
output contract: every metric BENCHMARK.json names is emitted with its unit,
every printed metric line states its better direction, and the output checks
(and, traced, the decomposition check) ran. It asserts that checks ran, not
that the program passes them; the benchmark's ``correct`` field reports that.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

CHECKS = {
    "sweep_grid": {"commands_exit_0", "rows_match_manifest", "same_seed_same_dataset"},
    "cubes_exhaustive": {
        "commands_exit_0",
        "exhaustive_equals_selective_from_disk",
        "exhaustive_from_disk_matches_selective_in_memory",
        "same_seed_same_targets",
    },
    "train_eval": {
        "commands_exit_0",
        "rows_match_manifest",
        "rmse2_equals_sigma2_plus_bias2",
        "same_seed_same_model_and_report",
    },
}


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_checks(workload: str, trace: int) -> None:
    lines, result = run_bench(workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float | int)
        assert m["better"] in ("lower", "higher")
        assert any(
            line.split()[:1] == [m["name"]] and f"({m['better']} is better)" in line
            for line in lines
        ), m["name"]

    expected = set(CHECKS[workload])
    if trace:
        expected.add("traced_decomposition_equals_process_frame")
        assert "check traced_decomposition_equals_process_frame: ok" in "\n".join(lines)
    ran = {line.split()[1].rstrip(":") for line in lines if line.startswith("check ")}
    assert expected <= ran
    assert f"error_rate: {result['failed']}/{result['attempted']}" in lines


def test_fails_without_the_program(tmp_path: Path) -> None:
    """Given only BENCHMARK.json and bench/, the benchmark exits non-zero, silently."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
