"""The benchmark workloads, the stairdim commands they time and their output checks.

Every workload turns the seed into the program's inputs, sets up, then runs
its timed commands through ``stairdim.cli.main`` in this process. Outputs are
checked after each set-up and each timed pass; a non-zero exit or a failed
check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import statistics
import time
from pathlib import Path

from tracing import Tracer

# Sizes of one timed pass. The sweep grid is 35 depth x height combinations,
# so one walk per combination is the smallest sweep the CLI runs.
SIZES = {
    "full": {
        "sweep_walks_per_combo": 1,
        "cube_walks": 7,
        "train_walks_per_combo": 4,
        "train_epochs": 150,
        "train_models": 4,
        "setups": 5,
        "train_setups": 2,
    },
    # Smallest size that still runs every command and every check.
    "smoke": {
        "sweep_walks_per_combo": 1,
        "cube_walks": 1,
        "train_walks_per_combo": 2,
        "train_epochs": 3,
        "train_models": 2,
        "setups": 2,
        "train_setups": 2,
    },
}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def mean_abs_cm(pairs) -> float:
    """Mean |estimate - truth| in cm over (estimate_m, truth_m) pairs."""
    pairs = list(pairs)
    return 100.0 * sum(abs(e - t) for e, t in pairs) / len(pairs)


class Run:
    """One benchmark run: stairdim commands, check results and their tallies."""

    def __init__(self, work: Path, calibration) -> None:
        self.work = work
        self.tracer: Tracer | None = None
        self.calibration = calibration  # sampled during every command, see run.Calibration
        self.command_s = 0.0  # reference-host seconds of every command so far
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}
        self.failures: list[str] = []
        # per round-off check: frames that were not byte-equal, frames compared
        self.inexact: dict[str, list[int]] = {}

    def clock(self) -> float:
        return self.tracer.now() if self.tracer else time.perf_counter()

    def stairdim(self, *argv) -> float:
        """Run one CLI command in this process; returns its wall time in reference-host s."""
        from stairdim import cli

        argv = [str(a) for a in argv]
        cal = self.calibration
        first = len(cal.samples)
        cal.sample()
        pause = self.tracer.paused if self.tracer is not None else None
        t0, cal0 = self.clock(), cal.total_s
        try:
            with contextlib.redirect_stdout(io.StringIO()), cal.during(pause):
                if self.tracer is not None:
                    with self.tracer.span("cli." + argv[0]):
                        rc = cli.main(argv)
                else:
                    rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = self.clock() - t0
        if pause is None:  # a traced clock has already left the samples out
            elapsed -= cal.total_s - cal0
        seconds = elapsed * cal.factor(cal.samples[first:])
        self.command_s += seconds
        self.check("commands_exit_0", rc == 0, f"stairdim {' '.join(argv)} -> {rc}")
        return seconds

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one operation; a failure is kept with ``detail``."""
        self.attempted += 1
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


class Workload:
    """Base: ``setup`` and ``iterate`` run commands, the ``check_*`` verify them."""

    name = ""
    traced_setup = False  # also trace the last set-up in a traced run
    min_passes = 2  # timed passes a run makes however long they take

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.setups = size["setups"]

    def setup(self, run: Run, i: int) -> None:
        raise NotImplementedError

    def check_setup(self, run: Run, i: int) -> None:
        pass

    def iterate(self, run: Run, i: int) -> dict:
        """Timed pass; returns ``wall_s``, ``items`` and the seconds they took."""
        raise NotImplementedError

    def check_iteration(self, run: Run, i: int) -> None:
        pass

    def accuracy(self) -> dict:
        """``mae_init_cm``, ``mae_final_cm`` and ``pair_rate`` of the outputs."""
        raise NotImplementedError


def same_digest(run: Run, name: str, first: Path, other: Path) -> None:
    ok = first.exists() and other.exists() and digest(first) == digest(other)
    run.check(
        name, ok, f"{other.relative_to(run.work)} differs from {first.relative_to(run.work)}"
    )


def _walk_frames(walk_cfg) -> int:
    return int(round(walk_cfg.duration_s * walk_cfg.rate_hz))


def _warmup_scenario(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "name": f"warmup_{seed}",
        "seed": rng.randrange(1 << 16),
        "staircase": {"depth_m": 0.30, "height_m": 0.16, "step_count": 4},
    }


class SweepGrid(Workload):
    """``stairdim sweep`` over the whole 35-combination grid, in memory."""

    name = "sweep_grid"

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        from stairdim.scenario import build_sweep

        self.walks_per_combo = size["sweep_walks_per_combo"]
        self.frames = sum(
            _walk_frames(sc.walk) for sc in build_sweep(seed, self.walks_per_combo)
        )

    def setup(self, run: Run, i: int) -> None:
        # warm the pipeline with one walk of the same kind the sweep runs
        path = run.work / f"warmup_{i}.json"
        path.write_text(json.dumps(_warmup_scenario(self.seed)), encoding="utf-8")
        run.stairdim("process", "--config", path, "--out", run.work / f"warmup_{i}")

    def _out(self, run: Run, i: int) -> Path:
        return run.work / f"sweep_{i}"

    def iterate(self, run: Run, i: int) -> dict:
        wall = run.stairdim(
            "sweep",
            "--out", self._out(run, i),
            "--seed", self.seed,
            "--walks-per-combo", self.walks_per_combo,
        )
        self.last = self._out(run, i)
        return {"wall_s": wall, "items": self.frames, "items_s": wall}

    def check_iteration(self, run: Run, i: int) -> None:
        out = self._out(run, i)
        rows = csv_rows(out / "dataset.csv")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        run.check("rows_match_manifest", len(rows) == manifest["sweep"]["rows"])
        if i > 0:
            same_digest(
                run, "same_seed_same_dataset", self._out(run, 0) / "dataset.csv", out / "dataset.csv"
            )

    def accuracy(self) -> dict:
        return dataset_accuracy(self.last / "dataset.csv", self.frames)


def dataset_accuracy(path: Path, frames: int) -> dict:
    """Initial-estimate MAE and pair rate of a sweep dataset, from its CSV."""
    rows = csv_rows(path)
    depth, height = [], []
    for r in rows:
        r1, t1 = float(r["r1_m"]), float(r["theta1_rad"])
        r2, t2 = float(r["r2_m"]), float(r["theta2_rad"])
        depth.append((r2 * math.cos(t2) - r1 * math.cos(t1), float(r["d_true_m"])))
        height.append((r2 * math.sin(t2) - r1 * math.sin(t1), float(r["h_true_m"])))
    mae = (mean_abs_cm(depth) + mean_abs_cm(height)) / 2.0
    return {"mae_init_cm": mae, "mae_final_cm": mae, "pair_rate": len(rows) / frames}


# Ranges and magnitudes from a cube file may differ from the in-memory ones in
# their last bits (see bench/README.md); anything beyond float round-off fails.
ROUND_OFF = 1e-12


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=ROUND_OFF, abs_tol=ROUND_OFF)


def _targets_match(a: dict, b: dict) -> bool:
    """Frames equal field by field: detections exactly, ranges and magnitudes to round-off."""
    if (a["t"], a["gamma_deg"], len(a["targets"])) != (b["t"], b["gamma_deg"], len(b["targets"])):
        return False
    return all(
        x["theta_deg"] == y["theta_deg"] and _close(x["r_m"], y["r_m"]) and _close(x["mag"], y["mag"])
        for x, y in zip(a["targets"], b["targets"])
    )


def same_targets_to_round_off(run: Run, name: str, first: Path, other: Path) -> None:
    """Check ``other``'s targets against ``first``'s; count frames not byte-equal."""
    where = f"{other.relative_to(run.work)} against {first.relative_to(run.work)}"
    if not (first.exists() and other.exists()):
        run.check(name, False, f"{where}: missing")
        return
    a = first.read_text(encoding="utf-8").splitlines()
    b = other.read_text(encoding="utf-8").splitlines()
    ok = len(a) == len(b) and all(
        _targets_match(json.loads(x), json.loads(y)) for x, y in zip(a, b)
    )
    run.check(name, ok, f"{where}: differs beyond float round-off")
    tally = run.inexact.setdefault(name, [0, 0])
    tally[0] += sum(x != y for x, y in zip(a, b))
    tally[1] += len(a)


class CubesExhaustive(Workload):
    """``simulate`` to cube files, then ``process --cubes --exhaustive-aoa --peak-interp``."""

    name = "cubes_exhaustive"

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        from stairdim.scenario import SWEEP_DEPTHS_M, SWEEP_HEIGHTS_M

        # Fixed combinations spread over the grid (depths from end to end,
        # every height once per five walks); the seed draws each walk's seed
        # and mount height.
        n = size["cube_walks"]
        combos = [
            (
                SWEEP_DEPTHS_M[round(k * (len(SWEEP_DEPTHS_M) - 1) / max(n - 1, 1))],
                SWEEP_HEIGHTS_M[(2 * k) % len(SWEEP_HEIGHTS_M)],
            )
            for k in range(n)
        ]
        rng = random.Random(seed)
        self.walks = [
            {
                "name": f"walk{k}_d{round(d * 100)}h{round(h * 100)}",
                "seed": rng.randrange(1 << 16),
                "staircase": {"depth_m": d, "height_m": h, "step_count": 4},
                "walk": {"mount_height_m": round(rng.uniform(0.40, 0.50), 4)},
            }
            for k, (d, h) in enumerate(combos)
        ]

    def _config(self, run: Run, k: int) -> Path:
        return run.work / "inputs" / f"walk_{k}.json"

    def _reference(self, run: Run, i: int, k: int) -> Path:
        return run.work / f"reference_{i}" / f"walk_{k}"

    def _processed(self, run: Run, i: int, k: int) -> Path:
        return run.work / f"processed_{i}" / f"walk_{k}"

    def setup(self, run: Run, i: int) -> None:
        # the inputs, and the in-memory selective-AoA targets to check against
        (run.work / "inputs").mkdir(parents=True, exist_ok=True)
        for k, walk in enumerate(self.walks):
            self._config(run, k).write_text(json.dumps(walk), encoding="utf-8")
            run.stairdim(
                "process", "--config", self._config(run, k), "--peak-interp",
                "--out", self._reference(run, i, k),
            )

    def check_setup(self, run: Run, i: int) -> None:
        if i > 0:
            for k in range(len(self.walks)):
                same_digest(
                    run,
                    "same_seed_same_targets",
                    self._reference(run, 0, k) / "targets.jsonl",
                    self._reference(run, i, k) / "targets.jsonl",
                )

    def iterate(self, run: Run, i: int) -> dict:
        wall = 0.0
        for k in range(len(self.walks)):
            cubes = run.work / "cubes" / f"walk_{k}"
            wall += run.stairdim("simulate", "--config", self._config(run, k), "--out", cubes)
            wall += run.stairdim(
                "process", "--cubes", cubes, "--exhaustive-aoa", "--peak-interp",
                "--out", self._processed(run, i, k),
            )
        self.last = [self._processed(run, i, k) for k in range(len(self.walks))]
        frames = sum(
            len(list((run.work / "cubes" / f"walk_{k}" / "cubes").glob("frame_*.bin")))
            for k in range(len(self.walks))
        )
        return {"wall_s": wall, "items": frames, "items_s": wall}

    def check_iteration(self, run: Run, i: int) -> None:
        for k in range(len(self.walks)):
            if i == 0:
                # the paper's selective-AoA claim alone, both sides from disk
                selective = run.work / "selective_from_disk" / f"walk_{k}"
                run.stairdim(
                    "process", "--cubes", run.work / "cubes" / f"walk_{k}", "--peak-interp",
                    "--out", selective,
                )
                same_digest(
                    run,
                    "exhaustive_equals_selective_from_disk",
                    selective / "targets.jsonl",
                    self._processed(run, i, k) / "targets.jsonl",
                )
            same_targets_to_round_off(
                run,
                "exhaustive_from_disk_matches_selective_in_memory",
                self._reference(run, 0, k) / "targets.jsonl",
                self._processed(run, i, k) / "targets.jsonl",
            )
            if i > 0:
                same_digest(
                    run,
                    "same_seed_same_targets",
                    self._processed(run, 0, k) / "targets.jsonl",
                    self._processed(run, i, k) / "targets.jsonl",
                )

    def accuracy(self) -> dict:
        depth, height = [], []
        with_estimate = total = 0
        for out, walk in zip(self.last, self.walks):
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            d_true, h_true = walk["staircase"]["depth_m"], walk["staircase"]["height_m"]
            for f in report["frames"]:
                if f["d_m"] is not None:
                    depth.append((f["d_m"], d_true))
                    height.append((f["h_m"], h_true))
            with_estimate += report["aggregate"]["frames_with_estimate"]
            total += report["aggregate"]["frames_total"]
        mae = (mean_abs_cm(depth) + mean_abs_cm(height)) / 2.0
        return {"mae_init_cm": mae, "mae_final_cm": mae, "pair_rate": with_estimate / total}


class TrainEval(Workload):
    """``train`` then ``evaluate`` on datasets that set-up makes with ``sweep``.

    Set-up i sweeps dataset i from the fixed sweep seed i. Model j is
    trained on dataset j mod ``setups`` with training seed j drawn from the
    workload seed, and pass i trains and evaluates model i mod ``models``.
    How much the enhancer gains depends on the dataset it learns from far
    more than on the training seed, so seeded datasets would make the
    accuracy metrics measure the luck of the draw; they are means over the
    models.
    """

    name = "train_eval"
    traced_setup = True

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        from stairdim.scenario import build_sweep

        self.setups = size["train_setups"]
        self.walks_per_combo = size["train_walks_per_combo"]
        self.epochs = size["train_epochs"]
        self.dataset_seeds = list(range(self.setups))
        rng = random.Random(seed)
        self.train_seeds = [rng.randrange(1 << 31) for _ in range(size["train_models"])]
        # every model trained, then the first again for the same-seed check
        self.min_passes = len(self.train_seeds) + 1
        self.frames = [
            sum(_walk_frames(sc.walk) for sc in build_sweep(s, self.walks_per_combo))
            for s in self.dataset_seeds
        ]
        self.models: dict[int, tuple[Path, Path]] = {}  # model j -> first output, dataset CSV

    def _data(self, run: Run, j: int) -> Path:
        return run.work / f"data_{j}"

    def _model(self, run: Run, i: int) -> Path:
        return run.work / f"model_{i}"

    def setup(self, run: Run, i: int) -> None:
        run.stairdim(
            "sweep",
            "--out", self._data(run, i),
            "--seed", self.dataset_seeds[i],
            "--walks-per-combo", self.walks_per_combo,
        )

    def check_setup(self, run: Run, i: int) -> None:
        out = self._data(run, i)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        run.check(
            "rows_match_manifest", len(csv_rows(out / "dataset.csv")) == manifest["sweep"]["rows"]
        )

    def iterate(self, run: Run, i: int) -> dict:
        out = self._model(run, i)
        j = i % len(self.train_seeds)
        dataset = self._data(run, j % self.setups) / "dataset.csv"
        train_s = run.stairdim(
            "train", "--out", out, "--dataset", dataset,
            "--epochs", self.epochs, "--seed", self.train_seeds[j],
        )
        eval_s = run.stairdim("evaluate", "--out", out, "--dataset", dataset)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        self.models.setdefault(j, (out, dataset))
        return {
            "wall_s": train_s + eval_s,
            "items": manifest["train"]["train_rows"] * manifest["train"]["epochs"],
            "items_s": train_s,
        }

    def check_iteration(self, run: Run, i: int) -> None:
        out = self._model(run, i)
        report = json.loads((out / "eval" / "report.json").read_text(encoding="utf-8"))
        worst = 0.0
        for level in ("per_frame", "per_acquisition"):
            for estimator in ("initial", "enhanced"):
                for dim in ("depth", "height"):
                    m = report[level][estimator][dim]
                    lhs = m["rmse_cm"] ** 2
                    rhs = m["sigma_cm"] ** 2 + m["bias_cm"] ** 2
                    worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-12))
        run.check("rmse2_equals_sigma2_plus_bias2", worst <= 1e-9, f"(rel. error {worst:.2e})")
        if i >= len(self.train_seeds):
            first = self.models[i % len(self.train_seeds)][0]
            for name in ("model.json", "eval/report.json"):
                same_digest(run, "same_seed_same_model_and_report", first / name, out / name)

    def accuracy(self) -> dict:
        init, final, rate = [], [], []
        for j, (model, dataset) in sorted(self.models.items()):
            report = json.loads((model / "eval" / "report.json").read_text(encoding="utf-8"))
            pf = report["per_frame"]
            init.append((pf["initial"]["depth"]["mae_cm"] + pf["initial"]["height"]["mae_cm"]) / 2)
            final.append((pf["enhanced"]["depth"]["mae_cm"] + pf["enhanced"]["height"]["mae_cm"]) / 2)
            rate.append(len(csv_rows(dataset)) / self.frames[j % self.setups])
        return {
            "mae_init_cm": statistics.fmean(init),
            "mae_final_cm": statistics.fmean(final),
            "pair_rate": statistics.fmean(rate),
        }


WORKLOADS = {w.name: w for w in (SweepGrid, CubesExhaustive, TrainEval)}
