"""Command-line front end.

Subcommands map to the pipeline stages:

    simulate   scenario -> runs/<name>/cubes/*.bin + sidecar.json
    process    scenario or cube dir -> targets.jsonl + report.json
    sweep      full dimension grid -> dataset.csv
    train      dataset.csv -> model.json
    evaluate   dataset.csv + model.json -> eval/report.json + histograms

``simulate``, and ``process --config`` and ``sweep`` through ``run_scenario``,
take a walk's cubes from ``scenario.walk_cubes``. Both ``process`` routes
turn cubes into targets and estimates through ``scenario.process_walk``:
``--config`` the cubes it synthesizes, ``--cubes`` the files it loads.

``sweep`` runs its walks on every usable CPU, in this process and in forked
worker processes, each taking the next unclaimed walk when it is free (see
``parallel``), and builds its dataset as one
``enhancer.Dataset`` of column arrays; ``train`` and ``evaluate`` read
``dataset.csv`` back into that form, split it, and work on whole columns.
``evaluate`` names its estimators once, in ``evaluate_split``; the report,
its histograms and the printed line follow that dict, one block, two
``hist_<estimator>_<dimension>.csv`` files and one MAE column per estimator.

Every command but ``evaluate``, which draws nothing at random, takes --seed.
Every command writes a manifest.json entry (config hash, seed, versions; no
timestamps, so fixed-seed reruns are byte-identical). All JSON goes through
``codec.read_json`` and ``codec.write_json``.
Exit codes: 0 success, 1 validation error, a sweep worker process that died,
or diverged training, 2 I/O error. A sweep whose walks fail reports the
first failed walk in scenario order, whichever process ran it, and claims
no walk after a failed one.

A run directory may be written again: a later command adds its entry to the
manifest, and a re-``simulate`` replaces the walk. Every artifact is rewritten
in place through ``codec.rewrite``, so a rerun leaves exactly the bytes a
fresh directory would get. ``simulate`` removes ``sidecar.json`` before it
writes the first cube and writes it again after the last, and removes the
``frame_*.bin`` files beyond the frames it wrote. ``process --cubes`` needs
the sidecar and exactly the frame files its trajectory names, so a walk that
an interrupted ``simulate`` left half rewritten is refused, not read. It takes
the scenario from the sidecar, but each frame's timestamp, tilt and host
speed from that frame's cube header: of the sidecar's ``trajectory.frames``
it only counts the entries, so their contents are never checked.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .chirp_sim import load_cube, save_cube
from .codec import naming, read_json_object, to_dict, write_json
# estimate_initial and process_frame unused: bench/tracing.py patches them until ROADMAP item 4
from .dimension import aggregate_estimates, estimate_initial
from .dsp_chain import DspConfig, process_frame, write_target_lists
from .enhancer import (
    FEATURE_COLUMNS,
    LABEL_COLUMNS,
    Dataset,
    TrainConfig,
    TrainingError,
    assemble_dataset,
    dataset_fingerprint,
    forward,
    load_model,
    read_dataset,
    save_model,
    split_dataset,
    train,
    write_dataset,
)
from .evaluation import DIMENSIONS, build_error_report, report_to_dict, write_histogram_csv
from .scene import Trajectory, corners_of
from .scenario import (
    ScenarioConfig,
    build_sweep,
    load_scenario,
    process_walk,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_trajectory,
    synthesize_scenario_frame,  # unused: bench/tracing.py patches it until ROADMAP item 4
    walk_cubes,
)

def _versions() -> dict:
    return {
        "stairdim": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _config_hash(sc: ScenarioConfig) -> str:
    canonical = json.dumps(scenario_to_dict(sc), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(out_dir: Path, command: str, entry: dict) -> None:
    path = out_dir / "manifest.json"
    doc = read_json_object(path) if path.exists() else {}
    doc[command] = {**entry, "versions": _versions()}
    write_json(doc, path)


def _dsp_overrides(dsp: DspConfig, args: argparse.Namespace) -> DspConfig:
    """``dsp`` with those of --exhaustive-aoa, --peak-interp and --cfar-pfa the command has."""
    if getattr(args, "exhaustive_aoa", False):
        dsp = replace(dsp, exhaustive_aoa=True)
    if getattr(args, "peak_interp", False):
        dsp = replace(dsp, peak_interp=True)
    if getattr(args, "cfar_pfa", None) is not None:
        dsp = dsp.with_pfa(args.cfar_pfa)
    return dsp


def _apply_overrides(sc: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if getattr(args, "seed", None) is not None:
        sc = replace(sc, seed=args.seed)
    return replace(sc, dsp=_dsp_overrides(sc.dsp, args))


def _load_scenario_arg(args: argparse.Namespace) -> ScenarioConfig:
    sc = load_scenario(args.config) if args.config else ScenarioConfig()
    return _apply_overrides(sc, args)


def _write_sidecar(sc: ScenarioConfig, trajectory: Trajectory, out_dir: Path) -> None:
    sidecar = {
        "scenario": scenario_to_dict(sc),
        "trajectory": to_dict(trajectory),
        "true_corners_m": [[float(x), float(y)] for x, y in corners_of(sc.staircase)],
        "d_true_m": sc.staircase.depth_m,
        "h_true_m": sc.staircase.height_m,
    }
    write_json(sidecar, out_dir / "sidecar.json")


def _frame_paths(cube_dir: Path, n_frames: int) -> list[Path]:
    return [cube_dir / f"frame_{i:05d}.bin" for i in range(n_frames)]


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = _load_scenario_arg(args)
    out_dir = Path(args.out)
    cube_dir = out_dir / "cubes"
    cube_dir.mkdir(parents=True, exist_ok=True)
    with naming(args.config):  # a refusal of the walk names the scenario file
        trajectory = scenario_trajectory(sc)
        paths = _frame_paths(cube_dir, len(trajectory.frames))
        # until the new sidecar is written, process --cubes refuses the walk
        (out_dir / "sidecar.json").unlink(missing_ok=True)
        for path, cube in zip(paths, walk_cubes(sc, trajectory)):
            save_cube(cube, path)
    for stale in set(cube_dir.glob("frame_*.bin")).difference(paths):  # an earlier, longer walk's frames
        stale.unlink()
    _write_sidecar(sc, trajectory, out_dir)
    _write_manifest(out_dir, "simulate", {"config": _config_hash(sc), "seed": sc.seed})
    print(f"wrote {len(trajectory.frames)} cubes to {cube_dir}")
    return 0


def _report_from_estimates(estimates, target_lists) -> dict:
    frames = [
        {
            "t": tl.timestamp_s,
            "gamma_deg": math.degrees(tl.gamma_rad),
            "n_targets": len(tl.entries),
            "d_m": est.depth_m if est else None,
            "h_m": est.height_m if est else None,
        }
        for tl, est in zip(target_lists, estimates)
    ]
    agg = aggregate_estimates(estimates)
    return {
        "frames": frames,
        "aggregate": {
            "d_m": agg[0] if agg else None,
            "h_m": agg[1] if agg else None,
            "frames_with_estimate": sum(1 for e in estimates if e is not None),
            "frames_total": len(frames),
        },
    }


def cmd_process(args: argparse.Namespace) -> int:
    if args.config and args.cubes:
        raise ValueError("--config and --cubes exclude each other: a cube run carries its scenario")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.cubes:
        given = Path(args.cubes)
        cube_dir = given / "cubes" if (given / "cubes").is_dir() else given
        run_dir = given if (given / "sidecar.json").exists() or cube_dir != given else given.parent
        sidecar_path = run_dir / "sidecar.json"
        sidecar = read_json_object(sidecar_path)
        with naming(sidecar_path):
            sc = scenario_from_dict(sidecar["scenario"])
            trajectory = sidecar.get("trajectory")
            frames = trajectory.get("frames") if isinstance(trajectory, dict) else None
            if not isinstance(frames, list):
                raise ValueError("'trajectory' must be an object with a 'frames' list")
        sc = _apply_overrides(sc, args)
        found = set(cube_dir.glob("frame_*.bin"))
        if not found:
            raise ValueError(f"no cube files under {cube_dir}")
        paths = _frame_paths(cube_dir, len(frames))
        expected = set(paths)
        if found != expected:
            missing = sorted(p.name for p in expected - found)
            extra = sorted(p.name for p in found - expected)
            raise ValueError(
                f"{cube_dir} holds {len(found)} cube files, its sidecar's trajectory"
                f" {len(paths)} frames (missing {missing}, not in the walk {extra})"
            )

        target_lists, estimates = process_walk(sc, (load_cube(p, sc.radar) for p in paths))
    else:
        sc = _load_scenario_arg(args)
        with naming(args.config):  # a refusal of the walk names the scenario file
            result = run_scenario(sc)
        target_lists, estimates = result.target_lists, result.estimates

    write_target_lists(target_lists, out_dir / "targets.jsonl")
    write_json(_report_from_estimates(estimates, target_lists), out_dir / "report.json")
    _write_manifest(out_dir, "process", {"config": _config_hash(sc), "seed": sc.seed})
    n_est = sum(1 for e in estimates if e is not None)
    print(f"processed {len(target_lists)} frames, {n_est} with dimension estimates")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.walks_per_combo < 1:
        raise ValueError(f"--walks-per-combo must be >= 1, got {args.walks_per_combo}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    scenarios = build_sweep(
        base_seed=seed, walks_per_combo=args.walks_per_combo, dsp=_dsp_overrides(DspConfig(), args)
    )
    data = assemble_dataset(scenarios)
    if data.n_rows == 0:
        raise ValueError("sweep produced no dataset rows")
    write_dataset(data, out_dir / "dataset.csv")
    _write_manifest(
        out_dir,
        "sweep",
        {
            "seed": seed,
            "walks_per_combo": args.walks_per_combo,
            "scenarios": len(scenarios),
            "rows": data.n_rows,
        },
    )
    print(f"sweep: {len(scenarios)} scenarios -> {data.n_rows} dataset rows")
    return 0


def _read_split(dataset_path: Path, split_seed: int):
    """The train and test splits of a dataset file; a split error names the file."""
    data = read_dataset(dataset_path)
    with naming(dataset_path):
        return split_dataset(data, split_seed=split_seed)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed if args.seed is not None else 0)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = Path(args.dataset) if args.dataset else out_dir / "dataset.csv"
    train_split, _ = _read_split(dataset_path, args.split_seed)
    # numpy's overflow warnings on the way to a non-finite loss would print
    # before the TrainingError that reports it; a refused column names the file
    with np.errstate(all="ignore"), naming(dataset_path):
        result = train(train_split, cfg)
    fingerprint = dataset_fingerprint(dataset_path)
    save_model(result.model, out_dir / "model.json", train_config=cfg, fingerprint=fingerprint)
    curve = {"train_loss": result.train_loss, "val_loss": result.val_loss}
    write_json(curve, out_dir / "training_curve.json")
    _write_manifest(
        out_dir,
        "train",
        {
            "dataset": fingerprint,
            "seed": cfg.seed,
            "split_seed": args.split_seed,
            "epochs": cfg.epochs,
            "train_rows": train_split.n_rows,
        },
    )
    print(
        f"trained on {train_split.n_rows} rows, final train loss {result.train_loss[-1]:.3e}"
    )
    return 0


def _per_acquisition(data: Dataset, estimates: dict[str, np.ndarray], truths: np.ndarray):
    """Median-aggregate each estimator's per-frame rows per scenario, ids sorted.

    Returns the per-scenario estimates, keyed as ``estimates`` is, and truths;
    a scenario's truth is that of its first row.
    """
    _, first, group = np.unique(data.scenario_id, return_index=True, return_inverse=True)
    order = np.argsort(group, kind="stable")
    walks = np.split(order, np.cumsum(np.bincount(group))[:-1])
    medians = {
        name: np.array([np.median(est[idx], axis=0) for idx in walks])
        for name, est in estimates.items()
    }
    return medians, truths[first]


def evaluate_split(data: Dataset, model) -> dict:
    """Per-frame and per-acquisition error reports for a dataset's rows."""
    truths = data.labels()
    estimates = {"initial": data.initial_estimate(), "enhanced": forward(model, data.features())}
    acq_estimates, acq_truths = _per_acquisition(data, estimates, truths)
    return {
        "per_frame": build_error_report(estimates, truths),
        "per_acquisition": build_error_report(acq_estimates, acq_truths),
        "n_frames": data.n_rows,
        "n_acquisitions": acq_truths.shape[0],
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    dataset_path = Path(args.dataset) if args.dataset else out_dir / "dataset.csv"
    model_path = Path(args.model) if args.model else out_dir / "model.json"
    _, test_split = _read_split(dataset_path, args.split_seed)
    model = load_model(model_path)
    widths = (model.layer_sizes[0], model.layer_sizes[-1])
    if widths != (len(FEATURE_COLUMNS), len(LABEL_COLUMNS)):
        raise ValueError(
            f"{model_path}: the model maps {widths[0]} inputs to {widths[1]} outputs, "
            f"the dataset has {len(FEATURE_COLUMNS)} features and {len(LABEL_COLUMNS)} labels"
        )
    # a finite model can still overflow; numpy's warnings would print before the
    # error that reports it
    with np.errstate(all="ignore"):
        with naming(f"{model_path} on {dataset_path}"):  # an estimate or its errors beyond floats
            results = evaluate_split(test_split, model)

    eval_dir = out_dir / "eval"  # made only now, so a refused input leaves no directory
    eval_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "n_frames": results["n_frames"],
        "n_acquisitions": results["n_acquisitions"],
        "per_frame": report_to_dict(results["per_frame"]),
        "per_acquisition": report_to_dict(results["per_acquisition"]),
    }
    write_json(doc, eval_dir / "report.json")
    per_frame = results["per_frame"]
    for name, dims in per_frame.items():
        for dim, metrics in dims.items():
            write_histogram_csv(metrics, eval_dir / f"hist_{name}_{dim}.csv")
    _write_manifest(
        out_dir,
        "evaluate",
        {
            "dataset": dataset_fingerprint(dataset_path),
            "split_seed": args.split_seed,
            "test_rows": results["n_frames"],
        },
    )
    columns = (
        f"{dim} " + " -> ".join(f"{dims[dim].mae_cm:.2f}" for dims in per_frame.values())
        for dim in DIMENSIONS
    )
    print("per-frame MAE (cm): " + ", ".join(columns))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are validation errors, exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``stairdim`` parser, built once per process; ``command`` names the subcommand."""
    parser = _Parser(prog="stairdim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"stairdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--out", required=True, help="run directory for outputs")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p = sub.add_parser("simulate", help="synthesize cube files for a scenario")
    p.add_argument("--config", help="scenario JSON (default: built-in scenario)")
    common(p)

    p = sub.add_parser("process", help="extract targets and dimensions")
    p.add_argument("--config", help="scenario JSON to synthesize and process in memory")
    p.add_argument("--cubes", help="run directory (or cubes/ dir) from a simulate run")
    common(p)
    p.add_argument("--exhaustive-aoa", action="store_true", help="AoA over all range bins")
    p.add_argument("--peak-interp", action="store_true", help="parabolic range refinement")
    p.add_argument("--cfar-pfa", type=float, default=None, help="false-alarm probability")

    p = sub.add_parser("sweep", help="run the dimension grid and write dataset.csv")
    common(p)
    p.add_argument("--walks-per-combo", type=int, default=10)
    p.add_argument("--peak-interp", action="store_true")
    p.add_argument("--cfar-pfa", type=float, default=None)

    p = sub.add_parser("train", help="train the error enhancer on a dataset")
    common(p)
    p.add_argument("--dataset", help="dataset CSV (default: <out>/dataset.csv)")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--split-seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="score initial vs enhanced on the test split")
    common(p, seed=False)
    p.add_argument("--dataset", help="dataset CSV (default: <out>/dataset.csv)")
    p.add_argument("--model", help="model JSON (default: <out>/model.json)")
    p.add_argument("--split-seed", type=int, default=0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_<name> is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    # a KeyError is a field an input file lacks; a TrainingError a training
    # loss that went non-finite
    except (ValueError, KeyError, TrainingError) as exc:
        msg = f"missing required key {exc}" if isinstance(exc, KeyError) else exc
        print(f"stairdim: {msg}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"stairdim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
