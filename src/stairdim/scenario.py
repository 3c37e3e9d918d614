"""Scenario files and the end-to-end scenario runner.

A scenario bundles everything one simulated acquisition needs: the radar
parametrization, the staircase, the walk, noise and clutter settings, the
extraction-chain configuration, and a master seed. Per-frame seeds derive
from the master seed and the frame index, so frames are reproducible
independently of evaluation order.

Scenario files are JSON shaped like ``scenario_to_dict`` output, read by
``codec.from_dict``. An absent key takes the default at that position in
``ScenarioConfig()`` (a partial ``dsp.range_cfar`` fills from the default
range CFAR, a partial ``standards`` from ``SWEEP_STANDARDS``). An unknown key
in any section is an error. A ``staircase`` section must state ``depth_m``,
``height_m`` and ``step_count``. Angles are degrees under ``*_deg`` keys.
Integer fields take integral numbers only; ``null`` only where a field may be
unset. Some of the setup is fixed and has no key: the staircase foot is the
world origin, the chain weights range with Hann and Doppler and angle not at
all, and each CFAR stage sets its threshold from its ``pfa``. Sizes and levels
have fixed limits, far above the defaults, so that a file cannot exhaust
memory or leave the float range: frames a walk, samples a cube, the AoA FFT
length and its range-by-angle cells, and the SNR; every walk value, the sway
phase and the host speed must be finite. Each error names the file.

A walk's cubes come from :func:`walk_cubes`, the one iterator that
``run_scenario`` and ``stairdim simulate`` share, and become targets and
estimates in :func:`process_walk`, the one per-frame loop that
``run_scenario`` and ``stairdim process --cubes`` share.

A sweep's walks run on every usable CPU (:func:`_usable_cpus`: the affinity
mask, capped by a cgroup CPU quota). ``enhancer.assemble_dataset`` gives
walk i to share ``i % cpus``: the calling process runs share 0 itself while
one forked worker process runs each other share, and the rows are merged
back in scenario order, so the dataset is byte-identical to a serial run.
Workers are forked: they start at once, without importing the package again,
and see the caller's module state, replaced names included. A fork copies
only the calling thread, and the package starts no thread of its own. With
one usable CPU, or another thread alive, the caller's share is every walk
and no worker starts.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .chirp_sim import (
    ChirpCube,
    NoiseConfig,
    SceneArrays,
    quantize_to_wire,
    scene_arrays,
    synthesize_frame,
)
from .codec import from_dict, naming, read_json, to_dict
from .dimension import (
    SWEEP_STANDARDS,
    DimensionEstimate,
    StairStandards,
    aggregate_estimates,
    estimate_initial,
)
from .dsp_chain import MAX_AOA_CELLS, DspConfig, TargetList, process_frame
from .numerics import rng_for
from .rf_params import RadarConfig, derive_attributes
from .scene import (
    Scatterer,
    StaircaseSpec,
    Trajectory,
    WalkConfig,
    clutter_scatterers,
    corner_scatterers,
    generate_walk,
    radar_height,
)

__all__ = [
    "ClutterConfig",
    "ScenarioConfig",
    "ScenarioResult",
    "scenario_to_dict",
    "scenario_from_dict",
    "load_scenario",
    "process_walk",
    "run_scenario",
    "build_sweep",
    "SWEEP_DEPTHS_M",
    "SWEEP_HEIGHTS_M",
]

#: Dimension grid of the evaluation sweep: 26-38 cm depths by 10-18 cm
#: heights in 2 cm steps, 35 combinations.
SWEEP_DEPTHS_M = tuple(round(0.26 + 0.02 * i, 2) for i in range(7))
SWEEP_HEIGHTS_M = tuple(round(0.10 + 0.02 * i, 2) for i in range(5))


@dataclass(frozen=True)
class ClutterConfig:
    count: int = 0
    reflectivity: float = 0.3

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"clutter count must be >= 0, got {self.count}")
        if not (math.isfinite(self.reflectivity) and self.reflectivity >= 0.0):
            raise ValueError(
                f"clutter.reflectivity must be finite and >= 0, got {self.reflectivity!r}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "default"
    seed: int = 0
    radar: RadarConfig = field(default_factory=RadarConfig)
    staircase: StaircaseSpec = field(default_factory=StaircaseSpec)
    walk: WalkConfig = field(default_factory=WalkConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    clutter: ClutterConfig = field(default_factory=ClutterConfig)
    dsp: DspConfig = field(default_factory=DspConfig)
    standards: StairStandards = field(default_factory=lambda: SWEEP_STANDARDS)

    def __post_init__(self) -> None:
        if self.dsp.aoa_fft_len < self.radar.virtual_antennas:
            raise ValueError(
                f"dsp.aoa_fft_len {self.dsp.aoa_fft_len} is shorter than the radar's "
                f"{self.radar.virtual_antennas} virtual antennas"
            )
        cells = self.radar.samples_per_chirp * self.dsp.aoa_fft_len
        if cells > MAX_AOA_CELLS:
            raise ValueError(
                f"{self.radar.samples_per_chirp} range bins x dsp.aoa_fft_len "
                f"{self.dsp.aoa_fft_len} exceed the limit of {MAX_AOA_CELLS} AoA cells"
            )


@dataclass
class ScenarioResult:
    """Everything the pipeline produced for one scenario."""

    scenario: ScenarioConfig
    trajectory: Trajectory
    target_lists: list[TargetList]
    estimates: list[Optional[DimensionEstimate]]

    def aggregate(self) -> Optional[tuple[float, float]]:
        return aggregate_estimates(self.estimates)


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    return to_dict(sc)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    return from_dict(ScenarioConfig(), d)


def load_scenario(path: str | Path) -> ScenarioConfig:
    doc = read_json(path)
    with naming(path):
        return scenario_from_dict(doc)


@functools.lru_cache(maxsize=8)
def scenario_scatterers(sc: ScenarioConfig) -> tuple[Scatterer, ...]:
    """Corner scatterers plus this scenario's seeded clutter, if any; built once per scenario."""
    scatterers = corner_scatterers(sc.staircase)
    if sc.clutter.count > 0:
        rng = rng_for(sc.seed, 0xC1)
        scatterers += clutter_scatterers(sc.staircase, sc.clutter.count, sc.clutter.reflectivity, rng)
    return tuple(scatterers)


def synthesize_scenario_frame(
    sc: ScenarioConfig,
    trajectory: Trajectory,
    frame_idx: int,
    scene: SceneArrays | None = None,
) -> ChirpCube:
    """One frame's cube, seeded by (scenario seed, frame index).

    :func:`walk_cubes` yields the same cubes: it passes the ``scene``
    columns it built once for the walk.
    """
    return synthesize_frame(
        sc.radar,
        trajectory.frames[frame_idx],
        scenario_scatterers(sc) if scene is None else scene,
        sc.noise,
        seed=_frame_seed(sc.seed, frame_idx),
    )


_CGROUP = Path("/sys/fs/cgroup")


def _usable_cpus() -> int:
    """CPUs this process can run on at once: its affinity, capped by a cgroup CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    quota = _cpu_quota() if cpus > 1 else None
    return cpus if quota is None else max(1, min(cpus, int(quota)))


def _cpu_quota() -> float | None:
    """The CPU quota, in CPUs, of the cgroup at ``_CGROUP``; None if unlimited or unread.

    Reads cgroup v2 ``cpu.max``, else v1 ``cpu.cfs_quota_us`` over
    ``cpu.cfs_period_us``. In a container that mount is its own cgroup.
    """
    try:
        quota, period = (_CGROUP / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (_CGROUP / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (_CGROUP / "cpu" / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return None
    try:
        return int(quota) / int(period) if quota not in ("max", "-1") else None
    except (ValueError, ZeroDivisionError):
        return None


def walk_cubes(sc: ScenarioConfig, trajectory: Trajectory) -> Iterator[ChirpCube]:
    """A walk's cubes in frame order, as :func:`synthesize_scenario_frame` makes them.

    The scene's columns are built once for the walk.
    """
    scene = scene_arrays(scenario_scatterers(sc))
    for i in range(len(trajectory.frames)):
        yield synthesize_scenario_frame(sc, trajectory, i, scene)


def _frame_seed(scenario_seed: int, frame_idx: int) -> int:
    # fold the frame index into a distinct integer stream of the master seed
    return (int(scenario_seed) << 20) ^ (0x9E3779B9 + frame_idx)


def scenario_trajectory(sc: ScenarioConfig) -> Trajectory:
    """The scenario's walk; gait randomness folds in the master seed."""
    attrs = derive_attributes(sc.radar)
    walk = replace(sc.walk, seed=(sc.seed * 0x9E3779B1) + sc.walk.seed)
    return generate_walk(sc.staircase, walk, max_range_m=attrs.max_range_m)


def process_walk(
    sc: ScenarioConfig, cubes: Iterable[ChirpCube]
) -> tuple[list[TargetList], list[Optional[DimensionEstimate]]]:
    """Targets and initial estimates of a walk's wire-exact cubes, taken one at a time.

    Each frame's tilt is its cube's ``meta.gamma_rad``, the IMU reading it was
    synthesized with.
    """
    target_lists, estimates = [], []
    for cube in cubes:
        tl = process_frame(cube, sc.dsp)
        gamma = cube.meta.gamma_rad
        h_r = radar_height(sc.walk.mount_height_m, gamma)
        estimates.append(estimate_initial(tl, gamma, sc.standards, radar_height_m=h_r))
        target_lists.append(tl)
    return target_lists, estimates


def run_scenario(sc: ScenarioConfig) -> ScenarioResult:
    """Synthesize, extract and dimension every frame of the scenario.

    Cubes pass through the float32 wire precision before processing, so the
    in-memory pipeline is bit-identical to a save/load round trip.
    """
    trajectory = scenario_trajectory(sc)
    target_lists, estimates = process_walk(sc, map(quantize_to_wire, walk_cubes(sc, trajectory)))
    return ScenarioResult(
        scenario=sc, trajectory=trajectory, target_lists=target_lists, estimates=estimates
    )


def build_sweep(
    base_seed: int = 0,
    walks_per_combo: int = 10,
    radar: RadarConfig | None = None,
    noise: NoiseConfig | None = None,
    dsp: DspConfig | None = None,
    step_count: int = 4,
) -> list[ScenarioConfig]:
    """The full evaluation grid: 35 dimension combinations x seeded walks.

    Walk k of a combination draws its mount height from the k-th slice of
    [0.40, 0.50] m (ascending strata with seeded jitter), so the last walk
    holds the h_i values the split keeps out of training. Scenario names are
    ``d{depth_cm}h{height_cm}_w{k}``.
    """
    radar = radar or RadarConfig()
    noise = noise or NoiseConfig()
    dsp = dsp or DspConfig()
    scenarios = []
    for d in SWEEP_DEPTHS_M:
        for h in SWEEP_HEIGHTS_M:
            for k in range(walks_per_combo):
                name = f"d{round(d * 100):02d}h{round(h * 100):02d}_w{k}"
                seed = (base_seed * 1_000_003) ^ hash_name(name)
                rng = rng_for(seed, 0x417)
                h_i = 0.40 + (k + rng.uniform(0.0, 0.999)) * 0.10 / walks_per_combo
                scenarios.append(
                    ScenarioConfig(
                        name=name,
                        seed=seed,
                        radar=radar,
                        staircase=StaircaseSpec(depth_m=d, height_m=h, step_count=step_count),
                        walk=WalkConfig(mount_height_m=round(h_i, 4), seed=seed),
                        noise=noise,
                        dsp=dsp,
                    )
                )
    return scenarios


def hash_name(name: str) -> int:
    """Stable small hash for deriving per-scenario seeds (process-independent)."""
    acc = 0
    for ch in name.encode("utf-8"):
        acc = (acc * 131 + ch) % (1 << 30)
    return acc
