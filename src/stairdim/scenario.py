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
``run_scenario`` and ``stairdim process --cubes`` share. :func:`walk_cubes`
is the one place that knows the noise helper. It draws frame i+1's normals on
one helper thread, one frame ahead, while the caller works on frame i:
``Generator.standard_normal`` releases the GIL. Each draw comes from the
frame's own seeded generator, built on the calling thread, so every output is
byte-identical to drawing inline. A draw the helper has not begun when its
frame needs it is cancelled and drawn inline, so a helper thread scheduled
late never holds a frame up for a whole draw. The helper starts only when it
can help, with at least two usable CPUs (the affinity mask, capped by a
cgroup CPU quota) and a walk that draws noise (``noise.power`` or
``noise.snr_db`` set: every staircase has a corner); otherwise each frame
draws inline. One ``ThreadPoolExecutor`` serves one walk and is shut down,
its pending draw cancelled and its thread joined, however the caller leaves
the walk.

Each draw hands the GIL between the two threads about twice, and each
hand-off puts a thread to sleep until the OS wakes it. The helper pays off
where those wake-ups take tens of microseconds, as on an otherwise idle
2-CPU host: a walk then takes about 11% less time. Where a thread waits
long to be woken or scheduled (another process busy on the second CPU, or
a virtual machine whose CPUs are being stolen), the hand-offs cost more
than the draw saves. So the helper times itself: when the calling thread
spent more than a fifth of its CPU time off CPU over a walk, the walks after
it draw inline, one walk after the first such walk and twice as many after
each further one, up to 16; a walk whose helper paid off resets that count.
The outputs never depend on any of this.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .chirp_sim import (
    ChirpCube,
    NoiseConfig,
    SceneArrays,
    noise_draw,
    noise_rng,
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
    draw: np.ndarray | None = None,
) -> ChirpCube:
    """One frame's cube, seeded by (scenario seed, frame index).

    :func:`walk_cubes` yields the same cubes: it passes the ``scene``
    columns it built once for the walk, and the ``draw`` its helper made.
    """
    return synthesize_frame(
        sc.radar,
        trajectory.frames[frame_idx],
        scenario_scatterers(sc) if scene is None else scene,
        sc.noise,
        seed=_frame_seed(sc.seed, frame_idx),
        draw=draw,
    )


_CGROUP = Path("/sys/fs/cgroup")
# the calling thread's time off CPU during a walk with the noise helper, as a
# share of its CPU time, above which the helper cost more than it saved
_OFF_CPU_LIMIT = 0.2
# the most walks that draw inline after such a walk
_MAX_SKIP = 16


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


class _Backoff:
    """How many walks draw inline after a walk whose helper was too slow.

    One after the first slow walk, then twice as many after each further
    one, up to ``_MAX_SKIP``. A walk whose helper paid off resets the count.
    The walks skipped start no thread and hand nothing off while the host
    stays slow to wake threads, and the walks tried now and then notice
    when it is quick again. Walks on several threads share one count
    without a lock: a lost update changes only when a helper runs, never an
    output.
    """

    def __init__(self) -> None:
        self.skip, self.wait = 0, 1

    def allows(self) -> bool:
        if self.skip:
            self.skip -= 1
            return False
        return True

    def record(self, slow: bool) -> None:
        if slow:
            self.skip, self.wait = self.wait, min(2 * self.wait, _MAX_SKIP)
        else:
            self.wait = 1


_backoff = _Backoff()


@contextlib.contextmanager
def walk_cubes(sc: ScenarioConfig, trajectory: Trajectory) -> Iterator[Iterator[ChirpCube]]:
    """A walk's cubes in frame order, as :func:`synthesize_scenario_frame` makes them.

    Used as ``with walk_cubes(sc, trajectory) as cubes:``. With the noise
    helper, each frame's draw was made while the caller worked on the frame
    before; the first frame, a frame whose draw the helper had not begun,
    and every frame of a walk without the helper draw inline. The helper's
    cost is timed from the second frame to the last: above
    ``_OFF_CPU_LIMIT`` of the calling thread's CPU time spent off CPU, the
    next walks draw inline (see :class:`_Backoff`). At the last frame the
    pool is shut down without waiting, so its thread exits while the caller
    works and the final join waits for no wake-up.
    """
    scene = scene_arrays(scenario_scatterers(sc))
    n_frames = len(trajectory.frames)

    def cube(i: int, draw: np.ndarray | None = None) -> ChirpCube:
        return synthesize_scenario_frame(sc, trajectory, i, scene, draw)

    if (
        (sc.noise.power is None and sc.noise.snr_db is None)
        or _usable_cpus() < 2
        or not _backoff.allows()
    ):
        yield map(cube, range(n_frames))
        return
    pool = ThreadPoolExecutor(max_workers=1)

    def ahead():
        pending = None
        for i in range(n_frames):
            # a draw the helper has not begun is drawn inline instead of waited for
            ready = pending if pending is not None and not pending.cancel() else None
            pending = None
            if i == 1:  # the helper thread has started: the hand-offs are timed from here
                wall0, cpu0 = time.perf_counter(), time.thread_time()
            if i + 1 < n_frames:
                # the generator is built here: the helper then holds the GIL only briefly
                pending = pool.submit(noise_draw, sc.radar, noise_rng(_frame_seed(sc.seed, i + 1)))
            else:
                # no draw follows: the thread exits while the caller works, not at the join
                pool.shutdown(wait=False)
                if i > 1:
                    cpu = time.thread_time() - cpu0
                    _backoff.record(slow=time.perf_counter() - wall0 - cpu > _OFF_CPU_LIMIT * cpu)
            yield cube(i, ready.result() if ready else None)

    try:
        yield ahead()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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
    with walk_cubes(sc, trajectory) as cubes:
        target_lists, estimates = process_walk(sc, map(quantize_to_wire, cubes))
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
