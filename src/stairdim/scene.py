"""Parametric staircase scenes and the walking sensor trajectory.

World frame: x points horizontally toward the staircase, y points up, the
floor is y = 0, and the staircase foot is the origin. A staircase with tread
depth d and riser height h rising away from the sensor puts its k-th convex
step corner at

    (k * d,  (k + 1) * h),   k = 0 .. step_count - 1.

The sensor walks in from negative x. Only radar-relative geometry reaches the
pipeline, so a shift of the whole scene along x would change nothing.

The sensor is shin-mounted at height ``mount_height`` (h_i) and tilted
``mount_tilt`` below the horizon (-20 deg by default). During a walk the true
boresight tilt sways sinusoidally around the mount tilt; the IMU reports that
tilt with additive Gaussian noise. The radar origin height follows
``h_i * cos(tilt - mount_tilt_default)`` so that at the default -20 deg mount
it equals h_i * cos(gamma + 20 deg). :func:`radar_height` applies the same
rotation to the IMU's gamma, which is what the processing side knows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import rng_for

__all__ = [
    "StaircaseSpec",
    "WalkConfig",
    "GaitFrame",
    "Trajectory",
    "Scatterer",
    "corners_of",
    "corner_scatterers",
    "clutter_scatterers",
    "generate_walk",
    "radar_height",
]

_MOUNT_TILT_DEFAULT_RAD = math.radians(-20.0)

#: Most frames one walk may span (duration_s * rate_hz).
MAX_WALK_FRAMES = 100_000


def radar_height(h_i_m: float, gamma_rad: float) -> float:
    """Radar height above floor from the mount height and inclination.

    h_r = h_i * cos(gamma + 20 deg): at the -20 deg mount tilt the neutral
    stance gives h_r = h_i exactly.
    """
    if not (math.isfinite(h_i_m) and h_i_m > 0.0):
        raise ValueError(f"mount height must be positive, got {h_i_m!r}")
    return h_i_m * math.cos(gamma_rad - _MOUNT_TILT_DEFAULT_RAD)


@dataclass(frozen=True)
class StaircaseSpec:
    """Geometry of an ascending staircase (meters), its foot at the world origin."""

    depth_m: float = field(default=0.30, metadata={"required": True})
    height_m: float = field(default=0.15, metadata={"required": True})
    step_count: int = field(default=4, metadata={"required": True})

    def __post_init__(self) -> None:
        if not (math.isfinite(self.depth_m) and self.depth_m > 0):
            raise ValueError(f"depth_m must be positive, got {self.depth_m!r}")
        if not (math.isfinite(self.height_m) and self.height_m > 0):
            raise ValueError(f"height_m must be positive, got {self.height_m!r}")
        if self.step_count < 1 or int(self.step_count) != self.step_count:
            raise ValueError(f"step_count must be a positive integer, got {self.step_count!r}")
        # here, not in corners_of, so that a cube run's sidecar refuses it too
        if not all(map(math.isfinite, _farthest_corner(self))):
            raise ValueError(
                f"staircase of {self.step_count} steps of {self.depth_m!r} x {self.height_m!r} m: "
                "its farthest corner leaves the float range"
            )


def _farthest_corner(spec: StaircaseSpec) -> tuple[float, float]:
    """``corners_of(spec)[-1]``, without building the others; inf beyond the float range."""
    try:
        return (spec.step_count - 1) * spec.depth_m, spec.step_count * spec.height_m
    except OverflowError:  # a step count beyond the float range
        return math.inf, math.inf


def corners_of(spec: StaircaseSpec) -> np.ndarray:
    """World (x, y) positions of the convex step corners, shape (step_count, 2).

    Corner k sits at the front edge of tread k: x = k * depth,
    y = (k + 1) * height. Ascending in both coordinates.
    """
    k = np.arange(spec.step_count, dtype=float)
    return np.column_stack((k * spec.depth_m, (k + 1.0) * spec.height_m))


@dataclass(frozen=True)
class WalkConfig:
    """Walk of the sensor toward the staircase foot.

    Angles are radians internally; files hold them in degrees under _deg
    keys. ``mount_height_m`` is h_i, the shin attachment height.
    """

    start_standoff_m: float = 4.0
    end_standoff_m: float = 0.5
    duration_s: float = 5.0
    rate_hz: float = 10.0
    mount_height_m: float = 0.45
    mount_tilt_rad: float = _MOUNT_TILT_DEFAULT_RAD
    sway_amplitude_rad: float = math.radians(10.0)
    sway_frequency_hz: float = 1.0
    sway_noise_sigma_rad: float = math.radians(1.0)
    imu_noise_sigma_rad: float = math.radians(0.5)
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                key = f.name[: -len("_rad")] + "_deg" if f.name.endswith("_rad") else f.name
                raise ValueError(f"walk.{key} must be finite, got {value!r}")
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz!r}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s!r}")
        if self.duration_s * self.rate_hz > MAX_WALK_FRAMES:
            raise ValueError(
                f"a walk of duration_s x rate_hz = {self.duration_s * self.rate_hz:g} frames "
                f"exceeds the limit of {MAX_WALK_FRAMES}"
            )
        if self.mount_height_m <= 0:
            raise ValueError(f"mount_height_m must be positive, got {self.mount_height_m!r}")
        if self.end_standoff_m <= 0 or self.start_standoff_m < self.end_standoff_m:
            raise ValueError(
                "standoffs must satisfy start >= end > 0, got "
                f"{self.start_standoff_m!r} -> {self.end_standoff_m!r}"
            )
        for name in ("sway_noise_sigma_rad", "imu_noise_sigma_rad"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        # generate_walk's sway phase and host speed at the last frame, here so
        # that a cube run's sidecar refuses them too
        n = round(self.duration_s * self.rate_hz)
        t_end = (n - 1) / self.rate_hz
        if n >= 2 and not math.isfinite(2.0 * math.pi * self.sway_frequency_hz * t_end):
            raise ValueError(f"walk.sway_frequency_hz {self.sway_frequency_hz!r}: sway phase overflows")
        if n >= 2 and not math.isfinite((self.start_standoff_m - self.end_standoff_m) / t_end):
            raise ValueError(f"walk standoffs over {t_end!r} s: host speed overflows")


@dataclass(frozen=True)
class GaitFrame:
    """Sensor state at one acquisition instant.

    ``tilt_rad`` is the true boresight angle from horizontal (negative means
    pointing below the horizon) and drives the synthesized geometry;
    ``gamma_rad`` is the IMU-reported tilt, i.e. what the processing side is
    allowed to know. ``v_host_mps`` is the horizontal walking speed along +x.
    """

    timestamp_s: float
    x_m: float
    y_m: float
    tilt_rad: float
    gamma_rad: float
    v_host_mps: float


@dataclass(frozen=True)
class Trajectory:
    frames: tuple[GaitFrame, ...]
    walk: WalkConfig
    staircase: StaircaseSpec


@dataclass(frozen=True)
class Scatterer:
    """Point scatterer in world coordinates.

    ``radial_velocity_mps`` is the scatterer's own line-of-sight velocity
    relative to a stationary world (positive closing); the host's radial
    velocity is added on top during synthesis. ``reflectivity`` must be
    finite and >= 0, as ``clutter.reflectivity`` must.
    """

    x_m: float
    y_m: float
    reflectivity: float = 1.0
    radial_velocity_mps: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reflectivity) and self.reflectivity >= 0.0):
            raise ValueError(
                f"scatterer at ({self.x_m!r}, {self.y_m!r}) m: reflectivity must be "
                f"finite and >= 0, got {self.reflectivity!r}"
            )


def corner_scatterers(spec: StaircaseSpec, reflectivity: float = 1.0) -> list[Scatterer]:
    """Step corners as unit-class point scatterers (dominant stair returns)."""
    return [Scatterer(x, y, reflectivity, 0.0) for x, y in corners_of(spec)]


def clutter_scatterers(
    spec: StaircaseSpec,
    count: int,
    reflectivity: float,
    rng: np.random.Generator,
) -> list[Scatterer]:
    """Weak stationary clutter points scattered over treads and risers."""
    out: list[Scatterer] = []
    for _ in range(count):
        k = int(rng.integers(0, spec.step_count))
        x0 = k * spec.depth_m
        y_top = (k + 1) * spec.height_m
        if rng.random() < 0.5:
            # on the tread behind corner k
            out.append(Scatterer(x0 + rng.random() * spec.depth_m, y_top, reflectivity, 0.0))
        else:
            # on the riser below corner k
            out.append(Scatterer(x0, y_top - rng.random() * spec.height_m, reflectivity, 0.0))
    return out


def generate_walk(
    spec: StaircaseSpec,
    cfg: WalkConfig,
    max_range_m: float | None = None,
) -> Trajectory:
    """Sample the walk into gait frames.

    The sensor advances at constant speed from x = -start_standoff to
    x = -end_standoff over the walk duration. The true tilt is

        mount_tilt + A * sin(2 pi f t + phi0) + gait noise

    with a seeded random initial phase phi0; the IMU-reported gamma adds
    independent Gaussian noise on top. Host velocity is the forward finite
    difference of x (the last frame repeats the previous value).

    Args:
        spec: staircase the walk approaches.
        cfg: walk parameters (seeded).
        max_range_m: optional sanity bound, rejects walks whose farthest
            corner would start beyond the radar's unambiguous range.
    """
    n = int(round(cfg.duration_s * cfg.rate_hz))
    if n < 2:
        raise ValueError(f"walk must span at least 2 frames, got {n}")
    x0 = -cfg.start_standoff_m
    x1 = -cfg.end_standoff_m
    if max_range_m is not None:
        far = _farthest_corner(spec)
        reach = math.hypot(far[0] - x0, far[1])
        if reach > max_range_m:
            raise ValueError(
                f"farthest corner at {reach:.2f} m exceeds max range {max_range_m:.2f} m "
                "at the starting standoff"
            )

    rng = rng_for(cfg.seed, 0x5CE)
    phi0 = rng.uniform(0.0, 2.0 * math.pi)
    gait_noise = rng.normal(0.0, cfg.sway_noise_sigma_rad, size=n)
    imu_noise = rng.normal(0.0, cfg.imu_noise_sigma_rad, size=n)

    t = np.arange(n) / cfg.rate_hz
    x = x0 + (x1 - x0) * (np.arange(n) / (n - 1))
    tilt = (
        cfg.mount_tilt_rad
        + cfg.sway_amplitude_rad * np.sin(2.0 * math.pi * cfg.sway_frequency_hz * t + phi0)
        + gait_noise
    )
    gamma = tilt + imu_noise
    # height of the sensor above floor follows the shin rotation around the
    # mount: h_i at the neutral tilt, shrinking as the shin leaves neutral
    y = cfg.mount_height_m * np.cos(tilt - _MOUNT_TILT_DEFAULT_RAD)
    v = np.empty(n)
    v[:-1] = np.diff(x) * cfg.rate_hz
    v[-1] = v[-2]

    frames = tuple(
        GaitFrame(
            timestamp_s=float(t[i]),
            x_m=float(x[i]),
            y_m=float(y[i]),
            tilt_rad=float(tilt[i]),
            gamma_rad=float(gamma[i]),
            v_host_mps=float(v[i]),
        )
        for i in range(n)
    )
    return Trajectory(frames=frames, walk=cfg, staircase=spec)

