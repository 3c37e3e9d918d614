"""Raw chirp-frame synthesis for point-scatterer scenes, plus cube file I/O.

The synthesis model is deliberately compact (stop-and-hop, ideal TDM written
straight into the virtual array, free-space amplitude falloff): for a
scatterer at range r and angle theta off boresight, the sample at fast-time
index s, chirp p and virtual channel a is

    A * exp(j 2 pi (f_beat s T_s + f_dopp p T_ch)) * exp(j pi a sin(theta))

with f_beat = 2 B r / (c T_ch), f_dopp = 2 (v_host_radial + v_r) f_o / c,
T_s = T_ch / N_S and A = reflectivity / max(r, range_resolution). Scatterer
contributions add linearly; receiver noise is complex circular Gaussian with
power set by the configured SNR at the nearest scatterer.

Per radar configuration the fast-time, chirp and antenna axes are built
once; per scene the scatterers' positions, reflectivities and radial
velocities become columns once (:func:`scene_arrays`), which a walk passes
to every frame's :func:`synthesize_frame`. Each frame draws its own noise
from a generator seeded by the frame's seed, so frames are independent of
one another and of the process that synthesizes them (a sweep runs its walks
in several processes; see ``scenario``).

Cube files: little-endian, 64-byte header (magic ``DIMRADC1``, u32 counts
N_S/N_P/N_A, f64 timestamp/gamma/v_host, zero padding), then interleaved
float32 re/im samples ordered s-fastest, then p, then a. Round-trips are
bit-exact; in-memory synthesis keeps complex128 so that linearity holds to
tight tolerances, and the wire format quantizes to complex64. A cube whose
complex64 form is not finite (a part beyond the float32 range, a level set
by ``noise.power``, ``snr_db`` and the reflectivities) is refused by
:func:`save_cube` and :func:`quantize_to_wire` alike, and :func:`load_cube`
refuses a file with a non-finite sample. Each tests the complex64 form once.
:func:`save_cube` rewrites an existing file in place (``codec.rewrite``), so
a file killed mid-rewrite can keep its size and pass :func:`load_cube`.
``stairdim simulate`` guards the walk as a whole: it removes the sidecar
before the first cube and writes it after the last, and removes the stale
frame files of an earlier, longer walk.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .codec import POSITIVE, Bound, check_fields, naming, rewrite
from .numerics import rng_for
from .rf_params import SPEED_OF_LIGHT, RadarConfig, derive_attributes
from .scene import GaitFrame, Scatterer

__all__ = [
    "CUBE_MAGIC",
    "NoiseConfig",
    "FrameMeta",
    "ChirpCube",
    "SceneArrays",
    "scene_arrays",
    "synthesize_frame",
    "quantize_to_wire",
    "save_cube",
    "load_cube",
]

MAX_SNR_DB = 300.0

CUBE_MAGIC = b"DIMRADC1"
_HEADER = struct.Struct("<8sIIIddd20x")
assert _HEADER.size == 64


@dataclass(frozen=True)
class NoiseConfig:
    """Receiver noise model.

    If ``power`` is set it is used directly as the complex noise variance per
    sample. Otherwise ``snr_db`` fixes the per-sample SNR of the nearest
    scatterer's return; with no scatterers (or both fields None) the frame is
    noiseless. ``snr_db`` is limited to +-``MAX_SNR_DB``, beyond which the
    noise variance leaves the float range.
    """

    snr_db: float | None = field(default=20.0, metadata={"check": Bound(-MAX_SNR_DB, MAX_SNR_DB)})
    power: float | None = field(default=None, metadata={"check": POSITIVE})

    def __post_init__(self) -> None:
        check_fields(self)


NOISELESS = NoiseConfig(snr_db=None, power=None)


@dataclass(frozen=True)
class FrameMeta:
    """The per-frame context the DSP needs, as round-tripped by cube files."""

    timestamp_s: float
    gamma_rad: float
    v_host_mps: float


@dataclass(eq=False)
class ChirpCube:
    """One frame of raw returns, shape (N_S, N_P, N_A)."""

    samples: np.ndarray
    config: RadarConfig
    meta: FrameMeta

    def __post_init__(self) -> None:
        # C order whatever the source: reductions over other layouts may sum
        # in another order and change DSP results in the last bit
        self.samples = np.ascontiguousarray(self.samples)
        expected = (
            self.config.samples_per_chirp,
            self.config.chirps_per_frame,
            self.config.virtual_antennas,
        )
        if self.samples.shape != expected:
            raise ValueError(f"cube shape {self.samples.shape} != config shape {expected}")
        if not _finite(self.samples):
            raise ValueError("cube contains non-finite samples")


def _finite(samples: np.ndarray) -> bool:
    """Whether every part of a complex array is finite."""
    # the real view tests both parts in one pass
    return bool(np.isfinite(samples.view(samples.real.dtype)).all())


def _from_wire(wire: np.ndarray, config: RadarConfig, meta: FrameMeta) -> ChirpCube:
    """A cube of complex64 ``wire`` samples of the configured shape, already tested finite.

    The samples are widened to C-ordered complex128 without ChirpCube's own
    checks, which the widened copy of a finite complex64 array cannot fail.
    """
    cube = object.__new__(ChirpCube)
    cube.samples = wire.astype(np.complex128, order="C")
    cube.config, cube.meta = config, meta
    return cube


class SceneArrays(NamedTuple):
    """A scene's scatterers as read-only columns, built once and reused for every frame."""

    x_m: np.ndarray
    y_m: np.ndarray
    reflectivity: np.ndarray
    radial_velocity_mps: np.ndarray


def scene_arrays(scatterers: Sequence[Scatterer]) -> SceneArrays:
    """The columns :func:`synthesize_frame` reads, for a walk to build once."""
    rows = [(sc.x_m, sc.y_m, sc.reflectivity, sc.radial_velocity_mps) for sc in scatterers]
    columns = [np.array(column, dtype=float) for column in zip(*rows)] or [np.zeros(0)] * 4
    for column in columns:
        column.flags.writeable = False
    return SceneArrays(*columns)


@functools.lru_cache(maxsize=8)
def _axes(cfg: RadarConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fast-time and chirp start times and antenna indices as columns; built once, read-only."""
    columns = (
        np.arange(cfg.samples_per_chirp)[:, None] * cfg.sample_interval_s,
        np.arange(cfg.chirps_per_frame)[:, None] * cfg.chirp_duration_s,
        np.arange(cfg.virtual_antennas)[:, None],
    )
    for column in columns:
        column.flags.writeable = False
    return columns


def _sum_over_scatterers(fast: np.ndarray, slow: np.ndarray, aper: np.ndarray) -> np.ndarray:
    """``einsum("sk,pk,ak->spa", ..., optimize=True)``, bit for bit at K >= 2, minus the path search."""
    (n_s, k), n_p, n_a = fast.shape, slow.shape[0], aper.shape[0]
    kap = (aper.T[:, :, None] * slow.T[:, None, :]).transpose(1, 2, 0).reshape(n_a * n_p, k)
    return np.ascontiguousarray((kap @ fast.T).reshape(n_a, n_p, n_s).transpose(2, 1, 0))


def _check_host_speed(v: float, v_res: float) -> None:
    """Refuse a host speed ``v`` at or beyond ``v_res``, one velocity bin: the stationary slice fails."""
    if not abs(v) < v_res:
        raise ValueError(f"host speed {v:.3g} m/s reaches the velocity resolution {v_res:.3g} m/s")


def synthesize_frame(
    cfg: RadarConfig,
    frame: GaitFrame,
    scatterers: Sequence[Scatterer] | SceneArrays,
    noise: NoiseConfig = NOISELESS,
    seed: int = 0,
) -> ChirpCube:
    """Synthesize the raw frame for a scene of point scatterers.

    Geometry comes from the frame pose: range and angle of each scatterer are
    measured from the radar origin, angles relative to the true boresight
    tilt. The host's radial velocity component toward each scatterer adds to
    the scatterer's own radial velocity, so stationary world points appear at
    the (small) host closing speed, below one velocity bin for a walking
    sensor. A walk passes its scene once as :func:`scene_arrays`; the time
    and antenna axes are built once per configuration.

    Raises ValueError for scatterers at or beyond the unambiguous range, at
    zero range, when the host speed reaches the velocity resolution (the
    stationary-slice premise would not hold), or when the noise level that
    ``snr_db`` sets leaves the float range.
    """
    attrs = derive_attributes(cfg)
    _check_host_speed(frame.v_host_mps, attrs.velocity_resolution_mps)
    if not isinstance(scatterers, SceneArrays):
        scatterers = scene_arrays(scatterers)

    nearest_amp = 0.0
    if scatterers.x_m.size:
        s_t, p_t, a_i = _axes(cfg)
        dx = scatterers.x_m - frame.x_m
        dy = scatterers.y_m - frame.y_m
        r = np.hypot(dx, dy)
        ranges = r.tolist()
        if any(v <= 0.0 for v in ranges):
            raise ValueError("scatterer coincides with the radar origin")
        if any(v > attrs.max_range_m for v in ranges):
            worst = float(r.max())
            raise ValueError(
                f"scatterer at {worst:.3g} m beyond unambiguous range "
                f"{attrs.max_range_m:.3g} m"
            )
        theta_true = np.arctan2(dy, dx)
        theta = theta_true - frame.tilt_rad
        v_host_radial = frame.v_host_mps * dx / r
        v_net = v_host_radial + scatterers.radial_velocity_mps

        amp = scatterers.reflectivity / np.maximum(r, attrs.range_resolution_m)
        f_beat = 2.0 * cfg.bandwidth_hz * r / (SPEED_OF_LIGHT * cfg.chirp_duration_s)
        # v (2 f_o) rounds the same real product as (2 v) f_o: doubling is exact
        f_dopp = v_net * (2.0 * cfg.carrier_frequency_hz) / SPEED_OF_LIGHT

        # the broadcast products are np.outer's, one column per scatterer
        fast = np.exp(2j * math.pi * (s_t * f_beat)) * amp  # (N_S, K)
        slow = np.exp(2j * math.pi * (p_t * f_dopp))  # (N_P, K)
        aper = np.exp(1j * math.pi * (a_i * np.sin(theta)))  # (N_A, K)
        cube = _sum_over_scatterers(fast, slow, aper)

        nearest_amp = float(amp[r.argmin()])
    else:
        cube = np.zeros(
            (cfg.samples_per_chirp, cfg.chirps_per_frame, cfg.virtual_antennas), dtype=np.complex128
        )

    sigma2 = 0.0
    if noise.power is not None:
        sigma2 = float(noise.power)
    elif noise.snr_db is not None and nearest_amp > 0.0:
        try:
            sigma2 = nearest_amp**2 / 10.0 ** (noise.snr_db / 10.0)
        except OverflowError:  # the square leaves the float range
            sigma2 = math.inf
        if not math.isfinite(sigma2):
            raise ValueError(
                f"the noise level of snr_db {noise.snr_db:g} at the nearest scatterer's "
                f"amplitude {nearest_amp:.4g} leaves the float range"
            )
    if sigma2 > 0.0:
        # the real, then the imaginary parts: one draw holds both, the stream
        # two draws of the cube's shape would give
        draw = rng_for(seed, 0x01).standard_normal((2, *cube.shape))
        draw *= math.sqrt(sigma2 / 2.0)
        cube.real += draw[0]
        cube.imag += draw[1]

    meta = FrameMeta(frame.timestamp_s, frame.gamma_rad, frame.v_host_mps)
    return ChirpCube(samples=cube, config=cfg, meta=meta)


def _wire_samples(samples: np.ndarray) -> np.ndarray:
    """``samples`` as C-ordered complex64; ValueError if any part leaves the float32 range."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        wire = samples.astype(np.complex64, order="C")
    if not _finite(wire):
        raise ValueError(
            f"cube samples exceed the float32 wire range (+-{np.finfo(np.float32).max:.4g}); "
            "lower noise.power, raise snr_db or lower clutter.reflectivity"
        )
    return wire


def quantize_to_wire(cube: ChirpCube) -> ChirpCube:
    """Pass the samples through the float32 wire precision.

    Processing results are defined over the wire format; running this before
    the DSP makes in-memory pipelines bit-identical to save/load round trips.
    A cube the wire cannot hold raises the same ValueError as :func:`save_cube`.
    """
    return _from_wire(_wire_samples(cube.samples), cube.config, cube.meta)


def save_cube(cube: ChirpCube, path: str | Path) -> None:
    """Write the cube in the binary wire format (bit-exact round trip).

    Raises ValueError, writing nothing, for a cube the float32 wire cannot hold.
    """
    header = _HEADER.pack(
        CUBE_MAGIC,
        cube.config.samples_per_chirp,
        cube.config.chirps_per_frame,
        cube.config.virtual_antennas,
        cube.meta.timestamp_s,
        cube.meta.gamma_rad,
        cube.meta.v_host_mps,
    )
    # file order: s fastest, then p, then a -> contiguous (N_A, N_P, N_S)
    body = _wire_samples(cube.samples.transpose(2, 1, 0))
    with rewrite(path, binary=True) as fh:
        fh.write(header)
        fh.write(body)


def load_cube(path: str | Path, config: RadarConfig) -> ChirpCube:
    """Read a cube file; the chirp configuration comes from the sidecar.

    The header carries only the axis sizes, which are validated against the
    supplied configuration. A file holding a non-finite sample or header
    float, or a host speed that :func:`synthesize_frame` refuses, is refused.
    """
    raw = Path(path).read_bytes()
    with naming(path):
        if len(raw) < _HEADER.size:
            raise ValueError("truncated header")
        magic, n_s, n_p, n_a, t, gamma, v_host = _HEADER.unpack_from(raw)
        if magic != CUBE_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if (n_s, n_p, n_a) != (
            config.samples_per_chirp,
            config.chirps_per_frame,
            config.virtual_antennas,
        ):
            raise ValueError(f"cube axes {(n_s, n_p, n_a)} do not match the configuration")
        for name, value in (("timestamp_s", t), ("gamma_rad", gamma), ("v_host_mps", v_host)):
            if not math.isfinite(value):
                raise ValueError(f"header {name} {value!r} is not finite")
        if not math.isfinite(math.degrees(gamma)):  # the reports give the tilt in degrees
            raise ValueError(f"header gamma_rad {gamma!r} is not finite in degrees")
        _check_host_speed(v_host, derive_attributes(config).velocity_resolution_mps)  # as synthesis does
        expected = _HEADER.size + 8 * n_s * n_p * n_a
        if len(raw) != expected:
            raise ValueError(f"expected {expected} bytes, got {len(raw)}")
        flat = np.frombuffer(raw, dtype=np.complex64, offset=_HEADER.size)
        if not _finite(flat):
            raise ValueError("cube contains non-finite samples")
    return _from_wire(
        flat.reshape(n_a, n_p, n_s).transpose(2, 1, 0),
        config,
        FrameMeta(timestamp_s=t, gamma_rad=gamma, v_host_mps=v_host),
    )
