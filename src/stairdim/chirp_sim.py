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

Cube files: little-endian, 64-byte header (magic ``DIMRADC1``, u32 counts
N_S/N_P/N_A, f64 timestamp/gamma/v_host, zero padding), then interleaved
float32 re/im samples ordered s-fastest, then p, then a. Round-trips are
bit-exact; in-memory synthesis keeps complex128 so that linearity holds to
tight tolerances, and the wire format quantizes to complex64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .numerics import rng_for
from .rf_params import SPEED_OF_LIGHT, RadarConfig, derive_attributes
from .scene import GaitFrame, Scatterer

__all__ = [
    "CUBE_MAGIC",
    "NoiseConfig",
    "FrameMeta",
    "ChirpCube",
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

    snr_db: float | None = 20.0
    power: float | None = None

    def __post_init__(self) -> None:
        if self.snr_db is not None and not abs(self.snr_db) <= MAX_SNR_DB:
            raise ValueError(f"snr_db must be within +-{MAX_SNR_DB:g} dB, got {self.snr_db!r}")
        if self.power is not None and not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"noise power must be positive and finite, got {self.power!r}")


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
        if not np.isfinite(self.samples).all():
            raise ValueError("cube contains non-finite samples")


def _sum_over_scatterers(fast: np.ndarray, slow: np.ndarray, aper: np.ndarray) -> np.ndarray:
    """``einsum("sk,pk,ak->spa", ..., optimize=True)``, bit for bit at K >= 2, minus the path search."""
    (n_s, k), n_p, n_a = fast.shape, slow.shape[0], aper.shape[0]
    kap = (aper.T[:, :, None] * slow.T[:, None, :]).transpose(1, 2, 0).reshape(n_a * n_p, k)
    return np.ascontiguousarray((kap @ fast.T).reshape(n_a, n_p, n_s).transpose(2, 1, 0))


def synthesize_frame(
    cfg: RadarConfig,
    frame: GaitFrame,
    scatterers: Sequence[Scatterer],
    noise: NoiseConfig = NOISELESS,
    seed: int = 0,
) -> ChirpCube:
    """Synthesize the raw frame for a scene of point scatterers.

    Geometry comes from the frame pose: range and angle of each scatterer are
    measured from the radar origin, angles relative to the true boresight
    tilt. The host's radial velocity component toward each scatterer adds to
    the scatterer's own radial velocity, so stationary world points appear at
    the (small) host closing speed, below one velocity bin for a walking
    sensor.

    Raises ValueError for scatterers at or beyond the unambiguous range, at
    zero range, or when the host speed reaches the velocity resolution
    (the stationary-slice premise would not hold).
    """
    attrs = derive_attributes(cfg)
    if abs(frame.v_host_mps) >= attrs.velocity_resolution_mps:
        raise ValueError(
            f"host speed {frame.v_host_mps:.2f} m/s reaches the velocity "
            f"resolution {attrs.velocity_resolution_mps:.2f} m/s"
        )

    n_s = cfg.samples_per_chirp
    n_p = cfg.chirps_per_frame
    n_a = cfg.virtual_antennas

    nearest_amp = 0.0
    if scatterers:
        dx = np.array([sc.x_m - frame.x_m for sc in scatterers])
        dy = np.array([sc.y_m - frame.y_m for sc in scatterers])
        r = np.hypot(dx, dy)
        if np.any(r <= 0.0):
            raise ValueError("scatterer coincides with the radar origin")
        if np.any(r > attrs.max_range_m):
            worst = float(r.max())
            raise ValueError(
                f"scatterer at {worst:.2f} m beyond unambiguous range "
                f"{attrs.max_range_m:.2f} m"
            )
        theta_true = np.arctan2(dy, dx)
        theta = theta_true - frame.tilt_rad
        v_host_radial = frame.v_host_mps * dx / r
        v_net = v_host_radial + np.array([sc.radial_velocity_mps for sc in scatterers])

        amp = np.array([sc.reflectivity for sc in scatterers]) / np.maximum(
            r, attrs.range_resolution_m
        )
        f_beat = 2.0 * cfg.bandwidth_hz * r / (SPEED_OF_LIGHT * cfg.chirp_duration_s)
        f_dopp = 2.0 * v_net * cfg.carrier_frequency_hz / SPEED_OF_LIGHT

        s_t = np.arange(n_s) * cfg.sample_interval_s
        p_t = np.arange(n_p) * cfg.chirp_duration_s
        a_i = np.arange(n_a)
        fast = np.exp(2j * math.pi * np.outer(s_t, f_beat)) * amp  # (N_S, K)
        slow = np.exp(2j * math.pi * np.outer(p_t, f_dopp))  # (N_P, K)
        aper = np.exp(1j * math.pi * np.outer(a_i, np.sin(theta)))  # (N_A, K)
        cube = _sum_over_scatterers(fast, slow, aper)

        nearest_amp = float(amp[np.argmin(r)])
    else:
        cube = np.zeros((n_s, n_p, n_a), dtype=np.complex128)

    sigma2 = 0.0
    if noise.power is not None:
        sigma2 = float(noise.power)
    elif noise.snr_db is not None and nearest_amp > 0.0:
        sigma2 = nearest_amp**2 / 10.0 ** (noise.snr_db / 10.0)
    if sigma2 > 0.0:
        # one draw holds the real then the imaginary parts, the stream two
        # draws of the cube's shape would give
        draw = rng_for(seed, 0x01).standard_normal((2,) + cube.shape)
        draw *= math.sqrt(sigma2 / 2.0)
        cube.real += draw[0]
        cube.imag += draw[1]

    meta = FrameMeta(
        timestamp_s=frame.timestamp_s,
        gamma_rad=frame.gamma_rad,
        v_host_mps=frame.v_host_mps,
    )
    return ChirpCube(samples=cube, config=cfg, meta=meta)


def quantize_to_wire(cube: ChirpCube) -> ChirpCube:
    """Pass the samples through the float32 wire precision.

    Processing results are defined over the wire format; running this before
    the DSP makes in-memory pipelines bit-identical to save/load round trips.
    """
    samples = cube.samples.astype(np.complex64).astype(np.complex128)
    return ChirpCube(samples=samples, config=cube.config, meta=cube.meta)


def save_cube(cube: ChirpCube, path: str | Path) -> None:
    """Write the cube in the binary wire format (bit-exact round trip)."""
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
    body = cube.samples.transpose(2, 1, 0).astype(np.complex64, order="C").tobytes()
    Path(path).write_bytes(header + body)


def load_cube(path: str | Path, config: RadarConfig) -> ChirpCube:
    """Read a cube file; the chirp configuration comes from the sidecar.

    The header carries only the axis sizes, which are validated against the
    supplied configuration.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, n_s, n_p, n_a, t, gamma, v_host = _HEADER.unpack_from(raw)
    if magic != CUBE_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if (n_s, n_p, n_a) != (
        config.samples_per_chirp,
        config.chirps_per_frame,
        config.virtual_antennas,
    ):
        raise ValueError(
            f"{path}: cube axes {(n_s, n_p, n_a)} do not match the configuration"
        )
    expected = _HEADER.size + 8 * n_s * n_p * n_a
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    flat = np.frombuffer(raw, dtype=np.complex64, offset=_HEADER.size)
    # widened straight into C order, so ChirpCube need not copy it again
    samples = flat.reshape(n_a, n_p, n_s).transpose(2, 1, 0).astype(np.complex128, order="C")
    return ChirpCube(
        samples=samples,
        config=config,
        meta=FrameMeta(timestamp_s=t, gamma_rad=gamma, v_host_mps=v_host),
    )
