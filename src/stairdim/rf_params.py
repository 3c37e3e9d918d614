"""FMCW radar parametrization and its derived resolution attributes.

The chirp configuration fixes everything the rest of the pipeline needs to
know about the waveform: range resolution and maximum unambiguous range from
the sweep bandwidth, velocity resolution from the frame's chirp train, and
angular resolution from the virtual aperture.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

from .codec import POSITIVE, Bound, check_fields

#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299_792_458.0

#: Most complex samples one frame's cube may hold (16 MiB at complex128).
MAX_CUBE_SAMPLES = 2**20

__all__ = ["RadarConfig", "DerivedAttributes", "derive_attributes", "SPEED_OF_LIGHT"]


@dataclass(frozen=True)
class RadarConfig:
    """Chirp and array configuration of the sensor.

    Attributes:
        carrier_frequency_hz: RF carrier at the start of the sweep.
        bandwidth_hz: swept bandwidth per chirp.
        chirp_duration_s: duration of one chirp (fast-time window).
        samples_per_chirp: ADC samples per chirp.
        chirps_per_frame: chirps forming one frame (slow-time length).
        tx_count: physical transmit antennas.
        rx_count: physical receive antennas.
    """

    carrier_frequency_hz: float = field(default=77.0e9, metadata={"check": POSITIVE})
    bandwidth_hz: float = field(default=3.6e9, metadata={"check": POSITIVE})
    chirp_duration_s: float = field(default=64.0e-6, metadata={"check": POSITIVE})
    samples_per_chirp: int = field(default=144, metadata={"check": Bound(1)})
    chirps_per_frame: int = field(default=8, metadata={"check": Bound(1)})
    tx_count: int = field(default=2, metadata={"check": Bound(1)})
    rx_count: int = field(default=4, metadata={"check": Bound(1)})

    def __post_init__(self) -> None:
        check_fields(self)
        size = self.samples_per_chirp * self.chirps_per_frame * self.virtual_antennas
        if size > MAX_CUBE_SAMPLES:
            raise ValueError(
                f"a cube of {size} samples (samples_per_chirp x chirps_per_frame x virtual "
                f"antennas) exceeds the limit of {MAX_CUBE_SAMPLES}"
            )
        try:
            derived = asdict(derive_attributes(self))
        except ZeroDivisionError:  # f_o T_ch N_P below the float range
            derived = {"velocity_resolution_mps": math.inf}
        derived["chirp_slope_hz_per_s"] = self.bandwidth_hz / self.chirp_duration_s
        derived["sample_interval_s"] = self.sample_interval_s
        for name, value in derived.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"the derived {name} must be finite and > 0, got {value!r}")

    @property
    def virtual_antennas(self) -> int:
        """Size of the TDM virtual array."""
        return self.tx_count * self.rx_count

    @property
    def sample_interval_s(self) -> float:
        """Fast-time sample spacing T_s."""
        return self.chirp_duration_s / self.samples_per_chirp


@dataclass(frozen=True)
class DerivedAttributes:
    """Resolution/ambiguity attributes derived from a RadarConfig."""

    range_resolution_m: float
    max_range_m: float
    velocity_resolution_mps: float
    angular_resolution_rad: float
    wavelength_m: float
    virtual_antennas: int


@functools.lru_cache(maxsize=16)
def derive_attributes(cfg: RadarConfig) -> DerivedAttributes:
    """Derive resolution attributes from the chirp configuration.

    Built once per configuration (the result is frozen), since synthesis and
    the DSP chain read them every frame.

    range resolution  c / (2 B)
    max range         N_S * range resolution
    velocity res.     c / (2 f_o T_ch N_P)
    angular res.      1.78 / N_A  (radians, half-wavelength uniform array)
    """
    r_res = SPEED_OF_LIGHT / (2.0 * cfg.bandwidth_hz)
    r_max = cfg.samples_per_chirp * r_res
    v_res = SPEED_OF_LIGHT / (
        2.0 * cfg.carrier_frequency_hz * cfg.chirp_duration_s * cfg.chirps_per_frame
    )
    n_virtual = cfg.virtual_antennas
    alpha_res = 1.78 / n_virtual
    return DerivedAttributes(
        range_resolution_m=r_res,
        max_range_m=r_max,
        velocity_resolution_mps=v_res,
        angular_resolution_rad=alpha_res,
        wavelength_m=SPEED_OF_LIGHT / cfg.carrier_frequency_hz,
        virtual_antennas=n_virtual,
    )

