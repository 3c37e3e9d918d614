"""Target-list extraction: 2D FFT, stationary slice, CA-CFAR, selective AoA.

Stage order for one frame:

1. Range FFT over fast time (Hann window, native length, so bin k sits at
   k * r_res) and Doppler FFT over the chirp index (no weighting). No FFT
   shift is applied on either axis: Doppler bin 0 is the zero-velocity bin,
   and bin p maps to p * v_res for p < N_P/2 and (p - N_P) * v_res above.
2. The Doppler-bin-0 plane is the stationary slice, computed alone as the
   range FFT of the chirp sum (the full cube is built only on request). A
   walking host stays below one velocity bin, so stationary world scatterers
   land here while anything with |net radial velocity| >= v_res does not.
3. Magnitudes are accumulated (summed) across the virtual channels into a
   single range profile, and CA-CFAR picks the target range bins.
4. For the detected range bins only, one AoA FFT across the channels
   (no weighting, zero-padded to 64 bins) gives each bin's angular
   power profile as a row of one batch; a second CA-CFAR along the rows
   yields each range's angles. Centered bin b maps to theta = arcsin(2 b /
   fft_len). Exhaustive AoA runs the batch over every bin and masks it.
5. Every entry also carries sub-bin positions of its peaks: a three-point
   parabola through the range peak of the accumulated profile and through
   each angle peak of the angular power profile. The reported range and
   angles stay on the bin grid (unless ``peak_interp`` refines the range);
   the sub-bin values are what the error enhancer measures a corner pair by.

CFAR thresholds are alpha * (mean of training cells), guard cells excluded,
with one-sided fallback at the profile edges; alpha always derives from the
false-alarm probability, using the number of training cells actually
available for that cell. Detection requires strictly exceeding the
threshold. The pipeline additionally keeps only detections that are local
maxima of their profile, since windowed (range) and zero-padded (AoA)
spectra exceed the threshold across a target's whole mainlobe.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import numerics
from .chirp_sim import ChirpCube, FrameMeta
from .rf_params import RadarConfig, derive_attributes

__all__ = [
    "CfarConfig",
    "DspConfig",
    "RangeDopplerCube",
    "StationarySlice",
    "TargetEntry",
    "TargetList",
    "stationary_slice",
    "range_doppler_transform",
    "extract_stationary_slice",
    "accumulate_range_profile",
    "cfar_detect",
    "local_maxima",
    "aoa_on_targets",
    "process_frame",
    "target_list_to_json",
    "write_target_lists",
]


@dataclass(frozen=True)
class CfarConfig:
    """Cell-averaging CFAR parameters (per side counts).

    The false-alarm probability ``pfa`` sets the threshold factor:
    alpha = N_t (pfa^(-1/N_t) - 1) for the N_t training cells available at
    each cell.
    """

    training_cells: int = 8
    guard_cells: int = 2
    pfa: float = 1.0e-3

    def __post_init__(self) -> None:
        if self.training_cells < 1:
            raise ValueError(f"training_cells must be >= 1, got {self.training_cells}")
        if self.guard_cells < 0:
            raise ValueError(f"guard_cells must be >= 0, got {self.guard_cells}")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError(f"pfa must be in (0, 1), got {self.pfa}")


# Window sizing is driven by the scene geometry, not by noise statistics.
# Range axis: adjacent stair corners sit only ~6-9 native bins apart, and the
# Hann mainlobe of a neighbour reaches to within ~4.2 bins of the cell under
# test at the narrowest tread.  Training cells past +-4 therefore average
# neighbour energy into the noise estimate and mask every corner at once, so
# the range window stops at +-4 (guard 2, training 2 per side).
# AoA axis: the guard must clear the 8-channel Dirichlet mainlobe (nulls at
# +-fft_len/N_A = 8 bins, negligible past +-6 at the default padding), or the
# target's own mainlobe lands in the training window and masks everything.
# Training then stays short: two equal targets one beamwidth apart in sin
# space sit ~14 bins from each other, so cells past +-9 average the second
# mainlobe into the noise estimate and mask both members of the pair.
#: Longest AoA FFT, and most cells of one frame's AoA spectra (range bins x
#: AoA FFT length, about 100 MB as complex spectra plus their power).
MAX_AOA_FFT_LEN = 4096
MAX_AOA_CELLS = 2**22

DEFAULT_RANGE_CFAR = CfarConfig(training_cells=2, guard_cells=2, pfa=1.0e-3)
DEFAULT_AOA_CFAR = CfarConfig(training_cells=3, guard_cells=6, pfa=1.0e-3)


@dataclass(frozen=True)
class DspConfig:
    """Knobs of the extraction chain. Defaults reproduce the reference setup.

    The weighting is fixed: Hann on the range axis, none on the Doppler and
    angle axes.
    """

    aoa_fft_len: int = 64
    range_cfar: CfarConfig = field(default_factory=lambda: DEFAULT_RANGE_CFAR)
    aoa_cfar: CfarConfig = field(default_factory=lambda: DEFAULT_AOA_CFAR)
    peak_interp: bool = False
    exhaustive_aoa: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.aoa_fft_len <= MAX_AOA_FFT_LEN:
            raise ValueError(
                f"aoa_fft_len must be in [1, {MAX_AOA_FFT_LEN}], got {self.aoa_fft_len}"
            )

    def with_pfa(self, pfa: float) -> "DspConfig":
        """Both CFAR stages re-pinned to a common false-alarm probability."""
        return replace(
            self,
            range_cfar=replace(self.range_cfar, pfa=pfa),
            aoa_cfar=replace(self.aoa_cfar, pfa=pfa),
        )


@dataclass(eq=False)
class RangeDopplerCube:
    """Range/Doppler spectra per channel, shape (range_bins, N_P, N_A)."""

    samples: np.ndarray
    range_bin_m: float
    velocity_bin_mps: float
    config: RadarConfig
    meta: FrameMeta


@dataclass(eq=False)
class StationarySlice:
    """Zero-velocity plane of the range/Doppler cube, shape (range_bins, N_A)."""

    samples: np.ndarray
    range_bin_m: float
    config: RadarConfig
    meta: FrameMeta


@dataclass(frozen=True)
class TargetEntry:
    """One detected range with its angles (radians, boresight-relative).

    ``fine_range_m`` and ``fine_angles_rad`` are the sub-bin peak positions
    behind ``range_m`` and ``angles_rad`` (same order). An entry built
    without them, e.g. from exact coordinates, takes the reported values.
    """

    range_m: float
    angles_rad: tuple[float, ...]
    magnitude: float
    fine_range_m: float | None = None
    fine_angles_rad: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.fine_range_m is None:
            object.__setattr__(self, "fine_range_m", self.range_m)
        if self.fine_angles_rad is None:
            object.__setattr__(self, "fine_angles_rad", self.angles_rad)
        if len(self.fine_angles_rad) != len(self.angles_rad):
            raise ValueError("fine_angles_rad must match angles_rad in length")


@dataclass(frozen=True)
class TargetList:
    """Frame detections, entries sorted by ascending range."""

    entries: tuple[TargetEntry, ...]
    gamma_rad: float
    timestamp_s: float


def stationary_slice(cube: ChirpCube) -> StationarySlice:
    """Doppler bin 0 without the full cube: the windowed range FFT of the chirp sum."""
    c = cube.config
    # the matmul with ones is an exact sum, faster than .sum(axis=1)
    chirp_sum = np.ones(c.chirps_per_frame) @ cube.samples  # (N_S, N_A)
    w = numerics.window(c.samples_per_chirp)
    spectra = numerics.fft(w[:, None] * chirp_sum, axis=0)
    return StationarySlice(spectra, derive_attributes(c).range_resolution_m, c, cube.meta)


def range_doppler_transform(cube: ChirpCube, cfg: DspConfig | None = None) -> RangeDopplerCube:
    """Windowed range FFT then Doppler FFT per channel; shape is preserved.

    Both transforms run at their native lengths, so range bin k sits at
    k * r_res and Doppler bin q at q * v_res (bin 0 = stationary, written
    from :func:`stationary_slice`, so the two agree bit for bit). The
    weighting is fixed, so ``cfg`` changes nothing; it is accepted so that
    callers passing the chain's config keep working.
    """
    attrs = derive_attributes(cube.config)
    w = numerics.window(cube.config.samples_per_chirp)
    spectra = numerics.fft(numerics.fft(cube.samples * w[:, None, None], axis=0), axis=1)
    spectra[:, 0, :] = stationary_slice(cube).samples
    return RangeDopplerCube(
        samples=spectra,
        range_bin_m=attrs.range_resolution_m,
        velocity_bin_mps=attrs.velocity_resolution_mps,
        config=cube.config,
        meta=cube.meta,
    )


def extract_stationary_slice(rd: RangeDopplerCube) -> StationarySlice:
    """Doppler bin 0: everything (host-relative) slower than one velocity bin."""
    return StationarySlice(
        samples=rd.samples[:, 0, :],
        range_bin_m=rd.range_bin_m,
        config=rd.config,
        meta=rd.meta,
    )


def accumulate_range_profile(sl: StationarySlice) -> np.ndarray:
    """Noncoherent channel accumulation: sum of magnitudes per range bin."""
    return np.abs(sl.samples).sum(axis=1)


def _cfar_mask(power: np.ndarray, cfg: CfarConfig) -> np.ndarray:
    """CA-CFAR along the last axis, one-sided at the edges; each row sees only its own cells."""
    n = power.shape[-1]
    t, g = cfg.training_cells, cfg.guard_cells
    if n <= 2 * (t + g) + 1:
        raise ValueError(f"profile length {n} too short for training {t} + guard {g} per side")
    if not np.isfinite(power).all():
        raise ValueError("profile contains non-finite values")
    cs = np.zeros(power.shape[:-1] + (n + 1,))
    np.cumsum(power, axis=-1, out=cs[..., 1:])
    (lo_a, lo_b, hi_a, hi_b), counts, alpha = _cfar_window(n, cfg)
    sums = (cs[..., lo_b] - cs[..., lo_a]) + (cs[..., hi_b] - cs[..., hi_a])
    return power > alpha * sums / counts


@functools.lru_cache(maxsize=16)
def _cfar_window(n: int, cfg: CfarConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training-window bounds (4, n), cell counts and alpha per cell; cached, read-only."""
    t, g, idx = cfg.training_cells, cfg.guard_cells, np.arange(n)
    # training windows: [i-g-t, i-g) on the left, (i+g, i+g+t] on the right
    bounds = np.clip(np.stack((idx - g - t, idx - g, idx + g + 1, idx + g + 1 + t)), 0, n)
    counts = (bounds[1] - bounds[0]) + (bounds[3] - bounds[2])
    alpha = counts * (cfg.pfa ** (-1.0 / counts) - 1.0)
    for a in (bounds, counts, alpha):
        a.flags.writeable = False
    return bounds, counts, alpha


def _local_max_mask(power: np.ndarray) -> np.ndarray:
    """Cells >= the left and > the right neighbour along the last axis; edges compare inward."""
    mask = np.ones(power.shape, dtype=bool)
    mask[..., 1:] = power[..., 1:] >= power[..., :-1]
    mask[..., :-1] &= power[..., :-1] > power[..., 1:]
    return mask


def cfar_detect(profile: np.ndarray, cfg: CfarConfig) -> np.ndarray:
    """Indices whose value strictly exceeds the CA-CFAR threshold.

    Pure threshold test; callers that work on spectra usually combine it with
    :func:`local_maxima` to collapse a mainlobe to its peak bin.
    """
    profile = np.asarray(profile, dtype=np.float64)
    if profile.ndim != 1:
        raise ValueError(f"profile must be 1-D, got shape {profile.shape}")
    return np.nonzero(_cfar_mask(profile, cfg))[0]


def local_maxima(profile: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Filter indices to cells >= their left and > their right neighbour; edges compare inward."""
    indices = np.asarray(indices, dtype=int)
    return indices[_local_max_mask(np.asarray(profile))[indices]]


def _parabolic_offset(profile: np.ndarray, k) -> np.ndarray:
    """Three-point parabolic peak refinement along the last axis, clamped to half a bin.

    Fitted at every cell (0 at the edges and for flat triples); ``k`` indexes the result.
    """
    a, b, c = profile[..., :-2], profile[..., 1:-1], profile[..., 2:]
    denom = a - 2.0 * b + c
    offset = np.zeros(profile.shape)
    np.divide(0.5 * (a - c), denom, out=offset[..., 1:-1], where=denom != 0.0)
    return np.minimum(np.maximum(offset, -0.5), 0.5)[k]  # np.clip costs more on small arrays


def _aoa_spectra(channels: np.ndarray, cfg: DspConfig) -> tuple[np.ndarray, np.ndarray]:
    """Angular power rows (fftshifted) of channel snapshots, and their CFAR local-max mask."""
    spectra = numerics.fft(channels, n=cfg.aoa_fft_len)
    half = cfg.aoa_fft_len // 2  # fftshift, without np.roll's overhead on a single row
    power = np.abs(np.concatenate((spectra[..., -half:], spectra[..., :-half]), axis=-1)) ** 2
    return power, _cfar_mask(power, cfg.aoa_cfar) & _local_max_mask(power)


def _target_list(sl: StationarySlice, bins: np.ndarray, power: np.ndarray, peaks: np.ndarray,
                 cfg: DspConfig, profile: np.ndarray) -> TargetList:
    """Entries for ascending range ``bins`` from their :func:`_aoa_spectra` rows (none without peaks)."""
    rows, cols = np.nonzero(peaks)
    # nonzero walks row by row with ascending columns, and arcsin is
    # monotonic, so every entry's angles come sorted; theta = arcsin(2 b / fft_len)
    centered = cols - cfg.aoa_fft_len // 2
    fine_centered = centered + _parabolic_offset(power, (rows, cols))
    angles = np.arcsin(2.0 * centered / cfg.aoa_fft_len).tolist()
    fine_angles = np.arcsin(2.0 * fine_centered / cfg.aoa_fft_len).tolist()
    fine_r = ((bins + _parabolic_offset(profile, bins)) * sl.range_bin_m).tolist()
    bin_r = (bins * sl.range_bin_m).tolist()
    mags = np.max(power, axis=-1, where=peaks, initial=0.0).tolist()
    entries, start = [], 0
    for i, end in enumerate(np.cumsum(peaks.sum(axis=-1)).tolist()):
        if end > start:
            entries.append(
                TargetEntry(
                    range_m=fine_r[i] if cfg.peak_interp else bin_r[i],
                    angles_rad=tuple(angles[start:end]),
                    magnitude=mags[i],
                    fine_range_m=fine_r[i],
                    fine_angles_rad=tuple(fine_angles[start:end]),
                )
            )
        start = end
    return TargetList(tuple(entries), gamma_rad=sl.meta.gamma_rad, timestamp_s=sl.meta.timestamp_s)


def aoa_on_targets(
    sl: StationarySlice,
    range_bins: Sequence[int],
    cfg: DspConfig | None = None,
    profile: np.ndarray | None = None,
) -> TargetList:
    """Angle estimation on the detected range bins only.

    The channel snapshots of all selected range bins go through one AoA FFT,
    zero-padded to ``aoa_fft_len`` bins; CFAR survivors that are local maxima
    of a bin's angular power profile become its entry's angles,
    theta = arcsin(2 b / fft_len) for the centered bin b. The entry magnitude
    is the strongest detected angular power.

    Sub-bin positions are fitted for every entry: ``fine_range_m`` from a
    three-point parabola on the accumulated range ``profile`` (computed from
    the slice when not given), ``fine_angles_rad`` from a parabola on each
    detected peak of the angular power profile. With ``cfg.peak_interp`` the
    reported range is the fitted one; otherwise it is the bin centre.

    Each row of the batch is handled independently, so a range bin gets the
    same entry whatever else is selected with it.
    """
    cfg = cfg or DspConfig()
    if profile is None:
        profile = accumulate_range_profile(sl)
    bins = np.sort(np.asarray(range_bins, dtype=np.intp))
    power, peaks = _aoa_spectra(sl.samples[bins], cfg)
    return _target_list(sl, bins, power, peaks, cfg, profile)


def process_frame(cube: ChirpCube, cfg: DspConfig | None = None) -> TargetList:
    """Per-frame extraction: cube -> :func:`stationary_slice` (no full cube) -> targets with angles."""
    cfg = cfg or DspConfig()
    sl = stationary_slice(cube)
    profile = accumulate_range_profile(sl)
    det = local_maxima(profile, cfar_detect(profile, cfg.range_cfar))
    if not cfg.exhaustive_aoa:
        return aoa_on_targets(sl, det, cfg, profile=profile)
    # AoA on every range bin; the range detections then mask its rows
    power, peaks = _aoa_spectra(sl.samples, cfg)
    return _target_list(sl, det, power[det], peaks[det], cfg, profile)


def target_list_to_json(tl: TargetList) -> str:
    """One-line JSON record (the targets.jsonl row format); angles in degrees."""
    return json.dumps(
        {
            "t": tl.timestamp_s,
            "gamma_deg": math.degrees(tl.gamma_rad),
            "targets": [
                {
                    "r_m": e.range_m,
                    "theta_deg": [math.degrees(a) for a in e.angles_rad],
                    "mag": e.magnitude,
                    "fine_r_m": e.fine_range_m,
                    "fine_theta_deg": [math.degrees(a) for a in e.fine_angles_rad],
                }
                for e in tl.entries
            ],
        },
        separators=(",", ":"),
    )


def write_target_lists(lists: Iterable[TargetList], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tl in lists:
            fh.write(target_list_to_json(tl) + "\n")
