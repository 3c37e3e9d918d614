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
   The batch is angle-major, (fft_len, bins) in memory, so the kernels along
   the angle axis read contiguous blocks. Per batch it holds one complex
   spectra buffer, released once the fftshifted magnitudes are written
   straight into one float power buffer and squared in place; then the
   CFAR's running sums and one buffer of window sums, formed in place.
   Every operation is the one the out-of-place form makes, in its order,
   so the results are the same to the bit.
5. Every entry also carries sub-bin positions of its peaks: a three-point
   parabola through the range peak of the accumulated profile and through
   each angle peak of the angular power profile. The parabolas are fitted at
   the detected peaks only, on Python floats, with the operations an
   every-cell array fit would make, so the values are the same to the bit.
   The reported range and angles stay on the bin grid (unless
   ``peak_interp`` refines the range); the sub-bin values are what the
   error enhancer measures a corner pair by.

Constants are built once and kept read-only: per radar configuration the
chirp-sum ones, the range window column and the range bin size; per profile
length and CFAR configuration the training-cell counts and alpha.

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
from .codec import NON_NEGATIVE, Bound, check_fields, rewrite
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
    each cell, at least ``training_cells``; pfa^(-1/training_cells) must stay
    in the float range.
    """

    training_cells: int = field(default=8, metadata={"check": Bound(1)})
    guard_cells: int = field(default=2, metadata={"check": NON_NEGATIVE})
    pfa: float = field(default=1.0e-3, metadata={"check": Bound(0, 1, open=True)})

    def __post_init__(self) -> None:
        check_fields(self)
        try:  # -1 / n, since -1.0 / n overflows for a count beyond the float range
            self.pfa ** (-1 / self.training_cells)
        except OverflowError:
            raise ValueError(
                f"pfa {self.pfa!r} over {self.training_cells} training cells gives a "
                "threshold factor beyond the float range"
            ) from None


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

    aoa_fft_len: int = field(default=64, metadata={"check": Bound(1, MAX_AOA_FFT_LEN)})
    range_cfar: CfarConfig = field(default_factory=lambda: DEFAULT_RANGE_CFAR)
    aoa_cfar: CfarConfig = field(default_factory=lambda: DEFAULT_AOA_CFAR)
    peak_interp: bool = False
    exhaustive_aoa: bool = False

    def __post_init__(self) -> None:
        check_fields(self)

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


@functools.lru_cache(maxsize=8)
def _slice_weights(c: RadarConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The chirp-sum ones, the range window as a column and the bin size; built once, read-only."""
    ones = np.ones(c.chirps_per_frame)
    ones.flags.writeable = False
    range_bin_m = derive_attributes(c).range_resolution_m
    return ones, numerics.window(c.samples_per_chirp)[:, None], range_bin_m


def stationary_slice(cube: ChirpCube) -> StationarySlice:
    """Doppler bin 0 without the full cube: the windowed range FFT of the chirp sum."""
    ones, w, range_bin_m = _slice_weights(cube.config)
    # the matmul with ones is an exact sum, faster than .sum(axis=1)
    chirp_sum = ones @ cube.samples  # (N_S, N_A)
    spectra = numerics.fft(w * chirp_sum, axis=0)
    return StationarySlice(spectra, range_bin_m, cube.config, cube.meta)


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
    """CA-CFAR along the last axis, one-sided at the edges; each row sees only its own cells.

    The arithmetic runs along the first axis of ``power.T``, which is
    contiguous for the angle-major batch of :func:`_aoa_spectra`.
    """
    x = power.T
    n = x.shape[0]
    t, g = cfg.training_cells, cfg.guard_cells
    counts, alpha = (a.reshape((n,) + (1,) * (x.ndim - 1)) for a in _cfar_window(n, cfg))
    if not np.isfinite(x).all():
        raise ValueError("profile contains non-finite values")
    # running sums with t + g cells of margin on either side, 0 before the
    # profile and its total after it, so every cell's window bounds are plain
    # slices: left window [i-g-t, i-g), right window (i+g, i+g+t]
    m = t + g
    cs = np.zeros((n + 2 * m + 1,) + x.shape[1:])
    x.cumsum(axis=0, out=cs[m + 1 : m + 1 + n])
    cs[m + 1 + n :] = cs[m + n : m + n + 1]
    # left + right, then alpha * sums / counts, the same IEEE operations in
    # the same order, in the one buffer of the left sums
    sums = cs[t : t + n] - cs[:n]
    right = cs[2 * m + 1 :] - cs[m + g + 1 : m + g + 1 + n]
    del cs
    sums += right
    sums *= alpha
    sums /= counts
    return (x > sums).T


@functools.lru_cache(maxsize=16)
def _cfar_window(n: int, cfg: CfarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Training cells per cell and alpha per cell; cached, read-only.

    Raises ValueError when n leaves no room for the windows.
    """
    t, g, idx = cfg.training_cells, cfg.guard_cells, np.arange(n)
    if n <= 2 * (t + g) + 1:
        raise ValueError(f"profile length {n} too short for training {t} + guard {g} per side")
    bounds = np.stack((idx - g - t, idx - g, idx + g + 1, idx + g + 1 + t))
    lo_a, lo_b, hi_a, hi_b = np.clip(bounds, 0, n)
    counts = (lo_b - lo_a) + (hi_b - hi_a)
    alpha = counts * (cfg.pfa ** (-1.0 / counts) - 1.0)
    for a in (counts, alpha):
        a.flags.writeable = False
    return counts, alpha


def _local_max_mask(power: np.ndarray) -> np.ndarray:
    """Cells >= the left and > the right neighbour along the last axis; edges compare inward.

    Like :func:`_cfar_mask`, it compares along the first axis of ``power.T``.
    """
    x = power.T
    mask = np.ones(x.shape, dtype=bool)
    np.greater_equal(x[1:], x[:-1], out=mask[1:])
    mask[:-1] &= x[:-1] > x[1:]
    return mask.T


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


def _vertex_offset(values: list[float], i: int) -> float:
    """Three-point parabolic peak refinement at ``values[i]``, clamped to half a bin.

    0 at the ends of ``values`` and for a flat triple.
    """
    if i <= 0 or i >= len(values) - 1:
        return 0.0
    a, b, c = values[i - 1], values[i], values[i + 1]
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return 0.0
    return min(max(0.5 * (a - c) / denom, -0.5), 0.5)


def _aoa_spectra(channels: np.ndarray, cfg: DspConfig) -> tuple[np.ndarray, np.ndarray]:
    """Angular power rows (fftshifted) of channel snapshots, and their CFAR local-max mask.

    The batch is angle-major: the rows come back as the ``.T`` views of
    (fft_len, rows) arrays, so that the kernels along the angle axis read
    contiguous blocks of memory.
    """
    n, half = cfg.aoa_fft_len, cfg.aoa_fft_len // 2
    spectra = numerics.fft(np.ascontiguousarray(channels.T), n=n, axis=0)
    # fftshift: the magnitudes of the two halves written straight into place
    power = np.empty(spectra.shape)
    np.abs(spectra[n - half :], out=power[:half])
    np.abs(spectra[: n - half], out=power[half:])
    del spectra
    power *= power
    power = power.T
    peaks = _cfar_mask(power, cfg.aoa_cfar)
    peaks &= _local_max_mask(power)
    return power, peaks


def _target_list(sl: StationarySlice, bins: np.ndarray, power: np.ndarray, peaks: np.ndarray,
                 cfg: DspConfig, profile: np.ndarray) -> TargetList:
    """Entries for ascending range ``bins`` from their :func:`_aoa_spectra` rows (none without peaks).

    Sub-bin positions are fitted at the detected peaks only: the range
    parabola at each entry's bin of ``profile``, the angle parabola at each
    peak of its power row. The fits and the bin arithmetic run on Python
    floats, the same IEEE operations the array form makes; the angles take
    one ``arcsin`` call for the whole frame.
    """
    rows, cols = (a.tolist() for a in peaks.nonzero())
    meta = sl.meta
    if not rows:
        return TargetList((), gamma_rad=meta.gamma_rad, timestamp_s=meta.timestamp_s)
    fft_len, half, r_bin = cfg.aoa_fft_len, cfg.aoa_fft_len // 2, sl.range_bin_m
    rows_power = power.tolist()
    # nonzero walks row by row with ascending columns, and arcsin is
    # monotonic, so every entry's angles come sorted; theta = arcsin(2 b / fft_len)
    sines = [2.0 * (c - half) / fft_len for c in cols]
    sines += [2.0 * (c - half + _vertex_offset(rows_power[r], c)) / fft_len
              for r, c in zip(rows, cols)]
    angles = np.arcsin(sines).tolist()
    n_peaks, bin_of_row, levels = len(rows), bins.tolist(), profile.tolist()
    entries, start = [], 0
    for end in range(1, n_peaks + 1):
        if end < n_peaks and rows[end] == rows[start]:
            continue
        row, k = rows_power[rows[start]], bin_of_row[rows[start]]
        fine_r = (k + _vertex_offset(levels, k)) * r_bin
        entries.append(
            TargetEntry(
                range_m=fine_r if cfg.peak_interp else k * r_bin,
                angles_rad=tuple(angles[start:end]),
                magnitude=max(row[c] for c in cols[start:end]),
                fine_range_m=fine_r,
                fine_angles_rad=tuple(angles[n_peaks + start : n_peaks + end]),
            )
        )
        start = end
    return TargetList(tuple(entries), gamma_rad=meta.gamma_rad, timestamp_s=meta.timestamp_s)


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

    Sub-bin positions are fitted for every entry, at its peaks only:
    ``fine_range_m`` from a three-point parabola through the entry's bin of
    the accumulated range ``profile`` (computed from the slice when not
    given), ``fine_angles_rad`` from a parabola through each detected peak of
    the angular power profile. With ``cfg.peak_interp`` the reported range is
    the fitted one; otherwise it is the bin centre.

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
    with rewrite(path) as fh:
        for tl in lists:
            fh.write(target_list_to_json(tl) + "\n")
