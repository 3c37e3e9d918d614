"""Stair dimensioning from corrected target coordinates.

The sensor tilts with the shin, so raw angles are boresight-relative. With
the IMU inclination gamma (signed boresight angle from horizontal, negative
below the horizon, positive counterclockwise) each target's true angle is

    theta_t = gamma + theta

and its sagittal-plane position relative to the radar is
(x, y) = (r cos(theta_t), r sin(theta_t)). Candidate pairs of corrected
targets are scanned in a deterministic order for the first pair whose
axis-aligned differences d = x_B - x_A, h = y_B - y_A fall inside the
accepted stair band; that pair is taken as two consecutive step corners and
(d, h) is the frame's dimension estimate. Per-walk aggregation is the
elementwise median over frame estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .codec import POSITIVE, check_fields
from .dsp_chain import TargetList

__all__ = [
    "StairStandards",
    "CorrectedTarget",
    "DimensionEstimate",
    "DEFAULT_STANDARDS",
    "SWEEP_STANDARDS",
    "correct_coordinates",
    "find_consecutive_corners",
    "estimate_initial",
    "aggregate_estimates",
]


@dataclass(frozen=True)
class StairStandards:
    """Accepted (inclusive) band for step depth and riser height, meters."""

    depth_range_m: tuple[float, float] = field(default=(0.22, 0.35), metadata={"check": POSITIVE})
    height_range_m: tuple[float, float] = field(default=(0.10, 0.22), metadata={"check": POSITIVE})

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("depth_range_m", "height_range_m"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must satisfy lo < hi, got ({lo}, {hi})")

    def accepts(self, depth_m: float, height_m: float) -> bool:
        dlo, dhi = self.depth_range_m
        hlo, hhi = self.height_range_m
        return dlo <= depth_m <= dhi and hlo <= height_m <= hhi


#: Published construction-code band for residential stairs.
DEFAULT_STANDARDS = StairStandards()

#: Band used by the scenario pipeline. The evaluation grid spans depths up to
#: 0.38 m, beyond the published 0.35 m bound, so sweeps accept with the same
#: ~4 cm margin the lower edge has; plain estimate calls keep the published
#: band by default.
SWEEP_STANDARDS = StairStandards(depth_range_m=(0.22, 0.42), height_range_m=(0.08, 0.22))


@dataclass(frozen=True)
class CorrectedTarget:
    """A (range, angle) detection rotated into the gravity-aligned frame.

    Position and angles come from the reported detection. ``fine_range_m``
    and ``fine_true_angle_rad`` are its sub-bin range and gravity-aligned
    angle.
    """

    true_angle_rad: float
    x_m: float
    y_m: float
    source_range_m: float
    source_angle_rad: float
    magnitude: float
    fine_range_m: float
    fine_true_angle_rad: float


@dataclass(frozen=True)
class DimensionEstimate:
    """Per-frame (depth, height) estimate and the corner pair behind it."""

    depth_m: float
    height_m: float
    corner_pair: tuple[CorrectedTarget, CorrectedTarget]
    gamma_rad: float
    timestamp_s: float
    radar_height_m: float | None = None


def correct_coordinates(targets: TargetList, gamma_rad: float) -> list[CorrectedTarget]:
    """Rotate every (r, theta) detection by the IMU inclination.

    Each angle of a multi-angle entry becomes its own corrected target; the
    rotation is an isometry, so ranges survive as sqrt(x^2 + y^2) exactly.
    The entry's sub-bin range and angles are carried along, rotated alike.
    """
    out: list[CorrectedTarget] = []
    for e in targets.entries:
        for th, fine_th in zip(e.angles_rad, e.fine_angles_rad):
            tt = gamma_rad + th
            out.append(
                CorrectedTarget(
                    true_angle_rad=tt,
                    x_m=e.range_m * math.cos(tt),
                    y_m=e.range_m * math.sin(tt),
                    source_range_m=e.range_m,
                    source_angle_rad=th,
                    magnitude=e.magnitude,
                    fine_range_m=e.fine_range_m,
                    fine_true_angle_rad=gamma_rad + fine_th,
                )
            )
    return out


def find_consecutive_corners(
    targets: Sequence[CorrectedTarget],
    standards: StairStandards = DEFAULT_STANDARDS,
) -> Optional[tuple[CorrectedTarget, CorrectedTarget]]:
    """First target pair whose axis-aligned differences look like a step.

    Candidate pairs (A, B) with x_B > x_A are visited ordered by ascending
    x_A, then ascending horizontal separation, with total magnitude breaking
    exact ties; the first pair with d = x_B - x_A inside the depth band and
    h = y_B - y_A inside the height band wins. Nearest plausible pair first
    mirrors how a climber meets the staircase.
    """
    ordered = sorted(targets, key=lambda t: (t.x_m, -t.magnitude))
    candidates = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            if b.x_m <= a.x_m:
                continue
            candidates.append((a.x_m, b.x_m - a.x_m, -(a.magnitude + b.magnitude), a, b))
    candidates.sort(key=lambda c: c[:3])
    for _, dx, _, a, b in candidates:
        if standards.accepts(dx, b.y_m - a.y_m):
            return (a, b)
    return None


def estimate_initial(
    targets: TargetList,
    gamma_rad: float,
    standards: StairStandards = DEFAULT_STANDARDS,
    radar_height_m: float | None = None,
) -> Optional[DimensionEstimate]:
    """Frame-level stair dimensions from a target list, or None.

    None means the frame produced no pair inside the accepted band (too few
    detections, bad geometry); callers simply skip such frames.
    """
    pair = find_consecutive_corners(correct_coordinates(targets, gamma_rad), standards)
    if pair is None:
        return None
    a, b = pair
    depth = b.x_m - a.x_m
    height = b.y_m - a.y_m
    assert standards.accepts(depth, height)
    return DimensionEstimate(
        depth_m=depth,
        height_m=height,
        corner_pair=pair,
        gamma_rad=gamma_rad,
        timestamp_s=targets.timestamp_s,
        radar_height_m=radar_height_m,
    )


def aggregate_estimates(
    estimates: Sequence[Optional[DimensionEstimate]],
) -> Optional[tuple[float, float]]:
    """Walk-level (depth, height): elementwise median over frame estimates."""
    kept = [e for e in estimates if e is not None]
    if not kept:
        return None
    d = float(np.median([e.depth_m for e in kept]))
    h = float(np.median([e.height_m for e in kept]))
    return d, h
