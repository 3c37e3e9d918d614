"""Error metrics and estimator comparison.

Errors are estimate minus truth. Storage and estimator interfaces stay in
meters; reports convert to centimeters. Metrics per estimator and dimension:
MAE, RMSE, and the population standard deviation, which tie together as
RMSE^2 = sigma^2 + bias^2 exactly. Error histograms use fixed 0.5 cm bins
over [-15, +15] cm; samples are clipped into that span for binning only (the
moments use the raw errors) so the densities integrate to exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "HIST_SPAN_CM",
    "HIST_BIN_CM",
    "DimensionMetrics",
    "ErrorReport",
    "ImprovementSummary",
    "compute_metrics",
    "build_error_report",
    "compare_estimators",
    "report_to_dict",
    "write_histogram_csv",
]

HIST_SPAN_CM = 15.0
HIST_BIN_CM = 0.5


@dataclass(frozen=True)
class DimensionMetrics:
    """Metrics of one estimator on one dimension (centimeters)."""

    mae_cm: float
    rmse_cm: float
    sigma_cm: float
    bias_cm: float
    n: int
    hist_centers_cm: tuple[float, ...]
    hist_density: tuple[float, ...]


@dataclass(frozen=True)
class ErrorReport:
    """Initial vs enhanced estimator metrics for both stair dimensions."""

    initial_depth: DimensionMetrics
    initial_height: DimensionMetrics
    enhanced_depth: DimensionMetrics
    enhanced_height: DimensionMetrics


@dataclass(frozen=True)
class ImprovementSummary:
    """Relative improvement (initial - enhanced) / initial, per metric."""

    depth: dict[str, float]
    height: dict[str, float]
    all_metrics_improved: bool


def compute_metrics(estimates_m: Sequence[float], truths_m: Sequence[float]) -> DimensionMetrics:
    """Metrics for one estimator/dimension from paired meter-valued series."""
    est = np.asarray(estimates_m, dtype=float)
    tru = np.asarray(truths_m, dtype=float)
    if est.shape != tru.shape or est.ndim != 1:
        raise ValueError(f"estimates/truths must be equal-length 1-D, got {est.shape} vs {tru.shape}")
    if est.size == 0:
        raise ValueError("empty series")
    if not (np.isfinite(est).all() and np.isfinite(tru).all()):
        raise ValueError("non-finite values in series")
    err_cm = (est - tru) * 100.0
    mae = float(np.mean(np.abs(err_cm)))
    rmse = float(np.sqrt(np.mean(err_cm**2)))
    bias = float(np.mean(err_cm))
    sigma = float(np.std(err_cm))  # population
    edges = np.arange(-HIST_SPAN_CM, HIST_SPAN_CM + HIST_BIN_CM / 2, HIST_BIN_CM)
    clipped = np.clip(err_cm, -HIST_SPAN_CM + 1e-12, HIST_SPAN_CM - 1e-12)
    density, _ = np.histogram(clipped, bins=edges, density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return DimensionMetrics(
        mae_cm=mae,
        rmse_cm=rmse,
        sigma_cm=sigma,
        bias_cm=bias,
        n=int(est.size),
        hist_centers_cm=tuple(float(c) for c in centers),
        hist_density=tuple(float(d) for d in density),
    )


def build_error_report(
    initial_dh_m: np.ndarray,
    enhanced_dh_m: np.ndarray,
    truths_dh_m: np.ndarray,
) -> ErrorReport:
    """Assemble the four metric blocks from (n, 2) arrays of (depth, height)."""
    initial_dh_m = np.asarray(initial_dh_m, dtype=float)
    enhanced_dh_m = np.asarray(enhanced_dh_m, dtype=float)
    truths_dh_m = np.asarray(truths_dh_m, dtype=float)
    if not (initial_dh_m.shape == enhanced_dh_m.shape == truths_dh_m.shape):
        raise ValueError("initial/enhanced/truth arrays must share a shape")
    if initial_dh_m.ndim != 2 or initial_dh_m.shape[1] != 2:
        raise ValueError(f"expected (n, 2) arrays, got {initial_dh_m.shape}")
    return ErrorReport(
        initial_depth=compute_metrics(initial_dh_m[:, 0], truths_dh_m[:, 0]),
        initial_height=compute_metrics(initial_dh_m[:, 1], truths_dh_m[:, 1]),
        enhanced_depth=compute_metrics(enhanced_dh_m[:, 0], truths_dh_m[:, 0]),
        enhanced_height=compute_metrics(enhanced_dh_m[:, 1], truths_dh_m[:, 1]),
    )


def _improvements(initial: DimensionMetrics, enhanced: DimensionMetrics) -> dict[str, float]:
    out = {}
    for name in ("mae_cm", "rmse_cm", "sigma_cm"):
        before = getattr(initial, name)
        after = getattr(enhanced, name)
        out[name.removesuffix("_cm")] = (before - after) / before if before > 0 else math.nan
    return out


def compare_estimators(report: ErrorReport) -> ImprovementSummary:
    """Relative improvement of the enhanced estimator over the initial one."""
    depth = _improvements(report.initial_depth, report.enhanced_depth)
    height = _improvements(report.initial_height, report.enhanced_height)
    improved = all(v > 0 for v in (*depth.values(), *height.values()))
    return ImprovementSummary(depth=depth, height=height, all_metrics_improved=improved)


def _metrics_dict(m: DimensionMetrics) -> dict:
    return {
        "mae_cm": m.mae_cm,
        "rmse_cm": m.rmse_cm,
        "sigma_cm": m.sigma_cm,
        "bias_cm": m.bias_cm,
        "n": m.n,
    }


def report_to_dict(report: ErrorReport) -> dict:
    summary = compare_estimators(report)
    return {
        "initial": {
            "depth": _metrics_dict(report.initial_depth),
            "height": _metrics_dict(report.initial_height),
        },
        "enhanced": {
            "depth": _metrics_dict(report.enhanced_depth),
            "height": _metrics_dict(report.enhanced_height),
        },
        "improvement": {
            "depth": summary.depth,
            "height": summary.height,
            "all_metrics_improved": summary.all_metrics_improved,
        },
    }


def write_histogram_csv(metrics: DimensionMetrics, path: str | Path) -> None:
    """Density histogram as (bin_center_cm, density) rows."""
    lines = ["bin_center_cm,density"]
    for c, d in zip(metrics.hist_centers_cm, metrics.hist_density):
        lines.append(f"{c!r},{d!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
