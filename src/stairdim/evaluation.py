"""Error metrics and estimator comparison.

Errors are estimate minus truth. Storage and estimator interfaces stay in
meters; reports convert to centimeters. An error report is keyed by estimator
name, then by dimension: ``{estimator: {"depth" | "height": DimensionMetrics}}``,
so an estimator is one more entry of the dict given to ``build_error_report``.
Metrics per estimator and dimension: MAE, RMSE, and the population standard
deviation, which tie together as RMSE^2 = sigma^2 + bias^2 exactly. Error
histograms use fixed 0.5 cm bins over [-15, +15] cm; samples are clipped into
that span for binning only (the moments use the raw errors) so the densities
integrate to exactly one. ``compare_estimators`` scores the enhanced estimator
against the initial one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import rewrite

__all__ = [
    "HIST_SPAN_CM",
    "HIST_BIN_CM",
    "DIMENSIONS",
    "DimensionMetrics",
    "compute_metrics",
    "build_error_report",
    "compare_estimators",
    "report_to_dict",
    "write_histogram_csv",
]

HIST_SPAN_CM = 15.0
HIST_BIN_CM = 0.5
DIMENSIONS = ("depth", "height")  # the columns of every (n, 2) estimate array


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
    if not (math.isfinite(rmse) and math.isfinite(sigma)):
        raise ValueError("errors beyond the float range")
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
    estimates_dh_m: dict[str, np.ndarray], truths_dh_m: np.ndarray
) -> dict[str, dict[str, DimensionMetrics]]:
    """Metrics per estimator and dimension from (n, 2) arrays of (depth, height)."""
    truths_dh_m = np.asarray(truths_dh_m, dtype=float)
    estimates_dh_m = {name: np.asarray(a, dtype=float) for name, a in estimates_dh_m.items()}
    shapes = {name: a.shape for name, a in estimates_dh_m.items()}
    if truths_dh_m.shape[1:] != (2,) or any(sh != truths_dh_m.shape for sh in shapes.values()):
        raise ValueError(f"expected (n, 2) arrays of one shape, got {shapes}, truths {truths_dh_m.shape}")
    return {
        name: {dim: compute_metrics(a[:, j], truths_dh_m[:, j]) for j, dim in enumerate(DIMENSIONS)}
        for name, a in estimates_dh_m.items()
    }


def _improvements(before: DimensionMetrics, after: DimensionMetrics) -> dict[str, float]:
    pairs = ((k, getattr(before, f"{k}_cm"), getattr(after, f"{k}_cm")) for k in ("mae", "rmse", "sigma"))
    return {k: (b - a) / b if b > 0 else math.nan for k, b, a in pairs}


def compare_estimators(report: dict[str, dict[str, DimensionMetrics]]) -> dict:
    """Relative improvement (initial - enhanced) / initial of the enhanced estimator.

    One ``{"mae", "rmse", "sigma"}`` dict per dimension, and
    ``all_metrics_improved``, true when every one of them is positive.
    """
    out = {dim: _improvements(report["initial"][dim], report["enhanced"][dim]) for dim in DIMENSIONS}
    out["all_metrics_improved"] = all(v > 0 for dim in DIMENSIONS for v in out[dim].values())
    return out


def _metrics_dict(m: DimensionMetrics) -> dict:
    return {k: getattr(m, k) for k in ("mae_cm", "rmse_cm", "sigma_cm", "bias_cm", "n")}


def report_to_dict(report: dict[str, dict[str, DimensionMetrics]]) -> dict:
    """Every estimator's block of metrics, without histograms, plus ``improvement``."""
    doc = {name: {dim: _metrics_dict(m) for dim, m in dims.items()} for name, dims in report.items()}
    doc["improvement"] = compare_estimators(report)
    return doc


def write_histogram_csv(metrics: DimensionMetrics, path: str | Path) -> None:
    """Density histogram as (bin_center_cm, density) rows."""
    lines = ["bin_center_cm,density"]
    for c, d in zip(metrics.hist_centers_cm, metrics.hist_density):
        lines.append(f"{c!r},{d!r}")
    with rewrite(path) as fh:
        fh.write("\n".join(lines) + "\n")
