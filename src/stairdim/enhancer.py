"""Learned error enhancer: a small dense network over the pair geometry.

The initial estimator inherits every systematic error of the extraction
chain (bin quantization, window peak shift, tilt noise). A 6-16-8-2 MLP maps
the measurement of a corner pair

    (r1, theta1, r2, theta2, h_r, gamma)   ->   (depth, height)

with ReLU hidden layers and linear outputs, trained with mini-batch Adam on
mean-squared error. Angles are the corrected (gravity-aligned) ones, ranges
ordered r1 <= r2, h_r is the radar height above floor and gamma the IMU
inclination. Features are standardized with per-feature statistics stored in
the model so inference takes raw physical units.

The pair is the one the initial estimator chose from the reported, bin-level
detections, and its initial estimate uses those values. The network is fed
the same two corners measured at sub-bin precision (the parabolic peak fits
of ``dsp_chain``): bin centres cannot show where inside its bin a corner
lies, so a network fed only those could learn no more than the prior.

Everything here is plain numpy and deterministic given the seed: fixed batch
order per epoch from the seeded generator, fan-in-scaled uniform init, and
single-threaded elementwise math, so retraining with one seed is bit-stable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .codec import to_dict
from .dimension import DimensionEstimate
from .numerics import rng_for

__all__ = [
    "EnhancerSample",
    "TrainConfig",
    "TrainResult",
    "EnhancerModel",
    "TrainingError",
    "radar_height",
    "sample_from_estimate",
    "write_dataset",
    "read_dataset",
    "dataset_fingerprint",
    "split_dataset",
    "init_model",
    "forward",
    "loss_and_gradients",
    "train",
    "gradient_check",
    "save_model",
    "load_model",
    "assemble_dataset",
]

DATASET_COLUMNS = (
    "r1_m",
    "theta1_rad",
    "r2_m",
    "theta2_rad",
    "hr_m",
    "gamma_rad",
    "d_true_m",
    "h_true_m",
    "scenario_id",
    "frame_id",
    "r1_fine_m",
    "theta1_fine_rad",
    "r2_fine_m",
    "theta2_fine_rad",
)

_MOUNT_TILT_OFFSET_RAD = math.radians(20.0)


class TrainingError(RuntimeError):
    """Raised when the loss diverges to a non-finite value."""


def radar_height(h_i_m: float, gamma_rad: float, tilt_offset_rad: float = _MOUNT_TILT_OFFSET_RAD) -> float:
    """Radar height above floor from the mount height and inclination.

    h_r = h_i * cos(gamma + offset); at the default -20 deg mount the offset
    is +20 deg, so the neutral stance gives h_r = h_i exactly.
    """
    if not (math.isfinite(h_i_m) and h_i_m > 0.0):
        raise ValueError(f"mount height must be positive, got {h_i_m!r}")
    return h_i_m * math.cos(gamma_rad + tilt_offset_rad)


@dataclass(frozen=True)
class EnhancerSample:
    """One training/evaluation row: pair measurement plus ground truth.

    ``r*_m``/``theta*_rad`` are the corners as reported (the values the pair
    search used); the ``*_fine_*`` fields are the same corners at sub-bin
    precision.
    """

    r1_m: float
    theta1_rad: float
    r2_m: float
    theta2_rad: float
    hr_m: float
    gamma_rad: float
    d_true_m: float
    h_true_m: float
    scenario_id: str
    frame_id: int
    r1_fine_m: float
    theta1_fine_rad: float
    r2_fine_m: float
    theta2_fine_rad: float

    def features(self) -> np.ndarray:
        """The network input (r1, theta1, r2, theta2, h_r, gamma), sub-bin values."""
        return np.array(
            [
                self.r1_fine_m,
                self.theta1_fine_rad,
                self.r2_fine_m,
                self.theta2_fine_rad,
                self.hr_m,
                self.gamma_rad,
            ]
        )

    def labels(self) -> np.ndarray:
        return np.array([self.d_true_m, self.h_true_m])

    def initial_estimate(self) -> tuple[float, float]:
        """The DSP-only estimate: axis differences of the reported corner pair."""
        d = self.r2_m * math.cos(self.theta2_rad) - self.r1_m * math.cos(self.theta1_rad)
        h = self.r2_m * math.sin(self.theta2_rad) - self.r1_m * math.sin(self.theta1_rad)
        return d, h


def sample_from_estimate(
    est: DimensionEstimate,
    d_true_m: float,
    h_true_m: float,
    scenario_id: str,
    frame_id: int,
) -> EnhancerSample:
    """Build the dataset row for a frame estimate (corners ordered by range)."""
    if est.radar_height_m is None:
        raise ValueError("estimate lacks radar_height_m, required for the feature vector")
    a, b = est.corner_pair
    if b.source_range_m < a.source_range_m:
        a, b = b, a
    return EnhancerSample(
        r1_m=a.source_range_m,
        theta1_rad=a.true_angle_rad,
        r2_m=b.source_range_m,
        theta2_rad=b.true_angle_rad,
        hr_m=est.radar_height_m,
        gamma_rad=est.gamma_rad,
        d_true_m=d_true_m,
        h_true_m=h_true_m,
        scenario_id=scenario_id,
        frame_id=frame_id,
        r1_fine_m=a.fine_range_m,
        theta1_fine_rad=a.fine_true_angle_rad,
        r2_fine_m=b.fine_range_m,
        theta2_fine_rad=b.fine_true_angle_rad,
    )


# --- dataset file I/O ---


def write_dataset(samples: Iterable[EnhancerSample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        for s in samples:
            writer.writerow(
                [
                    repr(s.r1_m),
                    repr(s.theta1_rad),
                    repr(s.r2_m),
                    repr(s.theta2_rad),
                    repr(s.hr_m),
                    repr(s.gamma_rad),
                    repr(s.d_true_m),
                    repr(s.h_true_m),
                    s.scenario_id,
                    s.frame_id,
                    repr(s.r1_fine_m),
                    repr(s.theta1_fine_rad),
                    repr(s.r2_fine_m),
                    repr(s.theta2_fine_rad),
                ]
            )


def read_dataset(path: str | Path) -> list[EnhancerSample]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != DATASET_COLUMNS:
            raise ValueError(f"unexpected dataset columns {header!r}")
        out = []
        for row in reader:
            out.append(
                EnhancerSample(
                    r1_m=float(row[0]),
                    theta1_rad=float(row[1]),
                    r2_m=float(row[2]),
                    theta2_rad=float(row[3]),
                    hr_m=float(row[4]),
                    gamma_rad=float(row[5]),
                    d_true_m=float(row[6]),
                    h_true_m=float(row[7]),
                    scenario_id=row[8],
                    frame_id=int(row[9]),
                    r1_fine_m=float(row[10]),
                    theta1_fine_rad=float(row[11]),
                    r2_fine_m=float(row[12]),
                    theta2_fine_rad=float(row[13]),
                )
            )
    return out


def dataset_fingerprint(path: str | Path) -> str:
    """sha256 of the dataset file, recorded into trained model files."""
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- train/test split ---


def _combo_key(s: EnhancerSample) -> tuple[int, int]:
    return (round(s.d_true_m * 1000), round(s.h_true_m * 1000))


def _walk_index(scenario_id: str) -> int | None:
    if "_w" in scenario_id:
        tail = scenario_id.rsplit("_w", 1)[1]
        if tail.isdigit():
            return int(tail)
    return None


def split_dataset(
    samples: Sequence[EnhancerSample],
    split_seed: int = 0,
    held_out_combos: int = 7,
) -> tuple[list[EnhancerSample], list[EnhancerSample]]:
    """Deterministic train/test split by dimension combination and mount height.

    ``held_out_combos`` whole (depth, height) combinations go to the test set,
    chosen by the seeded generator. On top of that, the highest-index walk of
    every remaining combination is held out: sweep walks stratify the mount
    height h_i in ascending order, so the last walk carries h_i values never
    seen in training.
    """
    combos = sorted({_combo_key(s) for s in samples})
    if held_out_combos >= len(combos):
        raise ValueError(
            f"cannot hold out {held_out_combos} of {len(combos)} combinations"
        )
    rng = rng_for(split_seed, 0x59117)
    test_combos = {combos[i] for i in rng.choice(len(combos), held_out_combos, replace=False)}

    max_walk: dict[tuple[int, int], int] = {}
    for s in samples:
        w = _walk_index(s.scenario_id)
        if w is not None:
            key = _combo_key(s)
            max_walk[key] = max(max_walk.get(key, -1), w)

    train: list[EnhancerSample] = []
    test: list[EnhancerSample] = []
    for s in samples:
        key = _combo_key(s)
        w = _walk_index(s.scenario_id)
        if key in test_combos or (w is not None and w == max_walk.get(key)):
            test.append(s)
        else:
            train.append(s)
    if not train or not test:
        raise ValueError("degenerate split: one of the partitions is empty")
    return train, test


# --- the network ---


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1.0e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1.0e-8
    hidden: tuple[int, ...] = (16, 8)
    activation: str = "relu"
    val_fraction: float = 0.1
    early_stop: bool = False
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(eq=False)
class EnhancerModel:
    """Dense network weights plus the feature normalization that feeds it."""

    weights: list[np.ndarray]  # per layer, shape (fan_out, fan_in)
    biases: list[np.ndarray]  # per layer, shape (fan_out,)
    norm_mean: np.ndarray
    norm_scale: np.ndarray
    activation: str = "relu"

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "tanh":
        return 1.0 - np.tanh(z) ** 2
    if kind == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {kind!r}")


def init_model(
    layer_sizes: Sequence[int],
    norm_mean: np.ndarray,
    norm_scale: np.ndarray,
    activation: str = "relu",
    seed: int = 0,
) -> EnhancerModel:
    """Fan-in-scaled uniform init, zero biases, seeded."""
    rng = rng_for(seed, 0x141)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EnhancerModel(
        weights=weights,
        biases=biases,
        norm_mean=np.asarray(norm_mean, dtype=float),
        norm_scale=np.asarray(norm_scale, dtype=float),
        activation=activation,
    )


def _normalize(model: EnhancerModel, x: np.ndarray) -> np.ndarray:
    return (x - model.norm_mean) / model.norm_scale


def forward(model: EnhancerModel, x: np.ndarray) -> np.ndarray:
    """Predictions for raw (unnormalized) inputs, shape (6,) or (n, 6)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    single = x.ndim == 1
    a = _normalize(model, np.atleast_2d(x))
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        a = z if i == last else _activate(z, model.activation)
    return a[0] if single else a


def loss_and_gradients(
    model: EnhancerModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """MSE (mean over batch and output dims) and its parameter gradients."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = x.shape[0]
    a = _normalize(model, x)
    acts = [a]
    zs = []
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(z if i == last else _activate(z, model.activation))
    pred = acts[-1]
    err = pred - y
    loss = float(np.mean(err**2))

    d_out = y.shape[1]
    delta = 2.0 * err / (n * d_out)
    grads_w: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    for i in range(last, -1, -1):
        grads_w[i] = delta.T @ acts[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * _activate_grad(zs[i - 1], model.activation)
    return loss, grads_w, grads_b


@dataclass
class TrainResult:
    model: EnhancerModel
    train_loss: list[float]
    val_loss: list[float]


def train(samples: Sequence[EnhancerSample], cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Mini-batch Adam over the sample set; deterministic for a fixed seed.

    Feature statistics come from the full sample set handed in (the sweep's
    training split); a ``val_fraction`` slice is carved out internally for the
    validation curve and, when ``early_stop`` is set, for patience-based
    stopping. Labels are standardized during optimization for conditioning
    and the scale is folded back into the output layer before returning, so
    the model predicts meters directly and the recorded loss curves are in
    m². Raises TrainingError if the loss goes non-finite.
    """
    if len(samples) == 0:
        raise ValueError("empty dataset")
    x = np.stack([s.features() for s in samples])
    y = np.stack([s.labels() for s in samples])

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-9, 1.0, scale)
    lmean = y.mean(axis=0)
    lscale = y.std(axis=0)
    lscale = np.where(lscale < 1e-9, 1.0, lscale)
    y_std = (y - lmean) / lscale
    sizes = [x.shape[1], *cfg.hidden, y.shape[1]]
    model = init_model(sizes, mean, scale, cfg.activation, cfg.seed)

    rng = rng_for(cfg.seed, 0x7A11)
    n = x.shape[0]
    n_val = int(round(n * cfg.val_fraction))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training data")
    x_tr, y_tr = x[train_idx], y_std[train_idx]
    x_val = x[val_idx]
    y_tr_m, y_val_m = y[train_idx], y[val_idx]

    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    step = 0

    train_curve: list[float] = []
    val_curve: list[float] = []
    best_val = math.inf
    stale = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(x_tr.shape[0])
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, gw, gb = loss_and_gradients(model, x_tr[idx], y_tr[idx])
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged at epoch {epoch}")
            step += 1
            c1 = 1.0 - cfg.beta1**step
            c2 = 1.0 - cfg.beta2**step
            for i in range(len(model.weights)):
                m_w[i] = cfg.beta1 * m_w[i] + (1.0 - cfg.beta1) * gw[i]
                v_w[i] = cfg.beta2 * v_w[i] + (1.0 - cfg.beta2) * gw[i] ** 2
                model.weights[i] -= cfg.learning_rate * (m_w[i] / c1) / (np.sqrt(v_w[i] / c2) + cfg.eps)
                m_b[i] = cfg.beta1 * m_b[i] + (1.0 - cfg.beta1) * gb[i]
                v_b[i] = cfg.beta2 * v_b[i] + (1.0 - cfg.beta2) * gb[i] ** 2
                model.biases[i] -= cfg.learning_rate * (m_b[i] / c1) / (np.sqrt(v_b[i] / c2) + cfg.eps)
        pred_tr = forward(model, x_tr) * lscale + lmean
        train_curve.append(float(np.mean((pred_tr - y_tr_m) ** 2)))
        if x_val.shape[0] > 0:
            val_pred = forward(model, x_val) * lscale + lmean
            val_loss = float(np.mean((val_pred - y_val_m) ** 2))
            val_curve.append(val_loss)
            if cfg.early_stop:
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        break
    model.weights[-1] = lscale[:, None] * model.weights[-1]
    model.biases[-1] = lscale * model.biases[-1] + lmean
    return TrainResult(model=model, train_loss=train_curve, val_loss=val_curve)


def gradient_check(
    model: EnhancerModel,
    x: np.ndarray,
    y: np.ndarray,
    step: float = 1.0e-5,
) -> float:
    """Worst analytic-vs-central-difference gradient discrepancy.

    Every parameter is perturbed by +-step; the returned figure is the
    largest |analytic - numeric| normalized by the overall gradient scale
    max(||g_a||_inf, ||g_n||_inf), the meaningful relative measure when many
    parameters have near-zero gradients.
    """
    _, gw, gb = loss_and_gradients(model, x, y)

    def loss_at() -> float:
        loss, _, _ = loss_and_gradients(model, x, y)
        return loss

    worst = 0.0
    scale = max(
        max(np.abs(g).max() for g in gw),
        max(np.abs(g).max() for g in gb),
        1e-12,
    )
    for arrays, grads in ((model.weights, gw), (model.biases, gb)):
        for arr, g in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi = loss_at()
                flat[i] = keep - step
                lo = loss_at()
                flat[i] = keep
                numeric = (hi - lo) / (2.0 * step)
                scale = max(scale, abs(numeric))
                worst = max(worst, abs(numeric - gflat[i]))
    return worst / scale


# --- model file I/O ---


def save_model(
    model: EnhancerModel,
    path: str | Path,
    train_config: TrainConfig | None = None,
    fingerprint: str | None = None,
) -> None:
    """Write the model as JSON (row-major weights, exact float round trip)."""
    doc = {
        "layer_sizes": model.layer_sizes,
        "activation": model.activation,
        "weights": [[[float(v) for v in row] for row in w] for w in model.weights],
        "biases": [[float(v) for v in b] for b in model.biases],
        "normalization": {
            "mean": [float(v) for v in model.norm_mean],
            "scale": [float(v) for v in model.norm_scale],
        },
        "train_config": to_dict(train_config) if train_config else None,
        "dataset_fingerprint": fingerprint,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> EnhancerModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    weights = [np.array(w, dtype=float) for w in doc["weights"]]
    biases = [np.array(b, dtype=float) for b in doc["biases"]]
    model = EnhancerModel(
        weights=weights,
        biases=biases,
        norm_mean=np.array(doc["normalization"]["mean"], dtype=float),
        norm_scale=np.array(doc["normalization"]["scale"], dtype=float),
        activation=doc["activation"],
    )
    if model.layer_sizes != doc["layer_sizes"]:
        raise ValueError(f"{path}: inconsistent layer sizes")
    return model


def assemble_dataset(scenarios, progress=None) -> list[EnhancerSample]:
    """Run the full pipeline over scenario configs and collect dataset rows.

    One row per frame that yields a corner pair. ``scenarios`` is an iterable
    of ScenarioConfig; ``progress`` (optional) is called with each scenario
    name as it completes.
    """
    from .scenario import run_scenario  # runtime import, avoids a module cycle

    samples: list[EnhancerSample] = []
    for sc in scenarios:
        result = run_scenario(sc)
        for frame_id, est in enumerate(result.estimates):
            if est is None:
                continue
            samples.append(
                sample_from_estimate(
                    est,
                    d_true_m=sc.staircase.depth_m,
                    h_true_m=sc.staircase.height_m,
                    scenario_id=sc.name,
                    frame_id=frame_id,
                )
            )
        if progress is not None:
            progress(sc.name)
    return samples
