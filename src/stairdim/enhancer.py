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

Every weight and bias lives in one flat ``params`` vector, layer by layer:
the weights row-major (fan_out, fan_in), then the bias. The per-layer arrays
are views into it, and gradients and Adam's moments share that layout. A
seeded tenth of the training rows is held out for the validation curve.
``train`` normalizes the training and validation rows once per training and
hands the normalized rows to ``loss_and_gradients`` and ``forward``. Each
epoch permutes the training rows into one shuffled copy, and a batch is a
contiguous slice of it. A training step writes its activations, deltas,
ReLU masks and gradient into one ``StepScratch`` that ``train`` makes per
training; the gradient is the first half of the scratch's ``g|g²`` buffer,
and Adam's moments are one ``m|v`` vector, so the moment update is four
whole-vector operations. It all runs in place on preallocated buffers, yet
matches the textbook out-of-place computation bit for bit (see ``train``).
The gradient ``loss_and_gradients`` returns is a view into its scratch,
valid until the next call with that scratch.

A dataset is a ``Dataset`` named tuple of column arrays, one field per
``dataset.csv`` column in file order. The sweep builds it once from per-frame
row tuples, ``read_dataset`` reads a file's rows with the csv module and
converts them column by column, and the split, the training and the
evaluation work on whole columns.

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
import math
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import scenario
from .codec import Bound, check_fields, naming, read_json_object, rewrite, to_dict, write_json
from .dimension import DimensionEstimate
from .numerics import rng_for

__all__ = [
    "Dataset",
    "TrainConfig",
    "TrainResult",
    "EnhancerModel",
    "TrainingError",
    "sample_from_estimate",
    "write_dataset",
    "read_dataset",
    "dataset_fingerprint",
    "split_dataset",
    "init_model",
    "forward",
    "StepScratch",
    "loss_and_gradients",
    "train",
    "gradient_check",
    "save_model",
    "load_model",
    "assemble_dataset",
]

class TrainingError(RuntimeError):
    """Raised when the loss diverges to a non-finite value."""


class Dataset(NamedTuple):
    """A dataset as one array per ``dataset.csv`` column, a row per frame with a corner pair.

    ``r*_m``/``theta*_rad`` are the corners as reported (the values the pair
    search used); the ``*_fine_*`` columns are the same corners at sub-bin
    precision. ``scenario_id`` is an object array of str, ``frame_id`` an
    int64 array and every other column float64. Being a tuple, ``len`` counts
    the columns; ``n_rows`` counts the rows.
    """

    r1_m: np.ndarray
    theta1_rad: np.ndarray
    r2_m: np.ndarray
    theta2_rad: np.ndarray
    hr_m: np.ndarray
    gamma_rad: np.ndarray
    d_true_m: np.ndarray
    h_true_m: np.ndarray
    scenario_id: np.ndarray
    frame_id: np.ndarray
    r1_fine_m: np.ndarray
    theta1_fine_rad: np.ndarray
    r2_fine_m: np.ndarray
    theta2_fine_rad: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> Dataset:
        """The columns of row tuples given in ``DATASET_COLUMNS`` order."""
        columns = tuple(zip(*rows)) or ((),) * len(cls._fields)
        return cls._make(np.array(c, dtype=t) for c, t in zip(columns, _COLUMN_DTYPES))

    @property
    def n_rows(self) -> int:
        return len(self.frame_id)

    def take(self, index: np.ndarray) -> Dataset:
        """The rows a boolean mask or an index array selects, in that order."""
        return self._make(c[index] for c in self)

    def features(self) -> np.ndarray:
        """The network input (r1, theta1, r2, theta2, h_r, gamma) at sub-bin precision, (n, 6)."""
        return np.column_stack([getattr(self, c) for c in FEATURE_COLUMNS])

    def labels(self) -> np.ndarray:
        """The true (depth, height) of each row, (n, 2)."""
        return np.column_stack((self.d_true_m, self.h_true_m))

    def initial_estimate(self) -> np.ndarray:
        """The DSP-only estimate, (n, 2): axis differences of the reported corner pair."""
        r1, t1, r2, t2 = self.r1_m, self.theta1_rad, self.r2_m, self.theta2_rad
        return np.column_stack(
            (r2 * np.cos(t2) - r1 * np.cos(t1), r2 * np.sin(t2) - r1 * np.sin(t1))
        )


DATASET_COLUMNS = Dataset._fields
FEATURE_COLUMNS = (
    "r1_fine_m", "theta1_fine_rad", "r2_fine_m", "theta2_fine_rad", "hr_m", "gamma_rad"
)
LABEL_COLUMNS = ("d_true_m", "h_true_m")
_CELL_KINDS = tuple({"scenario_id": str, "frame_id": int}.get(c, float) for c in DATASET_COLUMNS)
_COLUMN_DTYPES = tuple({str: object, int: np.int64}.get(k, float) for k in _CELL_KINDS)


def sample_from_estimate(
    est: DimensionEstimate,
    d_true_m: float,
    h_true_m: float,
    scenario_id: str,
    frame_id: int,
) -> tuple:
    """The dataset row of a frame estimate, in ``DATASET_COLUMNS`` order (corners ordered by range)."""
    if est.radar_height_m is None:
        raise ValueError("estimate lacks radar_height_m, required for the feature vector")
    a, b = est.corner_pair
    if b.source_range_m < a.source_range_m:
        a, b = b, a
    return (
        a.source_range_m,
        a.true_angle_rad,
        b.source_range_m,
        b.true_angle_rad,
        est.radar_height_m,
        est.gamma_rad,
        d_true_m,
        h_true_m,
        scenario_id,
        frame_id,
        a.fine_range_m,
        a.fine_true_angle_rad,
        b.fine_range_m,
        b.fine_true_angle_rad,
    )


# --- dataset file I/O ---


def write_dataset(data: Dataset, path: str | Path) -> None:
    """One line per row; floats are written as their repr, so they read back exactly."""
    with rewrite(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        writer.writerows(zip(*(c.tolist() for c in data)))


def read_dataset(path: str | Path) -> Dataset:
    """The columns of a ``write_dataset`` file; every numeric cell must be a finite number.

    The csv module reads the rows from the one open file. Every row's width
    is checked first, then each column cell by cell: ``float()`` must give a
    finite number and ``int()`` an int64. A malformed file raises ValueError
    naming the file and the line the first bad row or cell ends on; so does a
    cell the csv module refuses, one longer than ``csv.field_size_limit()``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected the dataset header")
            if tuple(header) != DATASET_COLUMNS:
                raise ValueError(f"{path}: unexpected dataset columns {tuple(header)!r}")
            rows = [(cells, reader.line_num) for cells in reader]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    for cells, line in rows:
        if len(cells) != len(DATASET_COLUMNS):
            raise ValueError(f"{path}: line {line} has {len(cells)} cells")
    columns = []
    for j, (name, kind, dtype) in enumerate(zip(DATASET_COLUMNS, _CELL_KINDS, _COLUMN_DTYPES)):
        values = []
        for cells, line in rows:
            try:
                value = kind(cells[j])
            except ValueError:
                value = None
            if kind is float and (value is None or not math.isfinite(value)):
                raise ValueError(f"{path}: line {line}: {name} {cells[j]!r} is not a finite number")
            if kind is int and (value is None or not -(2**63) <= value < 2**63):
                raise ValueError(f"{path}: line {line}: {name} {cells[j]!r} is not an integer")
            values.append(value)
        columns.append(np.array(values, dtype=dtype))
    return Dataset._make(columns)


def dataset_fingerprint(path: str | Path) -> str:
    """sha256 of the dataset file, recorded into trained model files; read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, 1 << 16), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


# --- train/test split ---


def _combo_keys(data: Dataset) -> np.ndarray:
    """Each row's (depth, height) label in whole millimetres, (n, 2)."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        keys = np.rint(data.labels() * 1000)
    finite = np.isfinite(keys).all(axis=1)
    if not finite.all():  # a finite label whose millimetres overflow to inf
        i = int(np.argmin(finite))
        raise ValueError(
            f"labels ({float(data.d_true_m[i])!r}, {float(data.h_true_m[i])!r}) of "
            f"{data.scenario_id[i]} frame {data.frame_id[i]} "
            "are too large for a millimetre combination key"
        )
    return keys


def _walk_index(scenario_id: str) -> int | None:
    if "_w" in scenario_id:
        tail = scenario_id.rsplit("_w", 1)[1]
        # isdecimal, not isdigit: a superscript such as '²' is a digit int() rejects
        if tail.isdecimal():
            return int(tail)
    return None


def split_dataset(
    data: Dataset,
    split_seed: int = 0,
    held_out_combos: int = 7,
) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split by dimension combination and mount height.

    ``held_out_combos`` whole (depth, height) combinations go to the test set,
    chosen by the seeded generator. On top of that, the highest-index walk of
    every remaining combination is held out: sweep walks stratify the mount
    height h_i in ascending order, so the last walk carries h_i values never
    seen in training. Both parts keep the rows in file order. Combinations
    are numbered in (depth, height) order, as ``np.unique(keys, axis=0)``
    would: each millimetre key pair is read as one complex number, which
    numpy orders by real part, then imaginary part, and -0.0 equals 0.0.
    Scenario ids are numbered by ``np.unique`` too.
    """
    combos, combo = np.unique(_combo_keys(data).view(complex)[:, 0], return_inverse=True)
    n_combos = len(combos)
    if held_out_combos >= n_combos:
        raise ValueError(
            f"cannot hold out {held_out_combos} of {n_combos} combinations"
        )
    rng = rng_for(split_seed, 0x59117)
    held_out = np.zeros(n_combos, dtype=bool)
    held_out[rng.choice(n_combos, held_out_combos, replace=False)] = True

    # a walk's frames share its scenario id, so each id is parsed once; walks
    # are compared by rank, which keeps walk numbers of any size exact
    ids, id_of_row = np.unique(data.scenario_id, return_inverse=True)
    walk_of_id = [_walk_index(sid) for sid in ids]
    rank = {w: r for r, w in enumerate(sorted({w for w in walk_of_id if w is not None}))}
    walk = np.array([rank.get(w, -1) for w in walk_of_id], dtype=np.int64)[id_of_row]
    last_walk = np.full(n_combos, -1)
    np.maximum.at(last_walk, combo, walk)

    test = held_out[combo] | ((walk >= 0) & (walk == last_walk[combo]))
    if test.all() or not test.any():
        raise ValueError("degenerate split: one of the partitions is empty")
    return data.take(~test), data.take(test)


# --- the network ---

HIDDEN = (16, 8)
BATCH_SIZE = 32
VAL_FRACTION = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1.0e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = field(default=50, metadata={"check": Bound(1)})
    learning_rate: float = 1.0e-3
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)


@cache
def _layer_slices(
    layer_sizes: tuple[int, ...],
) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
    """Each layer's weight slice, weight shape and bias slice in the ``params`` layout."""
    out = []
    at = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = slice(at, at + fan_out * fan_in)
        at += fan_out * fan_in
        out.append((w, (fan_out, fan_in), slice(at, at + fan_out)))
        at += fan_out
    return tuple(out)


def _layer_views(
    flat: np.ndarray, layer_sizes: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weights and biases as views into ``flat``, laid out like ``params``."""
    layers = _layer_slices(tuple(layer_sizes))
    return [flat[w].reshape(shape) for w, shape, _ in layers], [flat[b] for _, _, b in layers]


@dataclass(eq=False)
class EnhancerModel:
    """Dense network weights plus the feature normalization that feeds it.

    ``params`` holds every weight and bias, layer by layer: the weights
    row-major (fan_out, fan_in), then the bias. ``weights[i]`` and
    ``biases[i]`` are views into it, so writing either writes ``params``;
    ``weights_t[i]`` is the transposed view the forward pass multiplies by.
    """

    layer_sizes: list[int]
    params: np.ndarray
    norm_mean: np.ndarray
    norm_scale: np.ndarray
    weights: list[np.ndarray] = field(init=False)
    biases: list[np.ndarray] = field(init=False)
    weights_t: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights, self.biases = _layer_views(self.params, self.layer_sizes)
        self.weights_t = [w.T for w in self.weights]


def init_model(
    layer_sizes: Sequence[int],
    norm_mean: np.ndarray,
    norm_scale: np.ndarray,
    seed: int = 0,
) -> EnhancerModel:
    """Fan-in-scaled uniform init, zero biases, seeded."""
    sizes = list(layer_sizes)
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    model = EnhancerModel(
        layer_sizes=sizes,
        params=np.zeros(n_params),
        norm_mean=np.asarray(norm_mean, dtype=float),
        norm_scale=np.asarray(norm_scale, dtype=float),
    )
    rng = rng_for(seed, 0x141)
    for w in model.weights:
        bound = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


class StepScratch:
    """The buffers ``loss_and_gradients`` writes into, for batches of up to ``rows`` rows.

    It holds the normalized input and each layer's output, the backward
    deltas, the ReLU masks of the hidden layers and the flat gradient in the
    ``params`` layout of a network with ``layer_sizes``. ``grad`` is the first
    half of ``terms``, a ``g|g²`` buffer whose second half ``train`` fills
    with the squared gradient. A batch of n rows uses the leading n rows of
    each per-row buffer; those views, and the deltas' transposes, are made
    once per n and kept.
    """

    def __init__(self, layer_sizes: Sequence[int], rows: int) -> None:
        sizes = tuple(layer_sizes)
        n_params = _layer_slices(sizes)[-1][2].stop
        self.rows = rows
        self.acts = [np.empty((rows, k)) for k in sizes]
        self.deltas = [np.empty((rows, k)) for k in sizes[1:]]
        self.masks = [np.empty((rows, k), dtype=bool) for k in sizes[1:-1]]
        self.terms = np.empty(2 * n_params)
        self.grad = self.terms[:n_params]
        self.grads_w, self.grads_b = _layer_views(self.grad, sizes)
        self._leading: dict[int, tuple] = {}

    def leading(self, n: int) -> tuple[list, list, list, list]:
        """The first ``n`` rows of the activations, deltas, transposed deltas and masks."""
        views = self._leading.get(n)
        if views is None:
            if n > self.rows:
                raise ValueError(f"a batch of {n} rows does not fit a scratch of {self.rows}")
            deltas = [d[:n] for d in self.deltas]
            views = self._leading[n] = (
                [a[:n] for a in self.acts],
                deltas,
                [d.T for d in deltas],
                [m[:n] for m in self.masks],
            )
        return views


def _layers_into(model: EnhancerModel, x: np.ndarray, outs: Sequence[np.ndarray]) -> None:
    """Write each layer's output for normalized rows ``x`` into ``outs``, one buffer a layer.

    Hidden layers are ReLU'd; every buffer is overwritten in full.
    """
    last = len(outs) - 1
    a = x
    for i, (w_t, b, z) in enumerate(zip(model.weights_t, model.biases, outs)):
        np.matmul(a, w_t, out=z)
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        a = z


def _normalize_into(model: EnhancerModel, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(x - mean) / scale`` into ``out``, the two operations every normalized row goes through."""
    np.subtract(x, model.norm_mean, out=out)
    out /= model.norm_scale
    return out


def forward(model: EnhancerModel, x: np.ndarray, *, normalized: bool = False) -> np.ndarray:
    """Predictions for raw (unnormalized) inputs, shape (6,) or (n, 6).

    ``normalized=True`` takes rows already normalized with the model's
    statistics (``train`` does so once) and predicts as for their raw rows.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    x2 = np.atleast_2d(x)
    if not normalized:
        x2 = _normalize_into(model, x2, np.empty(x2.shape))
    outs = [np.empty((x2.shape[0], k)) for k in model.layer_sizes[1:]]
    _layers_into(model, x2, outs)
    return outs[-1][0] if x.ndim == 1 else outs[-1]


def _as_rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a float array of rows, shape (n, k); a single row becomes (1, k)."""
    a = np.asarray(a, dtype=float)
    return a if a.ndim == 2 else np.atleast_2d(a)


def loss_and_gradients(
    model: EnhancerModel,
    x: np.ndarray,
    y: np.ndarray,
    scratch: StepScratch | None = None,
    *,
    normalized: bool = False,
) -> tuple[float, np.ndarray]:
    """MSE (mean over batch and output dims) and its gradient in the ``params`` layout.

    The activations, deltas, ReLU masks and gradient are written into
    ``scratch``, whose ``rows`` must be at least the batch size; without one,
    a scratch sized for this batch is made. The returned gradient is
    ``scratch.grad`` itself, a view that the next call with the same scratch
    overwrites: copy it to keep it. ``normalized=True`` takes 2-D float rows
    already normalized with the model's statistics, as ``forward`` does.
    """
    if not normalized:
        x = _as_rows(x)
        y = _as_rows(y)
    n = x.shape[0]
    if scratch is None:
        scratch = StepScratch(model.layer_sizes, n)
    acts, deltas, deltas_t, masks = scratch.leading(n)
    if not normalized:
        x = _normalize_into(model, x, acts[0])
    outs = acts[1:]
    _layers_into(model, x, outs)
    delta = deltas[-1]  # the error, scaled in place into d(loss)/d(output)
    np.subtract(outs[-1], y, out=delta)
    loss = float(np.add.reduce(delta * delta, axis=None)) / delta.size
    delta *= 2.0
    delta /= delta.size

    grads_w, grads_b, weights = scratch.grads_w, scratch.grads_b, model.weights
    for i in range(len(deltas) - 1, 0, -1):
        np.matmul(deltas_t[i], outs[i - 1], out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        below = deltas[i - 1]
        np.matmul(delta, weights[i], out=below)
        # a hidden activation is positive exactly where its ReLU input was
        np.greater(outs[i - 1], 0.0, out=masks[i - 1])
        below *= masks[i - 1]
        delta = below
    np.matmul(deltas_t[0], x, out=grads_w[0])
    np.add.reduce(delta, axis=0, out=grads_b[0])
    return loss, scratch.grad


@dataclass
class TrainResult:
    model: EnhancerModel
    train_loss: list[float]
    val_loss: list[float]


def train(data: Dataset, cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Mini-batch Adam over the dataset's rows; deterministic for a fixed seed.

    The network is 6-16-8-2 with ReLU hidden layers, trained in batches of
    32. Feature statistics come from all the rows handed in (the
    sweep's training split); a seeded tenth of it is carved out internally
    for the validation curve. Both parts are normalized once per training,
    by the two operations the forward pass applies to raw rows, so every
    value is the one it would compute. Each epoch permutes the normalized
    training rows into one shuffled copy, and its batches are contiguous
    slices of that copy.

    Every step calls ``loss_and_gradients`` on normalized rows with one
    ``StepScratch`` sized for ``BATCH_SIZE`` rows and made once per training;
    the short last batch of an epoch uses its leading rows. ``forward`` runs
    on normalized rows once per curve per epoch.

    Adam's moments are one ``m|v`` vector and the gradient is the first half
    of the scratch's ``g|g²`` buffer, both halves in the ``params`` layout. A
    step writes ``g*g`` into the buffer's second half, scales the buffer by
    ``(1 - b1)|(1 - b2)`` and the moments by ``b1|b2``, adds the buffer to
    the moments, then updates ``params`` in place through two preallocated
    vectors: eleven numpy calls a step (one ``(2, P) / (2, 1)`` division in
    place of the two measured slower). Each element goes through the textbook
    operations in their order, so it is bit-identical to ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g²`` and ``params -= lr (m / c1) / (sqrt(v / c2) + eps)``;
    ``tests/test_enhancer.py::test_train_matches_naive_reference_trainer``
    pins that against the naive trainer in ``tests/oracles.py``.

    Labels are standardized during optimization for conditioning and
    the scale is folded back into the output layer before returning, so the
    model predicts meters directly and the recorded loss curves are in m².
    Raises ValueError if the spread of a feature or label column leaves the
    float range, and TrainingError if the loss goes non-finite.
    """
    if data.n_rows == 0:
        raise ValueError("empty dataset")
    x, y = data.features(), data.labels()

    with np.errstate(over="ignore", invalid="ignore"):  # a spread beyond the floats is reported below
        mean, scale = x.mean(axis=0), x.std(axis=0)
        lmean, lscale = y.mean(axis=0), y.std(axis=0)
    # a mean beyond the floats leaves the spread non-finite too
    finite = np.isfinite(np.concatenate((scale, lscale)))
    if not finite.all():
        column = (FEATURE_COLUMNS + LABEL_COLUMNS)[int(np.argmin(finite))]
        raise ValueError(f"the spread of {column} leaves the float range")
    scale = np.where(scale < 1e-9, 1.0, scale)
    lscale = np.where(lscale < 1e-9, 1.0, lscale)
    y_std = (y - lmean) / lscale
    model = init_model([x.shape[1], *HIDDEN, y.shape[1]], mean, scale, cfg.seed)

    rng = rng_for(cfg.seed, 0x7A11)
    n = x.shape[0]
    n_val = int(round(n * VAL_FRACTION))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_norm = _normalize_into(model, x, np.empty(x.shape))
    x_tr, y_tr = x_norm[train_idx], y_std[train_idx]
    x_val = x_norm[val_idx]
    y_tr_m, y_val_m = y[train_idx], y[val_idx]

    params = model.params
    n_params = params.size
    scratch = StepScratch(model.layer_sizes, BATCH_SIZE)
    terms = scratch.terms
    g_sq = terms[n_params:]
    moments = np.zeros(2 * n_params)
    m, v = moments[:n_params], moments[n_params:]
    betas = np.repeat([ADAM_BETA1, ADAM_BETA2], n_params)
    one_minus_betas = np.repeat([1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2], n_params)
    s1 = np.empty_like(params)
    s2 = np.empty_like(params)
    step = 0

    train_curve: list[float] = []
    val_curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(x_tr.shape[0])
        x_ep, y_ep = x_tr[order], y_tr[order]
        for start in range(0, order.size, BATCH_SIZE):
            stop = start + BATCH_SIZE
            loss, g = loss_and_gradients(
                model, x_ep[start:stop], y_ep[start:stop], scratch, normalized=True
            )
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged at epoch {epoch}")
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            np.multiply(g, g, out=g_sq)
            terms *= one_minus_betas
            moments *= betas
            moments += terms
            np.divide(m, c1, out=s1)
            s1 *= cfg.learning_rate
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            s1 /= s2
            params -= s1
        pred_tr = forward(model, x_tr, normalized=True) * lscale + lmean
        train_curve.append(float(np.mean((pred_tr - y_tr_m) ** 2)))
        if x_val.shape[0] > 0:
            val_pred = forward(model, x_val, normalized=True) * lscale + lmean
            val_curve.append(float(np.mean((val_pred - y_val_m) ** 2)))
    # in place, so the layers stay views into params
    model.weights[-1] *= lscale[:, None]
    model.biases[-1] *= lscale
    model.biases[-1] += lmean
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
    _, grad = loss_and_gradients(model, x, y)
    params = model.params
    worst = 0.0
    scale = max(float(np.abs(grad).max()), 1e-12)
    for i in range(params.size):
        keep = params[i]
        params[i] = keep + step
        hi, _ = loss_and_gradients(model, x, y)
        params[i] = keep - step
        lo, _ = loss_and_gradients(model, x, y)
        params[i] = keep
        numeric = (hi - lo) / (2.0 * step)
        scale = max(scale, abs(numeric))
        worst = max(worst, abs(numeric - grad[i]))
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
        "activation": "relu",
        "weights": [[[float(v) for v in row] for row in w] for w in model.weights],
        "biases": [[float(v) for v in b] for b in model.biases],
        "normalization": {
            "mean": [float(v) for v in model.norm_mean],
            "scale": [float(v) for v in model.norm_scale],
        },
        "train_config": to_dict(train_config) if train_config else None,
        "dataset_fingerprint": fingerprint,
    }
    write_json(doc, path)


def _check_numbers(field: str, value) -> None:
    """Raise ValueError unless every leaf of the nested lists ``value`` is a finite JSON number.

    A bool or ``null`` leaf is refused: numpy would read it as 1.0 or NaN.
    """
    if isinstance(value, list):
        for item in value:
            _check_numbers(field, item)
    elif type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{field} holds an integer beyond the float range") from None
    elif not (type(value) is float and math.isfinite(value)):
        raise ValueError(f"{field} holds {value!r}, not a finite number")


def load_model(path: str | Path) -> EnhancerModel:
    """Read a ``save_model`` file; every array must have the shape ``layer_sizes`` implies.

    Every weight, bias and normalization value must be a finite number, and
    every ``normalization.scale`` > 0 (``train`` floors a zero spread at 1).
    A file that is not such a model, or lacks one of its keys, raises
    ValueError naming the file.
    """
    doc = read_json_object(path)
    with naming(path):
        norm = doc["normalization"]
        if not isinstance(norm, dict):
            raise ValueError("normalization must be an object")
        sizes = doc["layer_sizes"]
        if not (
            isinstance(sizes, list)
            and len(sizes) >= 2
            and all(type(n) is int and n > 0 for n in sizes)
        ):
            raise ValueError("layer_sizes must be a list of at least two positive integers")
        if doc["activation"] != "relu":
            raise ValueError(f"unsupported activation {doc['activation']!r}")
        for field, value in (
            ("weights", doc["weights"]),
            ("biases", doc["biases"]),
            ("normalization.mean", norm["mean"]),
            ("normalization.scale", norm["scale"]),
        ):
            _check_numbers(field, value)
        try:
            weights = [np.array(w, dtype=float) for w in doc["weights"]]
            biases = [np.array(b, dtype=float) for b in doc["biases"]]
            mean = np.array(norm["mean"], dtype=float)
            scale = np.array(norm["scale"], dtype=float)
        except TypeError as exc:  # not a list; a ragged one is a ValueError
            raise ValueError(str(exc)) from None
        # numpy would broadcast a wrong-sized array, so every shape is compared
        layers = list(zip(sizes[:-1], sizes[1:]))
        if (
            [w.shape for w in weights] != [(fan_out, fan_in) for fan_in, fan_out in layers]
            or [b.shape for b in biases] != [(fan_out,) for _, fan_out in layers]
            or mean.shape != (sizes[0],)
            or scale.shape != (sizes[0],)
        ):
            raise ValueError(f"array shapes do not match layer sizes {sizes}")
        if not (scale > 0).all():
            raise ValueError(f"normalization.scale holds {float(scale.min())!r}, not a number > 0")
        params = np.concatenate([a.reshape(-1) for layer in zip(weights, biases) for a in layer])
        return EnhancerModel(layer_sizes=sizes, params=params, norm_mean=mean, norm_scale=scale)


def _walk_rows(sc) -> list[tuple]:
    """The dataset rows of one walk, one per frame that yields a corner pair."""
    d, h = sc.staircase.depth_m, sc.staircase.height_m
    # looked up in the module at each call, where the benchmark's tracer and the tests patch it
    estimates = scenario.run_scenario(sc).estimates
    return [
        sample_from_estimate(est, d, h, sc.name, frame_id)
        for frame_id, est in enumerate(estimates)
        if est is not None
    ]


def assemble_dataset(scenarios) -> Dataset:
    """Run the full pipeline over scenario configs and collect the dataset.

    One row per frame that yields a corner pair, in scenario order.
    ``scenarios`` is an iterable of ScenarioConfig. The walks run on every
    usable CPU, in this process and in forked children, each process taking
    the next unclaimed walk when it is free (see ``parallel``). A walk that
    raises fails the sweep with the error of the first such walk in scenario
    order, as if the walks had run one after another, and no walk is
    claimed once one has failed.
    """
    # imported here, so that the commands that never sweep never load it
    from .parallel import run_claimed

    scenarios = list(scenarios)
    done = run_claimed(_walk_rows, scenarios, scenario._usable_cpus())
    # walks are claimed in order, so every walk before the first failed one has its rows
    for i in range(len(scenarios)):
        if isinstance(done[i], Exception):
            raise done[i]
    return Dataset.from_rows(row for i in range(len(scenarios)) for row in done[i])
