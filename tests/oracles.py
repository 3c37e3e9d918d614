"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (quadratic DFTs, explicit loops) so a
bug in the library's vectorized code cannot hide in a shared shortcut.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from stairdim.dsp_chain import TargetEntry, TargetList
from stairdim.enhancer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_SIZE,
    DATASET_COLUMNS,
    HIDDEN,
    VAL_FRACTION,
    Dataset,
)
from stairdim.numerics import rng_for


def naive_dft(x: np.ndarray, n: int | None = None) -> np.ndarray:
    """O(n^2) forward DFT of a 1-D sequence, zero-padded to n."""
    x = np.asarray(x, dtype=np.complex128)
    if n is None:
        n = x.size
    if n < x.size:
        raise ValueError("n shorter than input")
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        acc = 0.0 + 0.0j
        for m in range(x.size):
            acc += x[m] * np.exp(-2j * math.pi * k * m / n)
        out[k] = acc
    return out


def dft_matrix(n: int, in_len: int | None = None) -> np.ndarray:
    """DFT as an explicit (n, in_len) matrix from the defining formula.

    Same O(n^2) direct evaluation as naive_dft (no FFT factorization), built
    as a matrix so bulk checks over many columns stay affordable. in_len < n
    expresses zero-padding by simply dropping the absent input columns.
    """
    if in_len is None:
        in_len = n
    if in_len > n:
        raise ValueError("input longer than transform")
    k = np.arange(n)[:, None]
    m = np.arange(in_len)[None, :]
    return np.exp(-2j * math.pi * k * m / n)


def naive_ca_cfar(profile, training_cells: int, guard_cells: int, pfa: float) -> list[int]:
    """Cell-averaging CFAR with every cell's training cells listed one by one.

    Cell i trains on up to ``training_cells`` cells on each side past
    ``guard_cells`` guard cells; at the profile edges only the cells that
    exist count, so an edge cell is one-sided. With N cells present,
    alpha = N (pfa^(-1/N) - 1), and cell i is a detection when it strictly
    exceeds alpha * (sum of its training cells) / N.
    """
    profile = [float(v) for v in profile]
    n = len(profile)
    hits = []
    for i in range(n):
        left = [profile[j] for j in range(i - guard_cells - training_cells, i - guard_cells) if j >= 0]
        right = [profile[j] for j in range(i + guard_cells + 1, i + guard_cells + 1 + training_cells)
                 if j < n]
        cells = left + right
        alpha = len(cells) * (pfa ** (-1.0 / len(cells)) - 1.0)
        if profile[i] > alpha * sum(cells) / len(cells):
            hits.append(i)
    return hits


def naive_local_maxima(profile, indices) -> list[int]:
    """The indices whose cell is >= its left and > its right neighbour; an end compares inward."""
    p = [float(v) for v in profile]
    last = len(p) - 1
    return [i for i in indices if (i == 0 or p[i] >= p[i - 1]) and (i == last or p[i] > p[i + 1])]


def naive_parabolic_offset(profile: np.ndarray) -> np.ndarray:
    """Three-point parabolic vertex offset at every cell along the last axis, clamped to half a bin.

    The array form: every cell is fitted and a caller indexes the cells it
    wants. 0 at the edges and where the denominator ``a - 2b + c`` is 0.
    """
    a, b, c = profile[..., :-2], profile[..., 1:-1], profile[..., 2:]
    denom = a - 2.0 * b + c
    offset = np.zeros(profile.shape)
    np.divide(0.5 * (a - c), denom, out=offset[..., 1:-1], where=denom != 0.0)
    return np.minimum(np.maximum(offset, -0.5), 0.5)


def naive_target_list(sl, bins, cfg, profile) -> TargetList:
    """The target list of the range ``bins`` (ascending, repeats kept), built in array form.

    Angular power is ``|fftshift(fft(row, aoa_fft_len))|^2`` per bin; its
    peaks pass :func:`naive_ca_cfar` and :func:`naive_local_maxima` row by
    row. Every cell of the power rows and of ``profile`` gets a parabolic fit
    (:func:`naive_parabolic_offset`), which the peaks then index, and the
    reported and sub-bin angles take one ``arcsin`` call each.
    """
    bins = np.asarray(bins, dtype=np.intp)
    n = cfg.aoa_fft_len
    power = np.abs(np.fft.fftshift(np.fft.fft(sl.samples[bins], n=n), axes=-1)) ** 2
    c = cfg.aoa_cfar
    peaks = np.zeros(power.shape, dtype=bool)
    for i, row in enumerate(power):
        hits = naive_ca_cfar(row, c.training_cells, c.guard_cells, c.pfa)
        peaks[i, naive_local_maxima(row, hits)] = True
    rows, cols = np.nonzero(peaks)
    centered = cols - n // 2
    angles = np.arcsin(2.0 * centered / n)
    fine_angles = np.arcsin(2.0 * (centered + naive_parabolic_offset(power)[rows, cols]) / n)
    fine_r = (bins + naive_parabolic_offset(np.asarray(profile))[bins]) * sl.range_bin_m
    bin_r = bins * sl.range_bin_m
    entries = []
    for i in range(bins.size):
        on_row = rows == i
        if on_row.any():
            entries.append(
                TargetEntry(
                    range_m=float(fine_r[i] if cfg.peak_interp else bin_r[i]),
                    angles_rad=tuple(angles[on_row].tolist()),
                    magnitude=float(power[i, peaks[i]].max()),
                    fine_range_m=float(fine_r[i]),
                    fine_angles_rad=tuple(fine_angles[on_row].tolist()),
                )
            )
    return TargetList(tuple(entries), gamma_rad=sl.meta.gamma_rad, timestamp_s=sl.meta.timestamp_s)


def hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window from its defining formula."""
    m = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * m / n)


def naive_train(
    x: np.ndarray, y: np.ndarray, epochs: int, learning_rate: float, seed: int
) -> tuple[np.ndarray, list[float], list[float]]:
    """Mini-batch Adam on the 6-16-8-2 ReLU network, written out step by step.

    The same seeded draws as ``enhancer.train`` (init, validation split and
    batch order), but each batch is gathered by fancy indexing, every layer
    keeps its own weight, bias and Adam moment arrays, and each update
    expression allocates its result. Returns the trained parameters in the
    flat ``params`` layout (each layer's row-major weights, then its bias)
    and the train and validation loss curves in m².
    """
    sizes = [x.shape[1], *HIDDEN, y.shape[1]]
    init = rng_for(seed, 0x141)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(init.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-9, 1.0, scale)
    lmean = y.mean(axis=0)
    lscale = y.std(axis=0)
    lscale = np.where(lscale < 1e-9, 1.0, lscale)
    y_std = (y - lmean) / lscale

    def layers(a):
        acts = [(a - mean) / scale]
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = acts[-1] @ w.T + b
            acts.append(z if i == len(weights) - 1 else np.maximum(z, 0.0))
        return acts

    rng = rng_for(seed, 0x7A11)
    n_val = int(round(x.shape[0] * VAL_FRACTION))
    perm = rng.permutation(x.shape[0])
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    train_curve, val_curve = [], []
    for _ in range(epochs):
        order = rng.permutation(train_idx.size)
        for start in range(0, order.size, BATCH_SIZE):
            idx = train_idx[order[start : start + BATCH_SIZE]]
            xb, yb = x[idx], y_std[idx]
            acts = layers(xb)
            err = acts[-1] - yb
            delta = 2.0 * err / (xb.shape[0] * yb.shape[1])
            grad_w, grad_b = [None] * len(weights), [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                grad_w[i] = delta.T @ acts[i]
                grad_b[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i]) * (acts[i] > 0.0)
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            for j, g in enumerate(grad_w + grad_b):
                m[j] = ADAM_BETA1 * m[j] + (1.0 - ADAM_BETA1) * g
                v[j] = ADAM_BETA2 * v[j] + (1.0 - ADAM_BETA2) * g**2
                new = params[j] - learning_rate * (m[j] / c1) / (np.sqrt(v[j] / c2) + ADAM_EPS)
                params[j][...] = new  # weights and biases alias these arrays
        for idx, curve in ((train_idx, train_curve), (val_idx, val_curve)):
            if idx.size:
                pred = layers(x[idx])[-1] * lscale + lmean
                curve.append(float(np.mean((pred - y[idx]) ** 2)))
    weights[-1] *= lscale[:, None]
    biases[-1] *= lscale
    biases[-1] += lmean
    flat = np.concatenate([a.reshape(-1) for layer in zip(weights, biases) for a in layer])
    return flat, train_curve, val_curve


# --- datasets as lists of dicts, one per row, keyed by column name ---

_DATASET_FILE_COLUMNS = (
    "r1_m", "theta1_rad", "r2_m", "theta2_rad", "hr_m", "gamma_rad", "d_true_m", "h_true_m",
    "scenario_id", "frame_id", "r1_fine_m", "theta1_fine_rad", "r2_fine_m", "theta2_fine_rad",
)


def naive_read_dataset(path) -> list[np.ndarray]:
    """The columns of a dataset file, read a row at a time by the csv module.

    Each cell goes through ``float()`` or ``int()`` on its own. Returns the
    14 columns in file order: float64 arrays, ``scenario_id`` as an object
    array of str and ``frame_id`` as int64. A bad file raises ValueError with
    the message of ``read_dataset``: every row is checked for its width
    first, then the cells column by column, and the line named is the one on
    which the bad row ends. A cell the csv module refuses (one longer than
    ``csv.field_size_limit()``) raises ValueError naming the line it was
    read on.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows, ends = [], []
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected the dataset header")
            if tuple(header) != _DATASET_FILE_COLUMNS:
                raise ValueError(f"{path}: unexpected dataset columns {tuple(header)!r}")
            for row in reader:
                rows.append(row)
                ends.append(reader.line_num)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    for row, line in zip(rows, ends):
        if len(row) != len(_DATASET_FILE_COLUMNS):
            raise ValueError(f"{path}: line {line} has {len(row)} cells")
    columns = []
    for j, name in enumerate(_DATASET_FILE_COLUMNS):
        values = []
        for row, line in zip(rows, ends):
            cell = row[j]
            if name == "scenario_id":
                values.append(cell)
                continue
            try:
                value = int(cell) if name == "frame_id" else float(cell)
            except ValueError:
                value = None
            if name == "frame_id":
                if value is None or not -(2**63) <= value < 2**63:
                    raise ValueError(f"{path}: line {line}: {name} {cell!r} is not an integer")
            elif value is None or not math.isfinite(value):
                raise ValueError(f"{path}: line {line}: {name} {cell!r} is not a finite number")
            values.append(value)
        dtype = {"scenario_id": object, "frame_id": np.int64}.get(name, np.float64)
        column = np.empty(len(values), dtype=dtype)
        column[:] = values
        columns.append(column)
    return columns



def dataset_of(rows: list[dict]) -> Dataset:
    """The column form of dict rows."""
    return Dataset.from_rows([tuple(r[c] for c in DATASET_COLUMNS) for r in rows])


def rows_of(data: Dataset) -> list[dict]:
    """The dict rows of a dataset, with Python values."""
    columns = [c.tolist() for c in data]
    return [dict(zip(DATASET_COLUMNS, r)) for r in zip(*columns)]


def _walk_number(scenario_id: str) -> int | None:
    head, sep, tail = scenario_id.rpartition("_w")
    return int(tail) if sep and tail.isdecimal() else None


def naive_split(rows: list[dict], split_seed: int = 0, held_out_combos: int = 7):
    """The train/test split, one row at a time over dict rows.

    A row's combination is its labels rounded to whole millimetres as Python
    ints. The seeded generator draws the held-out combinations from their
    sorted list; of every other combination, the rows of its highest walk
    number (the digits after the id's last ``_w``) go to the test set too.
    """
    keys = [(round(r["d_true_m"] * 1000), round(r["h_true_m"] * 1000)) for r in rows]
    combos = sorted(set(keys))
    if held_out_combos >= len(combos):
        raise ValueError(f"cannot hold out {held_out_combos} of {len(combos)} combinations")
    rng = rng_for(split_seed, 0x59117)
    held = {combos[i] for i in rng.choice(len(combos), held_out_combos, replace=False)}
    last_walk: dict = {}
    for key, r in zip(keys, rows):
        w = _walk_number(r["scenario_id"])
        if w is not None and (key not in last_walk or w > last_walk[key]):
            last_walk[key] = w
    train, test = [], []
    for key, r in zip(keys, rows):
        w = _walk_number(r["scenario_id"])
        if key in held or (w is not None and w == last_walk[key]):
            test.append(r)
        else:
            train.append(r)
    if not train or not test:
        raise ValueError("degenerate split: one of the partitions is empty")
    return train, test


def naive_per_acquisition(rows: list[dict], estimates: dict, truths):
    """Per scenario id, in sorted id order: ``np.median`` of each named estimate
    over the id's rows, gathered in a dict of row lists, and the truth of its
    first row. Returns ``({name: medians}, truths)``."""
    groups: dict[str, list[int]] = {}
    for i, r in enumerate(rows):
        groups.setdefault(r["scenario_id"], []).append(i)
    medians = {name: [] for name in estimates}
    first_truths = []
    for sid in sorted(groups):
        idx = groups[sid]
        for name, est in estimates.items():
            medians[name].append(np.median([est[i] for i in idx], axis=0))
        first_truths.append(truths[idx[0]])
    return {name: np.array(m) for name, m in medians.items()}, np.array(first_truths)
