import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairdim.dimension import CorrectedTarget, DimensionEstimate
from stairdim.enhancer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_SIZE,
    DATASET_COLUMNS,
    Dataset,
    EnhancerModel,
    StepScratch,
    TrainConfig,
    TrainingError,
    VAL_FRACTION,
    assemble_dataset,
    dataset_fingerprint,
    forward,
    gradient_check,
    init_model,
    load_model,
    loss_and_gradients,
    read_dataset,
    sample_from_estimate,
    save_model,
    split_dataset,
    train,
    write_dataset,
)
from stairdim.numerics import rng_for
from stairdim.scenario import build_sweep
from stairdim.scene import radar_height

from oracles import dataset_of, naive_read_dataset, naive_split, naive_train, rows_of


def _ct(x, y, mag=1.0, fine_dr=0.0, fine_dth=0.0):
    # fine_dr / fine_dth: where inside its bin the sub-bin fit puts the corner
    r = math.hypot(x, y)
    th = math.atan2(y, x)
    return CorrectedTarget(
        true_angle_rad=th,
        x_m=x,
        y_m=y,
        source_range_m=r,
        source_angle_rad=th,
        magnitude=mag,
        fine_range_m=r + fine_dr,
        fine_true_angle_rad=th + fine_dth,
    )


def _random_sample(rng, d=0.30, h=0.15, sid="d30h15_w0", fid=0):
    reported = dict(
        r1_m=rng.uniform(1.0, 3.0),
        theta1_rad=rng.uniform(-0.6, 0.3),
        r2_m=rng.uniform(1.0, 3.5),
        theta2_rad=rng.uniform(-0.6, 0.3),
        hr_m=rng.uniform(0.35, 0.5),
        gamma_rad=rng.uniform(-0.5, -0.2),
    )
    # sub-bin values lie within half a range bin (2.08 cm) and half an AoA bin
    # (about 0.016 rad near boresight) of the reported ones
    return dict(
        **reported,
        d_true_m=d,
        h_true_m=h,
        scenario_id=sid,
        frame_id=fid,
        r1_fine_m=reported["r1_m"] + rng.uniform(-0.02, 0.02),
        theta1_fine_rad=reported["theta1_rad"] + rng.uniform(-0.015, 0.015),
        r2_fine_m=reported["r2_m"] + rng.uniform(-0.02, 0.02),
        theta2_fine_rad=reported["theta2_rad"] + rng.uniform(-0.015, 0.015),
    )


def test_radar_height_worked_examples():
    # neutral stance: the -20 deg mount tilt cancels the +20 deg offset
    assert radar_height(0.45, math.radians(-20.0)) == pytest.approx(0.45, abs=1e-12)
    assert radar_height(0.45, 0.0) == pytest.approx(0.45 * math.cos(math.radians(20.0)), abs=1e-12)
    assert radar_height(0.40, math.radians(70.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        radar_height(0.0, 0.0)
    with pytest.raises(ValueError):
        radar_height(-0.45, 0.0)


def test_sample_feature_and_label_layout():
    rng = np.random.default_rng(81)
    rows = [_random_sample(rng), _random_sample(rng, d=0.28, h=0.12)]
    data = dataset_of(rows)
    x, y = data.features(), data.labels()
    assert x.shape == (2, 6) and y.shape == (2, 2)
    assert x.flags.c_contiguous and x.dtype == y.dtype == np.float64
    for f, labels, s in zip(x, y, rows):
        # the network sees the corners at sub-bin precision, not the bin centres
        assert list(f) == [
            s["r1_fine_m"],
            s["theta1_fine_rad"],
            s["r2_fine_m"],
            s["theta2_fine_rad"],
            s["hr_m"],
            s["gamma_rad"],
        ]
        assert all(f[i] != s[c] for i, c in enumerate(("r1_m", "theta1_rad", "r2_m", "theta2_rad")))
        assert list(labels) == [s["d_true_m"], s["h_true_m"]]
    assert list(y[0]) == [0.30, 0.15]


def test_initial_estimate_is_axis_difference():
    row = dict(
        r1_m=2.0,
        theta1_rad=0.1,
        r2_m=2.4,
        theta2_rad=0.2,
        hr_m=0.45,
        gamma_rad=-0.3,
        d_true_m=0.3,
        h_true_m=0.15,
        scenario_id="d30h15_w0",
        frame_id=3,
        r1_fine_m=2.01,
        theta1_fine_rad=0.11,
        r2_fine_m=2.38,
        theta2_fine_rad=0.19,
    )
    swapped = dict(row, r1_m=2.4, theta1_rad=0.2, r2_m=2.0, theta2_rad=0.1, frame_id=4)
    # the initial estimate is the pair search's: reported values, not sub-bin
    initial = dataset_of([row, swapped]).initial_estimate()
    assert initial.shape == (2, 2)
    d, h = initial[0]
    assert d == pytest.approx(2.4 * math.cos(0.2) - 2.0 * math.cos(0.1), abs=1e-12)
    assert h == pytest.approx(2.4 * math.sin(0.2) - 2.0 * math.sin(0.1), abs=1e-12)
    assert list(initial[1]) == [-d, -h]  # each row from its own columns


def test_sample_from_estimate_orders_corners_by_range():
    near, far = _ct(2.0, 0.15, fine_dr=0.01, fine_dth=-0.004), _ct(2.3, 0.30, fine_dr=-0.012, fine_dth=0.006)
    est = DimensionEstimate(
        depth_m=0.3,
        height_m=0.15,
        corner_pair=(far, near),  # deliberately reversed
        gamma_rad=-0.35,
        timestamp_s=1.0,
        radar_height_m=0.44,
    )
    row = sample_from_estimate(est, 0.30, 0.15, "d30h15_w1", 10)
    assert len(row) == len(DATASET_COLUMNS)
    s = dict(zip(DATASET_COLUMNS, row))
    assert s["r1_m"] == near.source_range_m and s["r2_m"] == far.source_range_m
    assert s["theta1_rad"] == near.true_angle_rad
    assert (s["r1_fine_m"], s["theta1_fine_rad"]) == (near.fine_range_m, near.fine_true_angle_rad)
    assert (s["r2_fine_m"], s["theta2_fine_rad"]) == (far.fine_range_m, far.fine_true_angle_rad)
    assert s["hr_m"] == 0.44 and s["gamma_rad"] == -0.35
    assert (s["scenario_id"], s["frame_id"]) == ("d30h15_w1", 10)
    assert rows_of(Dataset.from_rows([row])) == [s]

    bare = DimensionEstimate(0.3, 0.15, (near, far), -0.35, 1.0, radar_height_m=None)
    with pytest.raises(ValueError):
        sample_from_estimate(bare, 0.30, 0.15, "x", 0)


# --- network mechanics ---


def _zero_model(sizes=(6, 16, 8, 2)):
    m = init_model(sizes, np.zeros(6), np.ones(6), seed=0)
    for w in m.weights:
        w[:] = 0.0
    return m


def test_forward_zero_model_outputs_zero():
    m = _zero_model()
    out = forward(m, np.zeros(6))
    assert out.shape == (2,)
    assert np.all(out == 0.0)
    batch = forward(m, np.zeros((5, 6)))
    assert batch.shape == (5, 2)
    assert np.all(batch == 0.0)


def test_forward_output_bias_passthrough():
    m = _zero_model()
    m.biases[-1][:] = [0.3, 0.15]
    out = forward(m, np.ones(6))
    assert out == pytest.approx([0.3, 0.15], abs=1e-15)


def test_forward_rejects_non_finite():
    m = _zero_model()
    with pytest.raises(ValueError):
        forward(m, np.array([1.0, 2.0, math.nan, 0.0, 0.0, 0.0]))


def test_forward_normalization_invariance():
    # rescaled inputs with matching stats normalize to the same activations
    rng = np.random.default_rng(82)
    m = init_model([6, 16, 8, 2], rng.normal(size=6), rng.uniform(0.5, 2.0, size=6), seed=3)
    x = rng.normal(size=(10, 6))
    s = rng.uniform(0.5, 4.0, size=6)
    t = rng.normal(size=6)
    m2 = EnhancerModel(
        layer_sizes=m.layer_sizes,
        params=m.params.copy(),
        norm_mean=m.norm_mean * s + t,
        norm_scale=m.norm_scale * s,
    )
    assert np.allclose(forward(m2, x * s + t), forward(m, x), atol=1e-12)


def test_init_model_bounds_and_determinism():
    a = init_model([6, 16, 8, 2], np.zeros(6), np.ones(6), seed=7)
    b = init_model([6, 16, 8, 2], np.zeros(6), np.ones(6), seed=7)
    c = init_model([6, 16, 8, 2], np.zeros(6), np.ones(6), seed=8)
    assert a.layer_sizes == [6, 16, 8, 2]
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    for w in a.weights:
        assert np.abs(w).max() <= 1.0 / math.sqrt(w.shape[1])
    assert all(np.all(bias == 0.0) for bias in a.biases)


def test_zero_model_gradient_hand_example():
    # zero weights: output bias gradient is 2 (0 - y) / 2 = -y, weights get 0
    m = _zero_model()
    y = np.array([0.3, 0.15])
    loss, grad = loss_and_gradients(m, np.ones(6), y)
    assert loss == pytest.approx(float(np.mean(y**2)), abs=1e-15)
    # the output bias is the last block of the flat layout
    assert grad.shape == m.params.shape
    assert grad[-2:] == pytest.approx(-y, abs=1e-15)
    assert np.all(grad[:-2] == 0.0)


def test_linear_single_layer_closed_form_gradient():
    rng = np.random.default_rng(83)
    m = init_model([6, 2], np.zeros(6), np.ones(6), seed=1)
    x = rng.normal(size=(8, 6))
    y = rng.normal(size=(8, 2))
    loss, grad = loss_and_gradients(m, x, y)
    gw, gb = [grad[:12].reshape(2, 6)], [grad[12:]]
    pred = x @ m.weights[0].T + m.biases[0]
    err = pred - y
    n, d_out = err.shape
    assert loss == pytest.approx(float(np.mean(err**2)), rel=1e-12)
    assert np.allclose(gw[0], (2.0 / (n * d_out)) * err.T @ x, atol=1e-12)
    assert np.allclose(gb[0], (2.0 / (n * d_out)) * err.sum(axis=0), atol=1e-12)


def _fresh(model, x, y):
    loss, grad = loss_and_gradients(model, x, y)
    return loss, grad.tobytes()


def test_reused_scratch_equals_fresh_calls():
    # full batch, short batch, full batch again through one scratch: each
    # result is bit-equal to a call that builds its own buffers
    rng = np.random.default_rng(97)
    m = init_model([6, 16, 8, 2], rng.normal(size=6), rng.uniform(0.5, 2.0, size=6), seed=2)
    scratch = StepScratch(m.layer_sizes, BATCH_SIZE)
    for n in (BATCH_SIZE, 7, BATCH_SIZE):
        x = rng.normal(size=(n, 6))
        y = rng.normal(size=(n, 2))
        # every buffer poisoned, so a stale row past n would show in the result
        for buf in (*scratch.acts, *scratch.deltas, scratch.grad):
            buf.fill(np.nan)
        for mask in scratch.masks:
            mask.fill(True)
        loss, grad = loss_and_gradients(m, x, y, scratch)
        assert grad is scratch.grad
        assert (loss, grad.tobytes()) == _fresh(m, x, y)

    # one sample as 1-D arrays is the same as that sample as a (1, 6) batch
    x, y = rng.normal(size=6), rng.normal(size=2)
    loss, grad = loss_and_gradients(m, x, y, scratch)
    assert (loss, grad.tobytes()) == _fresh(m, x, y) == _fresh(m, x[None], y[None])

    # the gradient is a view: the next call with the same scratch overwrites it
    kept = grad.copy()
    loss_and_gradients(m, x + 1.0, y, scratch)
    assert not np.array_equal(grad, kept)
    with pytest.raises(ValueError, match="a batch of 33 rows does not fit a scratch of 32"):
        loss_and_gradients(m, np.zeros((33, 6)), np.zeros((33, 2)), scratch)


def _min_preactivation(model, x):
    # central differences are only valid away from the relu kink; with
    # zero-initialized biases a sample that switches every unit of one layer
    # off lands later layers exactly on it, so kink-adjacent draws are skipped
    a = (np.asarray(x) - model.norm_mean) / model.norm_scale
    worst = math.inf
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T + b
        worst = min(worst, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return worst


def test_gradients_match_central_differences():
    rng = np.random.default_rng(84)
    checked = 0
    for draw in range(40):
        m = init_model([6, 5, 4, 2], np.zeros(6), np.ones(6), seed=100 + draw)
        x = rng.normal(size=(3, 6))
        y = rng.normal(size=(3, 2)) * 0.2
        if _min_preactivation(m, x) < 1e-3:
            continue
        checked += 1
        assert gradient_check(m, x, y) < 1e-5
    assert checked >= 20


# --- training ---


def test_train_memorizes_single_sample():
    rng = np.random.default_rng(85)
    data = dataset_of([_random_sample(rng)])
    res = train(data, TrainConfig(epochs=500, seed=0))
    assert res.train_loss[-1] < 1e-8
    assert forward(res.model, data.features()[0]) == pytest.approx(list(data.labels()[0]), abs=1e-4)


def test_train_learns_linear_map():
    rng = np.random.default_rng(86)
    M = np.array(
        [
            [0.05, 0.02, -0.04, 0.01, 0.1, 0.0],
            [-0.02, 0.03, 0.05, -0.01, 0.0, 0.08],
        ]
    )
    c = np.array([0.30, 0.15])
    samples = []
    for i in range(200):
        f = np.array(
            [
                rng.uniform(1.0, 3.0),
                rng.uniform(-0.6, 0.3),
                rng.uniform(1.0, 3.5),
                rng.uniform(-0.6, 0.3),
                rng.uniform(0.35, 0.5),
                rng.uniform(-0.5, -0.2),
            ]
        )
        y = M @ f + c
        # reported values on a coarse grid; the map is over the sub-bin features
        reported = f.copy()
        reported[:4] = np.round(reported[:4] / 0.04) * 0.04
        samples.append((*reported, y[0], y[1], f"s_w{i % 4}", i, *f[:4]))
    res = train(Dataset.from_rows(samples), TrainConfig(epochs=500, seed=0))
    assert res.train_loss[-1] < 1e-5
    assert len(res.train_loss) == 500
    assert len(res.val_loss) == 500
    # loss curves are in physical units: early epochs sit far above the floor
    assert res.train_loss[0] > res.train_loss[-1]


def test_train_is_deterministic():
    rng = np.random.default_rng(87)
    samples = dataset_of([_random_sample(rng, sid=f"s_w{i % 3}", fid=i) for i in range(40)])
    r1 = train(samples, TrainConfig(epochs=20, seed=5))
    r2 = train(samples, TrainConfig(epochs=20, seed=5))
    r3 = train(samples, TrainConfig(epochs=20, seed=6))
    assert r1.train_loss == r2.train_loss
    for w1, w2 in zip(r1.model.weights, r2.model.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(r1.model.biases, r2.model.biases):
        assert np.array_equal(b1, b2)
    assert any(not np.array_equal(w1, w3) for w1, w3 in zip(r1.model.weights, r3.model.weights))


def test_train_validation_and_divergence_guards():
    rng = np.random.default_rng(88)
    with pytest.raises(ValueError, match="empty dataset"):
        train(Dataset.from_rows([]), TrainConfig(epochs=1))
    # an absurd learning rate blows the weights up within the first epoch;
    # the overflow on the way to inf is the expected mechanism, not a defect
    many = dataset_of([_random_sample(rng, fid=i) for i in range(40)])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        TrainingError, match="training diverged"
    ):
        train(many, TrainConfig(epochs=3, learning_rate=1e100, seed=0))


@pytest.mark.parametrize(
    "column, rows, value",
    [
        ("r1_fine_m", slice(None), 1e308),  # a mean beyond the floats
        ("gamma_rad", slice(5, 6), 1e300),  # a finite mean, a spread beyond the floats
        ("h_true_m", slice(5, 6), 1e200),
    ],
)
def test_train_refuses_a_column_whose_spread_leaves_the_float_range(column, rows, value):
    rng = np.random.default_rng(89)
    data = dataset_of([_random_sample(rng, fid=i) for i in range(40)])
    getattr(data, column)[rows] = value
    with pytest.raises(ValueError, match=f"^the spread of {column} leaves the float range$"):
        train(data, TrainConfig(epochs=1))


@pytest.mark.parametrize("seed", [2, 9])
def test_train_matches_naive_reference_trainer(seed):
    # 101 rows: 10 go to validation and 91 train in batches of 32, 32 and 27
    rng = np.random.default_rng(95)
    samples = [
        _random_sample(rng, d=0.26 + 0.02 * (i % 5), h=0.10 + 0.02 * (i % 4), fid=i)
        for i in range(101)
    ]
    data = dataset_of(samples)
    res = train(data, TrainConfig(epochs=3, learning_rate=1e-2, seed=seed))
    x, y = data.features(), data.labels()
    params, train_curve, val_curve = naive_train(x, y, epochs=3, learning_rate=1e-2, seed=seed)
    assert res.model.params.tobytes() == params.tobytes()
    assert res.train_loss == train_curve and len(train_curve) == 3
    assert res.val_loss == val_curve and len(val_curve) == 3


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 80),
    epochs=st.integers(1, 3),
    learning_rate=st.sampled_from([1e-3, 1e-2, 5e-2, 0.2]),
    seed=st.integers(0, 2**16),
    data_seed=st.integers(0, 2**16),
)
# one row; the most rows with an empty validation split; the fewest with one
# validation row; 33 training rows, whose last batch is a single row
@example(n=1, epochs=2, learning_rate=1e-2, seed=0, data_seed=0)
@example(n=5, epochs=3, learning_rate=1e-2, seed=1, data_seed=1)
@example(n=6, epochs=1, learning_rate=1e-3, seed=2, data_seed=2)
@example(n=37, epochs=2, learning_rate=5e-2, seed=3, data_seed=3)
def test_train_matches_naive_reference_trainer_over_shapes(n, epochs, learning_rate, seed, data_seed):
    rng = np.random.default_rng(data_seed)
    samples = [
        _random_sample(rng, d=0.26 + 0.02 * rng.integers(5), h=0.10 + 0.02 * rng.integers(4), fid=i)
        for i in range(n)
    ]
    data = dataset_of(samples)
    res = train(data, TrainConfig(epochs=epochs, learning_rate=learning_rate, seed=seed))
    params, train_curve, val_curve = naive_train(
        data.features(), data.labels(), epochs=epochs, learning_rate=learning_rate, seed=seed
    )
    assert res.model.params.tobytes() == params.tobytes()
    assert res.train_loss == train_curve and len(train_curve) == epochs
    assert res.val_loss == val_curve and len(val_curve) == (epochs if n > 5 else 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, BATCH_SIZE), offset=st.integers(0, 8))
def test_normalized_rows_equal_raw_rows(seed, n, offset):
    # train normalizes its rows once and hands slices of them on; that path
    # must give the loss, gradient and predictions of the raw rows, bit for bit
    rng = np.random.default_rng(seed)
    mean = rng.normal(size=6) * rng.uniform(0.1, 10.0, size=6)
    scale = rng.uniform(0.05, 20.0, size=6)
    model = init_model([6, 16, 8, 2], mean, scale, seed=int(rng.integers(1000)))
    model.params += rng.normal(scale=0.1, size=model.params.size)  # biases off zero too
    x = mean + scale * rng.normal(size=(n + offset, 6)) * rng.uniform(0.5, 3.0)
    y = rng.normal(size=(n + offset, 2))
    x_norm = np.subtract(x, mean)
    x_norm /= scale
    x, y, x_norm = x[offset:], y[offset:], x_norm[offset:]

    loss, grad = loss_and_gradients(model, x, y)
    scratch = StepScratch(model.layer_sizes, BATCH_SIZE)
    for buf in (*scratch.acts, *scratch.deltas, scratch.terms):
        buf.fill(np.nan)
    loss_n, grad_n = loss_and_gradients(model, x_norm, y, scratch, normalized=True)
    assert loss_n == loss and grad_n.tobytes() == grad.tobytes()
    assert forward(model, x_norm, normalized=True).tobytes() == forward(model, x).tobytes()


def _param_blocks(model, flat):
    # per-layer (weights, bias) slices of a flat vector, in the params layout
    at = 0
    for w, b in zip(model.weights, model.biases):
        yield flat[at : at + w.size].reshape(w.shape)
        at += w.size
        yield flat[at : at + b.size]
        at += b.size


def test_one_epoch_is_one_textbook_adam_step():
    # 30 rows: 3 go to validation and the other 27 make one batch, so a
    # single epoch is exactly one Adam step from zero moments
    rng = np.random.default_rng(89)
    samples = [
        _random_sample(rng, d=0.26 + 0.02 * (i % 4), h=0.10 + 0.02 * (i % 3), fid=i)
        for i in range(30)
    ]
    cfg = TrainConfig(epochs=1, learning_rate=1e-2, seed=4)
    data = dataset_of(samples)
    res = train(data, cfg)

    x, y = data.features(), data.labels()
    lmean, lscale = y.mean(axis=0), y.std(axis=0)
    model = init_model([6, 16, 8, 2], x.mean(axis=0), x.std(axis=0), seed=cfg.seed)
    split = rng_for(cfg.seed, 0x7A11)
    train_idx = split.permutation(len(samples))[round(len(samples) * VAL_FRACTION) :]
    assert train_idx.size <= BATCH_SIZE
    batch = train_idx[split.permutation(train_idx.size)]
    _, grad = loss_and_gradients(model, x[batch], ((y - lmean) / lscale)[batch])

    c1, c2 = 1.0 - ADAM_BETA1**1, 1.0 - ADAM_BETA2**1
    expected = []
    for p, g in zip(_param_blocks(model, model.params), _param_blocks(model, grad)):
        m = ADAM_BETA1 * np.zeros_like(g) + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * np.zeros_like(g) + (1.0 - ADAM_BETA2) * g**2
        expected.append(p - cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS))
    # the label scale folds into the output layer
    expected[-2] = lscale[:, None] * expected[-2]
    expected[-1] = lscale * expected[-1] + lmean

    got = [a for layer in zip(res.model.weights, res.model.biases) for a in layer]
    assert len(got) == len(expected) == 6
    for a, e in zip(got, expected):
        assert np.array_equal(a, e)
    assert np.array_equal(res.model.norm_mean, model.norm_mean)
    for m in (model, res.model):
        assert m.params.shape == (6 * 16 + 16 + 16 * 8 + 8 + 8 * 2 + 2,)
        assert all(np.shares_memory(a, m.params) for a in (*m.weights, *m.biases))


# --- persistence ---


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(90)
    samples = dataset_of([_random_sample(rng, fid=i) for i in range(30)])
    res = train(samples, TrainConfig(epochs=10, seed=1))
    path = tmp_path / "model.json"
    save_model(res.model, path, train_config=TrainConfig(epochs=10, seed=1), fingerprint="sha256:ab")
    back = load_model(path)
    x = samples.features()
    assert np.array_equal(forward(back, x), forward(res.model, x))  # exact float round trip
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "layer_sizes",
        "activation",
        "weights",
        "biases",
        "normalization",
        "train_config",
        "dataset_fingerprint",
    }
    assert doc["layer_sizes"] == [6, 16, 8, 2]
    assert set(doc["normalization"]) == {"mean", "scale"}
    assert doc["dataset_fingerprint"] == "sha256:ab"
    assert doc["activation"] == "relu"
    assert doc["train_config"] == {"epochs": 10, "learning_rate": 1e-3, "seed": 1}
    assert np.array_equal(back.params, res.model.params)
    assert all(np.shares_memory(a, back.params) for a in (*back.weights, *back.biases))


def test_load_model_validates_layer_sizes(tmp_path):
    m = _zero_model()
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["layer_sizes"] = [6, 16, 4, 2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(path)


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    samples = [
        _random_sample(rng, d=0.26 + 0.02 * (i % 3), h=0.10 + 0.02 * (i % 2), sid=f"d{i}h{i}_w{i % 5}", fid=i)
        for i in range(25)
    ]
    data = dataset_of(samples)
    path = tmp_path / "dataset.csv"
    write_dataset(data, path)
    back = read_dataset(path)
    assert type(back) is Dataset and back.n_rows == 25
    assert rows_of(back) == samples  # the repr round trip is exact
    assert [(c.dtype, c.shape) for c in back] == [(c.dtype, (25,)) for c in data]
    assert back.frame_id.dtype == np.int64 and back.scenario_id.dtype == object
    # columns are fields, which cannot be rebound
    with pytest.raises(AttributeError):
        back.r1_fine_m = np.zeros(25)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(DATASET_COLUMNS)
    # the four sub-bin columns follow the ten original ones
    assert DATASET_COLUMNS[10:] == ("r1_fine_m", "theta1_fine_rad", "r2_fine_m", "theta2_fine_rad")
    for line, s in zip(lines[1:], samples):
        assert line.split(",") == [repr(s[c]) if isinstance(s[c], float) else str(s[c]) for c in DATASET_COLUMNS]

    fp = dataset_fingerprint(path)
    assert fp.startswith("sha256:") and len(fp) == 7 + 64
    write_dataset(dataset_of(samples[:-1]), path)
    assert dataset_fingerprint(path) != fp

    # a header alone is an empty dataset with the same column types
    path.write_text(",".join(DATASET_COLUMNS) + "\n")
    empty = read_dataset(path)
    assert empty.n_rows == 0
    assert [c.dtype for c in empty] == [c.dtype for c in data]


def test_read_dataset_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="columns"):
        read_dataset(path)
    # a dataset without the sub-bin columns cannot feed the enhancer
    path.write_text(",".join(DATASET_COLUMNS[:10]) + "\n")
    with pytest.raises(ValueError, match="columns"):
        read_dataset(path)
    # a row with a cell missing
    path.write_text(",".join(DATASET_COLUMNS) + "\n" + ",".join(["1.0"] * 13) + "\n")
    with pytest.raises(ValueError, match="line 2 has 13 cells"):
        read_dataset(path)
    # a zero-byte file
    path.write_text("")
    with pytest.raises(ValueError, match="bad.csv: empty file"):
        read_dataset(path)
    # a blank line, which the csv module reads as a row of 0 cells, mid-file
    # and at the end
    row = ",".join(["1.0"] * 8 + ["d30h15_w0", "0"] + ["1.0"] * 4)
    for lines, bad_line in (([row, "", row], 3), ([row, row, ""], 4), ([""], 2)):
        path.write_text("\r\n".join([",".join(DATASET_COLUMNS), *lines]) + "\r\n", newline="")
        with pytest.raises(ValueError, match=f"bad.csv: line {bad_line} has 0 cells"):
            read_dataset(path)


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("r1_m", "nan", "r1_m 'nan' is not a finite number"),
        ("theta2_fine_rad", "-inf", "theta2_fine_rad '-inf' is not a finite number"),
        ("hr_m", "1e999", "hr_m '1e999' is not a finite number"),
        ("d_true_m", "thirty", "d_true_m 'thirty' is not a finite number"),
        ("frame_id", "2.5", "frame_id '2.5' is not an integer"),
        ("frame_id", "9223372036854775808", "frame_id '9223372036854775808' is not an integer"),
        ("frame_id", "2.0", "frame_id '2.0' is not an integer"),
        # numpy's own int64 parser would read this as 462
        ("frame_id", "\u01fe", "frame_id '\u01fe' is not an integer"),
    ],
)
def test_read_dataset_rejects_bad_cells(tmp_path, column, cell, message):
    rng = np.random.default_rng(96)
    path = tmp_path / "bad.csv"
    write_dataset(dataset_of([_random_sample(rng, fid=i) for i in range(4)]), path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[DATASET_COLUMNS.index(column)] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"bad.csv: line 4: {message}"):
        read_dataset(path)


def _dataset_file(tmp_path, rows, line_end="\r\n", trailing=True):
    """A dataset file of the header and the given lines of text."""
    path = tmp_path / "odd.csv"
    text = line_end.join([",".join(DATASET_COLUMNS), *rows]) + (line_end if trailing else "")
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _read_both(path):
    """``read_dataset`` and ``naive_read_dataset`` of one file: their columns, or their error."""
    out = []
    for read in (read_dataset, naive_read_dataset):
        try:
            columns = read(path)
        except ValueError as exc:
            out.append(str(exc))
        else:
            out.append([(c.dtype, c.tolist() if c.dtype == object else c.tobytes()) for c in columns])
    return out


@pytest.mark.parametrize(
    "column, cell, value",
    [
        # comments are off: a '#' is text like any other
        ("scenario_id", "#d30h15_w0", "#d30h15_w0"),
        ("scenario_id", " d30 # h15 ", " d30 # h15 "),
        ("theta2_fine_rad", "1.5#", None),
        # what float() and int() take, and numpy's parser does not
        ("r1_m", "1_0.5", 10.5),
        ("r1_m", "\u0661.5", 1.5),
        ("frame_id", "1_0", 10),
        ("frame_id", "\u0663", 3),
        # what both take
        ("frame_id", " 3", 3),
        ("frame_id", "+4", 4),
        ("r1_m", " 1.5 ", 1.5),
        ("r1_m", "\u20031.5\xa0", 1.5),
        # ASCII separators numpy strips from a float as whitespace, float() does not
        ("r1_m", "\x1c1.5", None),
        ("theta2_fine_rad", "1.5\x1f", None),
    ],
)
def test_read_dataset_reads_odd_cells_as_the_csv_module_and_python_do(tmp_path, column, cell, value):
    plain = {"scenario_id": "d30h15_w0", "frame_id": 7}
    cells = [str(plain.get(c, 0.25)) for c in DATASET_COLUMNS]
    row = ",".join(cells)
    cells[DATASET_COLUMNS.index(column)] = cell
    path = _dataset_file(tmp_path, [row, ",".join(cells), row])
    got, expected = _read_both(path)
    assert got == expected
    if value is None:
        assert isinstance(got, str) and f"line 3: {column} {cell!r} is not" in got
    else:
        other = plain.get(column, 0.25)
        assert getattr(read_dataset(path), column).tolist() == [other, value, other]


def test_read_dataset_names_the_line_of_a_cell_over_the_csv_field_limit(tmp_path):
    refused = f"field larger than field limit ({csv.field_size_limit()})"
    cells = [str({"scenario_id": "d30h15_w0", "frame_id": 7}.get(c, 0.25)) for c in DATASET_COLUMNS]
    row = ",".join(cells)
    cells[DATASET_COLUMNS.index("scenario_id")] = "w" * 200_000
    path = _dataset_file(tmp_path, [row, ",".join(cells), row])
    assert _read_both(path) == [f"{path}: line 3: {refused}"] * 2
    path.write_text("w" * 200_000 + "\n" + row + "\n")
    assert _read_both(path) == [f"{path}: line 1: {refused}"] * 2


def test_dataset_fingerprint_is_the_sha256_of_the_whole_file(tmp_path):
    rng = np.random.default_rng(16)
    path = tmp_path / "dataset.csv"
    # empty, shorter than one 64 KiB chunk, one chunk exactly, and a partial last chunk
    for size in (0, 1, 1 << 16, 3 * (1 << 16) + 5):
        path.write_bytes(rng.bytes(size))
        assert dataset_fingerprint(path) == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


# ids and floats that stress the file format: delimiters, quotes, line
# breaks, '#', padding, non-ASCII text, the empty id; signed zeros,
# subnormals and the float range's ends; frame ids at both int64 ends
_FILE_IDS = st.one_of(
    st.text(st.sampled_from([",", '"', "\r", "\n", "#", " ", "_", "w", "1", "é", "\u2028", "\x1c"]), max_size=6),
    st.text(max_size=4),
)
_FILE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
)
_FILE_FRAME_IDS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1]))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(*[_FILE_FLOATS] * 8, _FILE_IDS, _FILE_FRAME_IDS, *[_FILE_FLOATS] * 4), max_size=6
    )
)
def test_read_dataset_equals_naive_reader(tmp_path_factory, rows):
    data = Dataset.from_rows(rows)
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_dataset(data, path)
    got, expected = _read_both(path)
    assert got == expected
    assert got == [(c.dtype, c.tolist() if c.dtype == object else c.tobytes()) for c in data]


# hand-edited cells: a number inside padding, or any short text
_PADDING = st.text(
    st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\x85", "\u2003", "\u200b", "\ufeff", "\x00"]),
    max_size=2,
)
_CORES = st.one_of(
    st.sampled_from(
        ["1.5", "-0.0", "1_0.5", "\u0663", "\u01fe", "1e999", "nan", "inf", "", "2.0", "+4", "0x10",
         "9223372036854775808", "-9223372036854775809", "4.9e-324", "1.5#", '"1.5"', "1\"5", "#"]
    ),
    st.from_regex(r"[-+]?[0-9_]{0,3}\.?[0-9]{0,2}([eE][-+]?[0-9]{1,3})?", fullmatch=True),
    st.text(max_size=3),
)
_ODD_CELLS = st.builds(lambda a, b, c: a + b + c, _PADDING, _CORES, _PADDING)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 13), _ODD_CELLS), max_size=3),
    st.lists(st.integers(0, 4), max_size=2),
    st.sampled_from(["\r\n", "\n", "\r"]),
    st.booleans(),
)
@example([(1, 13, "1.5#")], [], "\r\n", True)  # a comment character would cut this cell short
@example([], [2], "\r\n", True)  # a blank line mid-file
@example([], [4], "\n", True)  # and at the end
def test_read_dataset_equals_naive_reader_on_hand_edited_files(
    tmp_path_factory, edits, blank_lines, line_end, trailing
):
    rng = np.random.default_rng(97)
    rows = [
        [repr(v) if isinstance(v, float) else str(v) for v in _random_sample(rng, fid=i).values()]
        for i in range(4)
    ]
    for i, j, cell in edits:
        rows[i][j] = cell
    lines = [",".join(r) for r in rows]
    for at in blank_lines:
        lines.insert(at, "")
    path = _dataset_file(tmp_path_factory.getbasetemp(), lines, line_end, trailing)
    got, expected = _read_both(path)
    assert got == expected


def test_a_sweep_written_dataset_reads_back_column_for_column(tmp_path):
    data = assemble_dataset(build_sweep(base_seed=0, walks_per_combo=1)[:2])
    path = tmp_path / "dataset.csv"
    write_dataset(data, path)
    back = read_dataset(path)
    assert back.n_rows == data.n_rows > 0
    assert [c.tolist() if c.dtype == object else c.tobytes() for c in back] == [
        c.tolist() if c.dtype == object else c.tobytes() for c in data
    ]


# --- splitting ---


def _grid_samples(walks=4, frames=3):
    rng = np.random.default_rng(92)
    out = []
    for d_mm in range(260, 400, 20):
        for h_mm in range(100, 200, 20):
            for w in range(walks):
                for f in range(frames):
                    out.append(
                        _random_sample(
                            rng,
                            d=d_mm / 1000.0,
                            h=h_mm / 1000.0,
                            sid=f"d{d_mm // 10}h{h_mm // 10}_w{w}",
                            fid=f,
                        )
                    )
    return out


def test_split_holds_out_whole_combos_and_last_walks():
    samples = _grid_samples()
    train_set, test_set = map(rows_of, split_dataset(dataset_of(samples), split_seed=0, held_out_combos=7))
    assert len(train_set) + len(test_set) == len(samples)
    key = lambda s: (round(s["d_true_m"] * 1000), round(s["h_true_m"] * 1000))
    train_combos = {key(s) for s in train_set}
    test_combos = {key(s) for s in test_set}
    # 7 of the 35 combinations never appear in training
    assert len(test_combos - train_combos) == 7
    # within shared combos only the highest walk index is held out
    for s in test_set:
        if key(s) in train_combos:
            assert s["scenario_id"].endswith("_w3")
    for s in train_set:
        assert not s["scenario_id"].endswith("_w3")


def test_split_determinism_and_seed_sensitivity():
    samples = dataset_of(_grid_samples(walks=2, frames=2))
    a, b, c = (
        [rows_of(part) for part in split_dataset(samples, split_seed=seed)] for seed in (0, 0, 1)
    )
    assert a == b
    key = lambda subset: {s["scenario_id"] for s in subset}
    assert key(a[1]) != key(c[1])


def test_split_degenerate_cases():
    rng = np.random.default_rng(93)
    few = dataset_of([_random_sample(rng, d=0.26 + 0.02 * i, sid=f"d{i}h10_w0", fid=i) for i in range(3)])
    with pytest.raises(ValueError, match="hold out"):
        split_dataset(few, held_out_combos=7)
    with pytest.raises(ValueError, match="cannot hold out 7 of 0 combinations"):
        split_dataset(Dataset.from_rows([]), held_out_combos=7)
    single_walk = dataset_of(_grid_samples(walks=1, frames=2))
    with pytest.raises(ValueError, match="degenerate"):
        split_dataset(single_walk, held_out_combos=7)


_SPLIT_IDS = st.one_of(
    st.builds("{}_w{}".format, st.sampled_from(["a", "d26h10", "x_w2"]), st.integers(0, 6)),
    # walk numbers past 64 bits, and ids whose tail is no walk number
    st.builds("b_w{}".format, st.integers(2**63, 2**63 + 2)),
    st.sampled_from(["a", "b_w", "c_wx", "_w", "x_w3_y", "d_w-1", "e_w²", "f_w1²"]),
    # decimal digits of other scripts, which int() reads: Arabic-Indic 3, fullwidth 2
    st.sampled_from(["g_w\u0663", "g_w\uff12"]),
)


@st.composite
def _split_rows(draw):
    n = draw(st.integers(1, 40))
    # labels on a half-millimetre grid, so some round half to even; near 0,
    # keys of -0.0 and of negative millimetres, and -0.0 groups with 0.0
    label = st.one_of(
        st.integers(0, 12).map(lambda k: 0.26 + k / 2000),
        st.integers(-3, 3).map(lambda k: k / 2000),
        st.just(-0.0),
    )
    return [
        dict(
            _random_sample(np.random.default_rng(i), sid=draw(_SPLIT_IDS), fid=i),
            d_true_m=draw(label),
            h_true_m=draw(label),
        )
        for i in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(_split_rows(), st.integers(0, 3), st.integers(0, 4))
def test_split_equals_naive_row_by_row_split(rows, split_seed, held_out_combos):
    try:
        expected = naive_split(rows, split_seed, held_out_combos)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            split_dataset(dataset_of(rows), split_seed, held_out_combos)
        assert str(got.value) == str(exc)
        return
    train_set, test_set = split_dataset(dataset_of(rows), split_seed, held_out_combos)
    assert (rows_of(train_set), rows_of(test_set)) == expected
