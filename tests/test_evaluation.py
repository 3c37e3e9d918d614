import math

import numpy as np
import pytest

from stairdim.evaluation import (
    HIST_BIN_CM,
    HIST_SPAN_CM,
    build_error_report,
    compare_estimators,
    compute_metrics,
    report_to_dict,
    write_histogram_csv,
)


def test_perfect_estimator_has_zero_errors():
    m = compute_metrics([0.30, 0.32, 0.28], [0.30, 0.32, 0.28])
    assert m.mae_cm == 0.0 and m.rmse_cm == 0.0
    assert m.sigma_cm == 0.0 and m.bias_cm == 0.0
    assert m.n == 3


def test_symmetric_unit_errors():
    # errors +1 cm and -1 cm: MAE = RMSE = sigma = 1, bias = 0
    m = compute_metrics([0.31, 0.29], [0.30, 0.30])
    assert m.mae_cm == pytest.approx(1.0, abs=1e-12)
    assert m.rmse_cm == pytest.approx(1.0, abs=1e-12)
    assert m.sigma_cm == pytest.approx(1.0, abs=1e-12)
    assert m.bias_cm == pytest.approx(0.0, abs=1e-12)


def test_pure_bias_errors():
    # every error +2 cm: spread-free, all of RMSE is bias
    m = compute_metrics([0.32, 0.32, 0.32], [0.30, 0.30, 0.30])
    assert m.mae_cm == pytest.approx(2.0, abs=1e-12)
    assert m.rmse_cm == pytest.approx(2.0, abs=1e-12)
    assert m.sigma_cm == pytest.approx(0.0, abs=1e-12)
    assert m.bias_cm == pytest.approx(2.0, abs=1e-12)


def test_rmse_decomposition_and_ordering():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = rng.integers(2, 60)
        tru = rng.uniform(0.1, 0.4, size=n)
        est = tru + rng.normal(0.002, 0.01, size=n)
        m = compute_metrics(est, tru)
        assert m.rmse_cm**2 == pytest.approx(m.sigma_cm**2 + m.bias_cm**2, abs=1e-9)
        assert m.rmse_cm >= m.mae_cm - 1e-12


def test_metrics_match_direct_formulas():
    rng = np.random.default_rng(62)
    tru = rng.uniform(0.1, 0.4, size=37)
    est = tru + rng.normal(0.0, 0.02, size=37)
    err = (est - tru) * 100.0
    m = compute_metrics(est, tru)
    assert m.mae_cm == pytest.approx(np.mean(np.abs(err)), rel=1e-12)
    assert m.rmse_cm == pytest.approx(math.sqrt(np.mean(err**2)), rel=1e-12)
    assert m.bias_cm == pytest.approx(np.mean(err), rel=1e-12)
    assert m.sigma_cm == pytest.approx(np.std(err), rel=1e-12)  # population std


def test_histogram_integrates_to_one():
    rng = np.random.default_rng(63)
    tru = np.full(500, 0.30)
    est = tru + rng.normal(0.0, 0.06, size=500)  # some samples beyond the span
    m = compute_metrics(est, tru)
    assert np.sum(m.hist_density) * HIST_BIN_CM == pytest.approx(1.0, abs=1e-9)
    assert len(m.hist_centers_cm) == int(2 * HIST_SPAN_CM / HIST_BIN_CM)
    assert m.hist_centers_cm[0] == pytest.approx(-HIST_SPAN_CM + HIST_BIN_CM / 2)
    assert m.hist_centers_cm[-1] == pytest.approx(HIST_SPAN_CM - HIST_BIN_CM / 2)
    # clipping is a binning detail only: the moments keep the raw values
    raw = (est - tru) * 100.0
    assert np.abs(raw).max() > HIST_SPAN_CM  # the draw really exceeds the span
    assert m.mae_cm == pytest.approx(np.mean(np.abs(raw)), rel=1e-12)
    assert m.rmse_cm == pytest.approx(math.sqrt(np.mean(raw**2)), rel=1e-12)


def test_metrics_validation():
    with pytest.raises(ValueError):
        compute_metrics([0.3, 0.3], [0.3])
    with pytest.raises(ValueError):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics([0.3, math.nan], [0.3, 0.3])
    with pytest.raises(ValueError):
        compute_metrics(np.ones((2, 2)), np.ones((2, 2)))
    # finite estimates whose squared errors are not
    with pytest.raises(ValueError, match="float range"), np.errstate(over="ignore"):
        compute_metrics([1e300, 0.3], [0.3, 0.3])


def test_improvement_worked_example():
    # MAE 2.78 cm -> 0.81 cm is a 70.9 % improvement
    initial = compute_metrics([0.30 + 0.0278] * 4, [0.30] * 4)
    enhanced = compute_metrics([0.30 + 0.0081] * 4, [0.30] * 4)
    imp = (initial.mae_cm - enhanced.mae_cm) / initial.mae_cm
    assert imp == pytest.approx(0.70863, abs=1e-4)


def _report(seed=64, enh_scale=0.3):
    rng = np.random.default_rng(seed)
    n = 200
    tru = np.column_stack([rng.uniform(0.24, 0.38, n), rng.uniform(0.10, 0.20, n)])
    initial = tru + rng.normal(0.003, 0.015, size=(n, 2))
    enhanced = tru + rng.normal(0.001, 0.015 * enh_scale, size=(n, 2))
    return build_error_report({"initial": initial, "enhanced": enhanced}, tru)


def test_compare_estimators_direction():
    report = _report()
    summary = compare_estimators(report)
    assert summary["all_metrics_improved"]
    for block in (summary["depth"], summary["height"]):
        assert set(block) == {"mae", "rmse", "sigma"}
        assert all(0.0 < v < 1.0 for v in block.values())

    # an estimator that triples the noise cannot be an improvement
    rng = np.random.default_rng(65)
    tru = np.full((200, 2), 0.3)
    worse = build_error_report(
        {
            "initial": tru + rng.normal(0.0, 0.015, (200, 2)),
            "enhanced": tru + rng.normal(0.0, 0.05, (200, 2)),
        },
        tru,
    )
    bad = compare_estimators(worse)
    assert not bad["all_metrics_improved"]
    assert bad["depth"]["rmse"] < 0.0


def test_identical_estimators_improve_nothing():
    rng = np.random.default_rng(66)
    tru = np.column_stack([rng.uniform(0.24, 0.38, 50), rng.uniform(0.10, 0.20, 50)])
    est = tru + rng.normal(0.0, 0.01, size=(50, 2))
    report = build_error_report({"initial": est, "enhanced": est}, tru)
    summary = compare_estimators(report)
    assert not summary["all_metrics_improved"]
    assert summary["depth"]["mae"] == pytest.approx(0.0, abs=1e-12)
    assert summary["height"]["rmse"] == pytest.approx(0.0, abs=1e-12)


def test_build_error_report_validates_shapes():
    tru = np.zeros((10, 2))
    with pytest.raises(ValueError):
        build_error_report({"initial": np.zeros((10, 3)), "enhanced": np.zeros((10, 2))}, tru)
    with pytest.raises(ValueError):
        build_error_report({"initial": np.zeros((9, 2)), "enhanced": np.zeros((10, 2))}, tru)


def test_report_dict_structure():
    doc = report_to_dict(_report())
    assert set(doc) == {"initial", "enhanced", "improvement"}
    for block in ("initial", "enhanced"):
        assert set(doc[block]) == {"depth", "height"}
        assert set(doc[block]["depth"]) == {"mae_cm", "rmse_cm", "sigma_cm", "bias_cm", "n"}
    assert set(doc["improvement"]) == {"depth", "height", "all_metrics_improved"}


def test_histogram_and_report_files(tmp_path):
    report = _report()
    hist = tmp_path / "hist.csv"
    write_histogram_csv(report["initial"]["depth"], hist)
    lines = hist.read_text().splitlines()
    assert lines[0] == "bin_center_cm,density"
    assert len(lines) == 1 + int(2 * HIST_SPAN_CM / HIST_BIN_CM)
    centers = [float(line.split(",")[0]) for line in lines[1:]]
    assert centers == sorted(centers)
    assert report_to_dict(report)["improvement"]["all_metrics_improved"] is True


def test_report_takes_any_number_of_named_estimators():
    rng = np.random.default_rng(67)
    tru = np.column_stack([rng.uniform(0.24, 0.38, 80), rng.uniform(0.10, 0.20, 80)])
    names = ("initial", "subbin", "enhanced")
    estimates = {name: tru + rng.normal(0.0, 0.01 / (k + 1), (80, 2)) for k, name in enumerate(names)}
    report = build_error_report(estimates, tru)
    assert list(report) == list(names)
    for name in names:
        assert set(report[name]) == {"depth", "height"}
        for j, dim in enumerate(("depth", "height")):
            assert report[name][dim] == compute_metrics(estimates[name][:, j], tru[:, j])
    doc = report_to_dict(report)
    assert set(doc) == {*names, "improvement"}
    assert doc["improvement"] == compare_estimators(report)
    assert doc["subbin"]["height"]["mae_cm"] == report["subbin"]["height"].mae_cm

    for bad in (np.zeros((79, 2)), np.zeros((80, 3)), np.zeros(160)):
        with pytest.raises(ValueError, match="subbin"):
            build_error_report({**estimates, "subbin": bad}, tru)
