import math
import time

import numpy as np
import pytest

from stairdim.rf_params import SPEED_OF_LIGHT, RadarConfig, derive_attributes


def test_reference_config_resolutions():
    # published figures for the default parametrization: 4.16 cm, 6 m, 3.8 m/s
    attrs = derive_attributes(RadarConfig())
    assert attrs.range_resolution_m == pytest.approx(0.041638, abs=1e-4)
    assert attrs.max_range_m == pytest.approx(5.996, abs=1e-2)
    assert attrs.velocity_resolution_mps == pytest.approx(3.804, abs=1e-2)


def test_formulas_against_direct_evaluation():
    cfg = RadarConfig()
    attrs = derive_attributes(cfg)
    assert attrs.range_resolution_m == SPEED_OF_LIGHT / (2.0 * 3.6e9)
    assert attrs.velocity_resolution_mps == SPEED_OF_LIGHT / (2.0 * 77.0e9 * 64e-6 * 8)
    assert attrs.wavelength_m == SPEED_OF_LIGHT / 77.0e9


def test_virtual_array_and_angular_resolution():
    cfg = RadarConfig()
    attrs = derive_attributes(cfg)
    assert cfg.virtual_antennas == 8
    assert attrs.virtual_antennas == 8
    assert attrs.angular_resolution_rad == 1.78 / 8


def test_max_range_is_sample_count_times_resolution():
    attrs = derive_attributes(RadarConfig())
    ratio = attrs.max_range_m / attrs.range_resolution_m
    assert abs(ratio - 144) / 144 < 1e-12


def test_bandwidth_scaling():
    # range resolution and max range both scale as 1/B
    base = derive_attributes(RadarConfig())
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = float(rng.uniform(0.1, 10.0))
        scaled = derive_attributes(RadarConfig(bandwidth_hz=3.6e9 * k))
        assert scaled.range_resolution_m == pytest.approx(
            base.range_resolution_m / k, rel=1e-12
        )
        assert scaled.max_range_m == pytest.approx(base.max_range_m / k, rel=1e-12)


def test_velocity_resolution_exceeds_walking_speed():
    # the stationary-slice premise needs one velocity bin above ~3 m/s gait
    assert derive_attributes(RadarConfig()).velocity_resolution_mps > 3.0


def test_sample_interval():
    cfg = RadarConfig()
    assert cfg.sample_interval_s == pytest.approx(64e-6 / 144, rel=1e-15)


def test_derivation_runtime_under_one_ms():
    cfg = RadarConfig()
    derive_attributes(cfg)  # warm
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        derive_attributes(cfg)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        RadarConfig(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        RadarConfig(carrier_frequency_hz=-77e9)
    with pytest.raises(ValueError):
        RadarConfig(chirp_duration_s=math.nan)
    with pytest.raises(ValueError):
        RadarConfig(samples_per_chirp=144.5)
    with pytest.raises(ValueError):
        RadarConfig(tx_count=0)
    # finite, positive values whose derived quantities are not
    with pytest.raises(ValueError, match="the derived velocity_resolution_mps must be finite and > 0, got inf"):
        RadarConfig(carrier_frequency_hz=5e-324)
    with pytest.raises(ValueError, match="the derived wavelength_m must be finite and > 0, got inf"):
        RadarConfig(carrier_frequency_hz=1e-300, chirp_duration_s=1e10)
    # a frame's cube holds at most 2**20 samples
    RadarConfig(samples_per_chirp=2**17, chirps_per_frame=8, tx_count=1, rx_count=1)
    with pytest.raises(ValueError, match="a cube of 1048584 samples"):
        RadarConfig(samples_per_chirp=2**17 + 1, chirps_per_frame=8, tx_count=1, rx_count=1)
