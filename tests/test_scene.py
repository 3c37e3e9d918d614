import math

import numpy as np
import pytest

from stairdim.codec import from_dict, to_dict
from stairdim.rf_params import RadarConfig, derive_attributes
from stairdim.scene import (
    Scatterer,
    StaircaseSpec,
    WalkConfig,
    clutter_scatterers,
    corner_scatterers,
    corners_of,
    generate_walk,
)
from stairdim.numerics import rng_for


def test_corner_positions_worked_examples():
    # the staircase foot is the world origin
    spec = StaircaseSpec(depth_m=0.30, height_m=0.15, step_count=3)
    assert np.allclose(corners_of(spec), [(0.0, 0.15), (0.3, 0.30), (0.6, 0.45)], atol=1e-12)

    spec = StaircaseSpec(depth_m=0.26, height_m=0.10, step_count=2)
    assert np.allclose(corners_of(spec), [(0.0, 0.10), (0.26, 0.20)], atol=1e-12)


def test_consecutive_corner_differences_are_uniform():
    rng = np.random.default_rng(31)
    for _ in range(20):
        spec = StaircaseSpec(
            depth_m=float(rng.uniform(0.2, 0.5)),
            height_m=float(rng.uniform(0.08, 0.25)),
            step_count=int(rng.integers(2, 9)),
        )
        diffs = np.diff(corners_of(spec), axis=0)
        assert np.allclose(diffs[:, 0], spec.depth_m, atol=1e-12)
        assert np.allclose(diffs[:, 1], spec.height_m, atol=1e-12)


def test_default_walk_frame_count_and_timing():
    traj = generate_walk(StaircaseSpec(), WalkConfig())
    assert len(traj.frames) == 50  # 5 s at 10 Hz
    t = [f.timestamp_s for f in traj.frames]
    assert np.allclose(np.diff(t), 0.1, atol=1e-12)
    assert t[0] == 0.0


def test_walk_advances_between_standoffs():
    traj = generate_walk(StaircaseSpec(), WalkConfig())
    x = np.array([f.x_m for f in traj.frames])
    assert x[0] == -4.0 and x[-1] == -0.5
    assert np.all(np.diff(x) > 0)


def test_radar_height_follows_shin_rotation():
    # y = h_i * cos(tilt + 20 deg) at the default mount
    cfg = WalkConfig(mount_height_m=0.47, seed=5)
    traj = generate_walk(StaircaseSpec(), cfg)
    for f in traj.frames:
        assert f.y_m == pytest.approx(
            0.47 * math.cos(f.tilt_rad + math.radians(20.0)), abs=1e-12
        )


def test_zero_sway_walk_keeps_neutral_tilt():
    cfg = WalkConfig(
        sway_amplitude_rad=0.0,
        sway_noise_sigma_rad=0.0,
        imu_noise_sigma_rad=0.0,
        mount_height_m=0.45,
    )
    traj = generate_walk(StaircaseSpec(), cfg)
    for f in traj.frames:
        assert f.gamma_rad == pytest.approx(math.radians(-20.0), abs=1e-12)
        assert f.y_m == pytest.approx(0.45, abs=1e-12)


def test_walk_velocity_and_finite_difference():
    traj = generate_walk(StaircaseSpec(), WalkConfig())
    x = np.array([f.x_m for f in traj.frames])
    v = np.array([f.v_host_mps for f in traj.frames])
    assert np.allclose(v[:-1], np.diff(x) * 10.0, atol=1e-12)
    assert v[-1] == v[-2]


def test_walk_speed_below_velocity_resolution():
    v_res = derive_attributes(RadarConfig()).velocity_resolution_mps
    for seed in range(20):
        traj = generate_walk(StaircaseSpec(), WalkConfig(seed=seed))
        assert all(abs(f.v_host_mps) < v_res for f in traj.frames)


def test_corners_within_max_range_for_default_walk():
    attrs = derive_attributes(RadarConfig())
    spec = StaircaseSpec()
    traj = generate_walk(spec, WalkConfig(), max_range_m=attrs.max_range_m)
    for f in traj.frames:
        for cx, cy in corners_of(spec):
            assert math.hypot(cx - f.x_m, cy - f.y_m) <= attrs.max_range_m


def test_walk_determinism():
    a = generate_walk(StaircaseSpec(), WalkConfig(seed=7))
    b = generate_walk(StaircaseSpec(), WalkConfig(seed=7))
    c = generate_walk(StaircaseSpec(), WalkConfig(seed=8))
    assert a.frames == b.frames
    assert a.frames != c.frames


def test_staircase_validation():
    with pytest.raises(ValueError):
        StaircaseSpec(depth_m=0.0)
    with pytest.raises(ValueError):
        StaircaseSpec(height_m=-0.1)
    with pytest.raises(ValueError):
        StaircaseSpec(step_count=0)
    with pytest.raises(ValueError):
        StaircaseSpec(depth_m=math.inf)


def test_walk_validation():
    with pytest.raises(ValueError):
        WalkConfig(rate_hz=0.0)
    with pytest.raises(ValueError):
        WalkConfig(duration_s=-1.0)
    # a walk spans at most 100,000 frames
    WalkConfig(duration_s=10_000.0, rate_hz=10.0)
    with pytest.raises(ValueError, match="100010 frames exceeds the limit of 100000"):
        WalkConfig(duration_s=10_001.0, rate_hz=10.0)
    with pytest.raises(ValueError):
        WalkConfig(mount_height_m=0.0)
    with pytest.raises(ValueError):
        WalkConfig(start_standoff_m=0.3, end_standoff_m=0.5)
    with pytest.raises(ValueError):
        WalkConfig(end_standoff_m=0.0)
    with pytest.raises(ValueError):
        # farthest corner beyond the unambiguous range
        generate_walk(StaircaseSpec(step_count=8), WalkConfig(start_standoff_m=6.0), max_range_m=6.0)


def test_staircase_serialization_round_trip():
    spec = StaircaseSpec(depth_m=0.34, height_m=0.12, step_count=5)
    assert from_dict(StaircaseSpec(), to_dict(spec)) == spec
    assert set(to_dict(spec)) == {"depth_m", "height_m", "step_count"}


def test_walk_serialization_round_trip():
    cfg = WalkConfig(mount_height_m=0.42, mount_tilt_rad=math.radians(-18.0), seed=13)
    back = from_dict(WalkConfig(), to_dict(cfg))
    assert back.mount_height_m == cfg.mount_height_m
    assert back.seed == cfg.seed
    assert back.mount_tilt_rad == pytest.approx(cfg.mount_tilt_rad, abs=1e-12)
    assert back.sway_amplitude_rad == pytest.approx(cfg.sway_amplitude_rad, abs=1e-12)
    # angles travel as *_deg keys
    assert to_dict(cfg)["mount_tilt_deg"] == pytest.approx(-18.0, abs=1e-12)
    assert from_dict(WalkConfig(), {}) == WalkConfig()


def test_trajectory_serialization_round_trip():
    traj = generate_walk(StaircaseSpec(), WalkConfig(seed=3, duration_s=1.0))
    d = to_dict(traj)
    assert d["staircase"] == to_dict(traj.staircase)
    assert d["walk"] == to_dict(traj.walk)
    assert len(d["frames"]) == len(traj.frames)
    for f, g in zip(traj.frames, d["frames"]):
        assert g == {
            "timestamp_s": f.timestamp_s,
            "x_m": f.x_m,
            "y_m": f.y_m,
            "tilt_deg": math.degrees(f.tilt_rad),
            "gamma_deg": math.degrees(f.gamma_rad),
            "v_host_mps": f.v_host_mps,
        }


def test_corner_scatterers_sit_on_corners():
    spec = StaircaseSpec(depth_m=0.28, height_m=0.16, step_count=4)
    scatterers = corner_scatterers(spec, reflectivity=0.8)
    assert len(scatterers) == 4
    for sc, (cx, cy) in zip(scatterers, corners_of(spec)):
        assert (sc.x_m, sc.y_m) == (cx, cy)
        assert sc.reflectivity == 0.8
        assert sc.radial_velocity_mps == 0.0


def test_clutter_scatterers_lie_on_treads_or_risers():
    spec = StaircaseSpec(depth_m=0.30, height_m=0.15, step_count=4)
    pts = clutter_scatterers(spec, count=40, reflectivity=0.3, rng=rng_for(9, 0xC1))
    assert len(pts) == 40
    corners = corners_of(spec)
    for p in pts:
        assert p.reflectivity == 0.3 and p.radial_velocity_mps == 0.0
        on_surface = False
        for k, (cx, cy) in enumerate(corners):
            tread = p.y_m == cy and cx <= p.x_m <= cx + spec.depth_m
            riser = p.x_m == cx and cy - spec.height_m <= p.y_m <= cy
            on_surface = on_surface or tread or riser
        assert on_surface


def test_scatterer_defaults():
    sc = Scatterer(1.0, 2.0)
    assert sc.reflectivity == 1.0 and sc.radial_velocity_mps == 0.0
