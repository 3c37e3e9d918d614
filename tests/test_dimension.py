import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairdim.chirp_sim import NOISELESS, synthesize_frame
from stairdim.dimension import (
    DEFAULT_STANDARDS,
    SWEEP_STANDARDS,
    CorrectedTarget,
    StairStandards,
    aggregate_estimates,
    correct_coordinates,
    estimate_initial,
    find_consecutive_corners,
)
from stairdim.dsp_chain import TargetEntry, TargetList, process_frame
from stairdim.rf_params import RadarConfig, derive_attributes
from stairdim.scene import GaitFrame, StaircaseSpec, corner_scatterers, corners_of
from stairdim.scenario import SWEEP_DEPTHS_M, SWEEP_HEIGHTS_M

CFG = RadarConfig()
ATTRS = derive_attributes(CFG)


def _tl(entries, gamma_rad=0.0, t=0.0):
    return TargetList(entries=tuple(entries), gamma_rad=gamma_rad, timestamp_s=t)


def _ct(x, y, mag=1.0):
    r = math.hypot(x, y)
    th = math.atan2(y, x)
    return CorrectedTarget(
        true_angle_rad=th,
        x_m=x,
        y_m=y,
        source_range_m=r,
        source_angle_rad=th,
        magnitude=mag,
        fine_range_m=r,
        fine_true_angle_rad=th,
    )


def test_correction_worked_examples():
    tl = _tl([TargetEntry(range_m=1.0, angles_rad=(0.0,), magnitude=1.0)])
    (c,) = correct_coordinates(tl, 0.0)
    assert (c.x_m, c.y_m) == (1.0, 0.0)

    tl = _tl([TargetEntry(range_m=2.0, angles_rad=(math.radians(-10.0),), magnitude=1.0)])
    (c,) = correct_coordinates(tl, math.radians(-20.0))
    assert c.true_angle_rad == pytest.approx(math.radians(-30.0), abs=1e-12)
    assert c.x_m == pytest.approx(1.7321, abs=1e-4)
    assert c.y_m == pytest.approx(-1.0000, abs=1e-4)
    assert c.x_m == pytest.approx(2.0 * math.cos(math.radians(-30.0)), abs=1e-12)
    assert c.y_m == pytest.approx(2.0 * math.sin(math.radians(-30.0)), abs=1e-12)
    assert c.source_range_m == 2.0
    assert c.source_angle_rad == math.radians(-10.0)


def test_correction_is_an_isometry():
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(10):
        gamma = rng.uniform(-0.6, 0.6)
        entries = [
            TargetEntry(
                range_m=rng.uniform(0.1, 6.0),
                angles_rad=(rng.uniform(-math.pi / 2, math.pi / 2),),
                magnitude=1.0,
            )
            for _ in range(1000)
        ]
        for entry, c in zip(entries, correct_coordinates(_tl(entries), gamma)):
            r = math.hypot(c.x_m, c.y_m)
            assert abs(r - entry.range_m) <= 1e-9 * entry.range_m
            checked += 1
    assert checked == 10_000


def test_correction_rotation_equivariance():
    rng = np.random.default_rng(72)
    entries = [
        TargetEntry(range_m=rng.uniform(0.5, 5.0), angles_rad=(rng.uniform(-1.0, 1.0),), magnitude=1.0)
        for _ in range(50)
    ]
    g1, g2 = -0.3, 0.17
    once = correct_coordinates(_tl(entries), g1 + g2)
    base = correct_coordinates(_tl(entries), g1)
    cos2, sin2 = math.cos(g2), math.sin(g2)
    for a, b in zip(once, base):
        assert a.x_m == pytest.approx(b.x_m * cos2 - b.y_m * sin2, abs=1e-9)
        assert a.y_m == pytest.approx(b.x_m * sin2 + b.y_m * cos2, abs=1e-9)


def test_correction_expands_multi_angle_entries():
    tl = _tl(
        [
            TargetEntry(range_m=2.0, angles_rad=(-0.2, 0.1, 0.4), magnitude=5.0),
            TargetEntry(range_m=3.0, angles_rad=(0.0,), magnitude=2.0),
        ]
    )
    out = correct_coordinates(tl, 0.0)
    assert len(out) == 4
    assert [c.source_range_m for c in out] == [2.0, 2.0, 2.0, 3.0]
    assert all(c.magnitude == 5.0 for c in out[:3])


def test_correction_carries_sub_bin_values():
    gamma = math.radians(-20.0)
    e = TargetEntry(
        range_m=2.0,
        angles_rad=(-0.2, 0.1),
        magnitude=5.0,
        fine_range_m=2.013,
        fine_angles_rad=(-0.207, 0.104),
    )
    out = correct_coordinates(_tl([e]), gamma)
    assert [c.fine_range_m for c in out] == [2.013, 2.013]
    assert [c.fine_true_angle_rad for c in out] == [gamma - 0.207, gamma + 0.104]
    # position and angle stay the reported ones the pair search works on
    assert [c.true_angle_rad for c in out] == [gamma - 0.2, gamma + 0.1]
    assert out[0].x_m == 2.0 * math.cos(gamma - 0.2)


def test_pair_search_worked_examples():
    a, b = _ct(1.00, -0.40), _ct(1.30, -0.25)
    pair = find_consecutive_corners([a, b])
    assert pair == (a, b)
    # 0.10 m apart horizontally: too shallow for any stair standard
    assert find_consecutive_corners([_ct(1.00, -0.40), _ct(1.10, -0.38)]) is None


def test_pair_search_skips_spurious_midpoint_target():
    corners = [_ct(2.0, 0.15), _ct(2.3, 0.30), _ct(2.6, 0.45)]
    spur = _ct(2.15, 0.22)
    pair = find_consecutive_corners(corners + [spur])
    assert pair is not None
    assert (pair[0].x_m, pair[1].x_m) == (2.0, 2.3)
    assert pair[0].y_m == 0.15 and pair[1].y_m == 0.30


def test_pair_search_order_independence():
    targets = [_ct(2.6, 0.45), _ct(2.15, 0.22), _ct(2.0, 0.15), _ct(2.3, 0.30)]
    pair = find_consecutive_corners(targets)
    assert (pair[0].x_m, pair[1].x_m) == (2.0, 2.3)


def _pair_key(a, b):
    return (a.x_m, b.x_m - a.x_m, -(a.magnitude + b.magnitude))


def _coord(hi, step):
    # a coarse grid makes exact ties in x_A, dx and the magnitudes common
    return st.integers(0, round(hi / step)).map(lambda k: k * step) | st.floats(0.0, hi)


_TARGETS = st.lists(
    st.builds(
        _ct, _coord(1.6, 0.1), _coord(0.6, 0.02), st.sampled_from([0.5, 1.0]) | st.floats(0.0, 10.0)
    ),
    max_size=9,
)


@settings(max_examples=300, deadline=None)
@given(_TARGETS, st.data())
def test_pair_search_returns_the_brute_force_minimum(targets, data):
    keys = [
        _pair_key(a, b)
        for a in targets
        for b in targets
        if b.x_m > a.x_m and SWEEP_STANDARDS.accepts(b.x_m - a.x_m, b.y_m - a.y_m)
    ]
    pair = find_consecutive_corners(targets, SWEEP_STANDARDS)
    if not keys:
        assert pair is None
        return
    assert pair is not None and _pair_key(*pair) == min(keys)
    shuffled = data.draw(st.permutations(targets))
    assert _pair_key(*find_consecutive_corners(shuffled, SWEEP_STANDARDS)) == min(keys)


def test_exact_injection_recovers_all_grid_dimensions():
    # feed perfect (r, theta) pairs for the first two corners of every grid
    # staircase and demand micrometer-level reconstruction
    gamma = math.radians(-20.0)
    rx, ry = -2.0, 0.45
    for d in SWEEP_DEPTHS_M:
        for h in SWEEP_HEIGHTS_M:
            spec = StaircaseSpec(depth_m=d, height_m=h, step_count=4)
            entries = []
            for cx, cy in corners_of(spec)[:2]:
                r = math.hypot(cx - rx, cy - ry)
                th = math.atan2(cy - ry, cx - rx) - gamma
                entries.append(TargetEntry(range_m=r, angles_rad=(th,), magnitude=1.0))
            est = estimate_initial(_tl(entries, gamma_rad=gamma), gamma, SWEEP_STANDARDS)
            assert est is not None, f"d={d} h={h}"
            assert abs(est.depth_m - d) <= 1e-6
            assert abs(est.height_m - h) <= 1e-6


def test_full_frame_noiseless_three_step_estimate():
    spec = StaircaseSpec(depth_m=0.30, height_m=0.15, step_count=3)
    tilt = math.radians(-20.0)
    frame = GaitFrame(timestamp_s=0.0, x_m=-2.0, y_m=0.45, tilt_rad=tilt, gamma_rad=tilt, v_host_mps=0.0)
    cube = synthesize_frame(CFG, frame, corner_scatterers(spec), NOISELESS)
    est = estimate_initial(process_frame(cube), tilt, radar_height_m=frame.y_m)
    assert est is not None
    assert abs(est.depth_m - 0.30) <= ATTRS.range_resolution_m
    assert abs(est.height_m - 0.15) <= ATTRS.range_resolution_m
    assert est.radar_height_m == frame.y_m
    assert est.gamma_rad == tilt


def test_estimate_initial_degenerate_inputs():
    assert estimate_initial(_tl([]), 0.0) is None
    one = _tl([TargetEntry(range_m=2.0, angles_rad=(0.1,), magnitude=1.0)])
    assert estimate_initial(one, 0.0) is None


def test_aggregate_is_elementwise_median():
    ests = []
    for d, h in [(0.28, 0.12), (0.30, 0.16), (0.34, 0.14)]:
        entries = [
            TargetEntry(range_m=math.hypot(2.0, 0.15), angles_rad=(math.atan2(0.15, 2.0),), magnitude=1.0),
            TargetEntry(
                range_m=math.hypot(2.0 + d, 0.15 + h),
                angles_rad=(math.atan2(0.15 + h, 2.0 + d),),
                magnitude=1.0,
            ),
        ]
        ests.append(estimate_initial(_tl(entries), 0.0))
    assert all(e is not None for e in ests)
    agg = aggregate_estimates(ests)
    assert agg[0] == pytest.approx(0.30, abs=1e-9)
    assert agg[1] == pytest.approx(0.14, abs=1e-9)
    # None frames are skipped; all-None aggregates to None
    assert aggregate_estimates([None, ests[0], None]) == pytest.approx(
        (ests[0].depth_m, ests[0].height_m)
    )
    assert aggregate_estimates([]) is None
    assert aggregate_estimates([None, None]) is None


def test_standards_bounds_are_inclusive():
    s = DEFAULT_STANDARDS
    assert s.accepts(0.22, 0.10) and s.accepts(0.35, 0.22)
    assert s.accepts(0.30, 0.15)
    assert not s.accepts(0.2199, 0.15)
    assert not s.accepts(0.3501, 0.15)
    assert not s.accepts(0.30, 0.0999)
    assert not s.accepts(0.30, 0.2201)
    assert SWEEP_STANDARDS.accepts(0.38, 0.08)


def test_standards_validation():
    with pytest.raises(ValueError):
        StairStandards(depth_range_m=(0.35, 0.22))
    with pytest.raises(ValueError):
        StairStandards(height_range_m=(0.0, 0.22))
    with pytest.raises(ValueError):
        StairStandards(depth_range_m=(-0.1, 0.35))
