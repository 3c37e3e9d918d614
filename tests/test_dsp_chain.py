import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    dft_matrix,
    hann_periodic,
    naive_ca_cfar,
    naive_dft,
    naive_local_maxima,
    naive_target_list,
)
from stairdim import numerics
from stairdim.chirp_sim import (
    NOISELESS,
    ChirpCube,
    FrameMeta,
    NoiseConfig,
    synthesize_frame,
)
from stairdim.dsp_chain import (
    DEFAULT_AOA_CFAR,
    DEFAULT_RANGE_CFAR,
    CfarConfig,
    DspConfig,
    StationarySlice,
    TargetEntry,
    TargetList,
    _cfar_mask,
    _local_max_mask,
    _vertex_offset,
    accumulate_range_profile,
    aoa_on_targets,
    cfar_detect,
    extract_stationary_slice,
    local_maxima,
    process_frame,
    range_doppler_transform,
    stationary_slice,
    target_list_to_json,
    write_target_lists,
)
from stairdim.rf_params import RadarConfig, derive_attributes
from stairdim.scene import GaitFrame, Scatterer, StaircaseSpec, corner_scatterers, corners_of

CFG = RadarConfig()
ATTRS = derive_attributes(CFG)
R_RES = ATTRS.range_resolution_m
V_RES = ATTRS.velocity_resolution_mps
A_RES = ATTRS.angular_resolution_rad


def _frame(x=0.0, y=0.0, tilt=0.0, v=0.0):
    return GaitFrame(timestamp_s=0.0, x_m=x, y_m=y, tilt_rad=tilt, gamma_rad=tilt, v_host_mps=v)


def _random_cube(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((144, 8, 8)) + 1j * rng.standard_normal((144, 8, 8))
    return ChirpCube(samples=data * scale, config=CFG, meta=FrameMeta(0.0, 0.0, 0.0))


def _staircase_cube(seed=0, noise=NoiseConfig(snr_db=20.0), steps=4, standoff=2.0):
    spec = StaircaseSpec(depth_m=0.30, height_m=0.15, step_count=steps)
    frame = _frame(x=-standoff, y=0.45, tilt=math.radians(-20.0))
    cube = synthesize_frame(CFG, frame, corner_scatterers(spec), noise, seed=seed)
    return cube, spec, frame


def _oracle_range_doppler(samples):
    # direct O(n^2) matrix DFTs: Hann on fast time, no weighting on Doppler
    w = hann_periodic(144)
    stage1 = np.einsum("ks,spa->kpa", dft_matrix(144), samples * w[:, None, None])
    return np.einsum("qp,kpa->kqa", dft_matrix(8), stage1)


def test_matrix_oracle_agrees_with_loop_oracle():
    rng = np.random.default_rng(60)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.max(np.abs(dft_matrix(16) @ x - naive_dft(x))) < 1e-12
    assert np.max(np.abs(dft_matrix(64, 16) @ x - naive_dft(x, n=64))) < 1e-12


def test_range_doppler_matches_direct_dft():
    for seed in range(5):
        cube = _random_cube(seed)
        rd = range_doppler_transform(cube)
        ref = _oracle_range_doppler(cube.samples)
        assert np.max(np.abs(rd.samples - ref)) / np.max(np.abs(ref)) < 1e-9


def test_range_doppler_shape_and_bin_scales():
    rd = range_doppler_transform(_random_cube(1))
    assert rd.samples.shape == (144, 8, 8)
    assert rd.range_bin_m == R_RES
    assert rd.velocity_bin_mps == V_RES


def test_range_doppler_all_zero_cube():
    cube = ChirpCube(np.zeros((144, 8, 8), complex), CFG, FrameMeta(0.0, 0.0, 0.0))
    assert np.all(range_doppler_transform(cube).samples == 0.0)


def test_range_doppler_single_scatterer_peak_location():
    # stationary target at 50 bins: every channel peaks at (range 50, Doppler 0)
    sc = Scatterer(50 * R_RES, 0.0)
    cube = synthesize_frame(CFG, _frame(), [sc], NOISELESS)
    rd = range_doppler_transform(cube)
    for a in range(8):
        plane = np.abs(rd.samples[:, :, a])
        assert np.unravel_index(plane.argmax(), plane.shape) == (50, 0)


def test_doppler_bin_one_for_target_at_v_res():
    sc = Scatterer(30 * R_RES, 0.0, radial_velocity_mps=V_RES)
    rd = range_doppler_transform(synthesize_frame(CFG, _frame(), [sc], NOISELESS))
    dopp = np.abs(rd.samples[30, :, 0])
    assert dopp.argmax() == 1
    assert dopp[0] < 1e-6 * dopp[1]  # integer-bin tone: nothing at zero velocity


def test_stationary_slice_is_doppler_bin_zero():
    cube = _random_cube(2)
    rd = range_doppler_transform(cube)
    sl = extract_stationary_slice(rd)
    assert np.array_equal(sl.samples, rd.samples[:, 0, :])
    assert sl.range_bin_m == rd.range_bin_m


def test_chirp_sum_slice_is_doppler_bin_zero():
    for seed in range(3):
        cube = _random_cube(seed)
        sl = stationary_slice(cube)
        ref = _oracle_range_doppler(cube.samples)
        assert np.max(np.abs(sl.samples - ref[:, 0, :])) / np.max(np.abs(ref[:, 0, :])) < 1e-12
        # the full cube writes its bin-0 plane from the same computation
        rd = range_doppler_transform(cube)
        assert np.array_equal(extract_stationary_slice(rd).samples, sl.samples)
        assert np.max(np.abs(rd.samples - ref)) / np.max(np.abs(ref)) < 1e-9
        assert (sl.range_bin_m, sl.config, sl.meta) == (R_RES, CFG, cube.meta)


def test_accumulation_matches_direct_sum():
    sl = extract_stationary_slice(range_doppler_transform(_random_cube(3)))
    profile = accumulate_range_profile(sl)
    for k in (0, 71, 143):
        direct = sum(abs(sl.samples[k, a]) for a in range(8))
        assert profile[k] == pytest.approx(direct, rel=1e-12)
    # zero slice and identical channels
    zero = StationarySlice(np.zeros((144, 8), complex), R_RES, CFG, FrameMeta(0.0, 0.0, 0.0))
    assert np.all(accumulate_range_profile(zero) == 0.0)
    flat = StationarySlice(np.full((144, 8), 3.0 - 4.0j), R_RES, CFG, FrameMeta(0.0, 0.0, 0.0))
    assert np.allclose(accumulate_range_profile(flat), 8 * 5.0, atol=1e-9)


# --- CFAR ---


def test_cfar_constant_profile_never_detects():
    profile = np.full(144, 2.7)
    assert cfar_detect(profile, CfarConfig(training_cells=8, guard_cells=2, pfa=1e-3)).size == 0
    # alpha >= -ln(pfa) > 1 for every training count
    assert cfar_detect(profile, CfarConfig(training_cells=4, guard_cells=1, pfa=0.3)).size == 0


def test_cfar_impulse_in_unit_noise_hand_example():
    # impulse of 100 over a unit floor: threshold at the impulse is
    # alpha * 1 with alpha = 16 (1e-3^(-1/16) - 1) ~ 8.64, so only the
    # impulse exceeds it; its neighbors see it in guard or training cells
    profile = np.ones(60)
    profile[25] = 100.0
    cfg = CfarConfig(training_cells=8, guard_cells=2, pfa=1e-3)
    assert list(cfar_detect(profile, cfg)) == [25]
    # under the pipeline's range default (2 training, 2 guard per side)
    assert list(cfar_detect(profile, DEFAULT_RANGE_CFAR)) == [25]


def test_cfar_impulse_detected_at_profile_edges():
    for idx in (0, 59):
        profile = np.ones(60)
        profile[idx] = 100.0
        det = cfar_detect(profile, CfarConfig(training_cells=8, guard_cells=2, pfa=1e-3))
        assert list(det) == [idx]  # one-sided fallback window


def test_cfar_false_alarm_rate_on_exponential_noise():
    # i.i.d. exponential power cells: the pfa -> alpha mapping is exact, so
    # the empirical rate must sit near the design point
    cfg = CfarConfig(training_cells=8, guard_cells=2, pfa=1e-3)
    rng = np.random.default_rng(51)
    cells = hits = 0
    for _ in range(200):
        profile = rng.exponential(1.0, size=1000)
        hits += cfar_detect(profile, cfg).size
        cells += profile.size
    assert cells >= 100_000
    rate = hits / cells
    assert 5e-4 <= rate <= 2e-3


def test_cfar_validation():
    with pytest.raises(ValueError):
        CfarConfig(training_cells=0, guard_cells=2, pfa=1e-3)
    with pytest.raises(ValueError):
        CfarConfig(training_cells=8, guard_cells=-1, pfa=1e-3)
    with pytest.raises(ValueError):
        CfarConfig(training_cells=8, guard_cells=2, pfa=1.5)
    # the threshold factor pfa^(-1/training_cells) must stay in the float range
    with pytest.raises(ValueError, match="pfa 5e-324 over 1 training cells gives a threshold factor beyond"):
        CfarConfig(training_cells=1, guard_cells=2, pfa=5e-324)
    CfarConfig(training_cells=2, guard_cells=2, pfa=5e-324)
    with pytest.raises(ValueError):
        cfar_detect(np.ones(9), DEFAULT_RANGE_CFAR)  # needs > 2(t+g)+1 cells
    with pytest.raises(ValueError):
        cfar_detect(np.full(60, math.nan), DEFAULT_RANGE_CFAR)
    with pytest.raises(ValueError):
        cfar_detect(np.ones((10, 10)), DEFAULT_RANGE_CFAR)


@st.composite
def _cfar_cases(draw, rows=st.integers(1, 6), elements=st.floats(0.0, 1.0e3)):
    t = draw(st.integers(1, 8))
    g = draw(st.integers(0, 6))
    n = draw(st.integers(2 * (t + g) + 2, 80))
    power = draw(arrays(np.float64, (draw(rows), n), elements=elements))
    return power, CfarConfig(training_cells=t, guard_cells=g, pfa=1e-3)


@settings(max_examples=200, deadline=None)
@given(_cfar_cases(rows=st.just(1), elements=st.integers(0, 10**6).map(float)), st.floats(1e-9, 0.5))
def test_cfar_detect_equals_naive_oracle_on_integer_profiles(case, pfa):
    # integer cells make the cumulative-sum windows and the oracle's explicit
    # sums exact, so the detections must agree cell for cell. (numpy's
    # vectorized power can differ from Python's pow in the last bit of alpha;
    # that flips a decision only for a cell within an ulp of its threshold.)
    power, cfg = case
    got = cfar_detect(power[0], replace(cfg, pfa=pfa)).tolist()
    assert got == naive_ca_cfar(power[0], cfg.training_cells, cfg.guard_cells, pfa)


@settings(max_examples=100, deadline=None)
@given(_cfar_cases())
def test_cfar_rows_of_the_batch_kernel_equal_one_row_detection(case):
    power, cfg = case
    for c in (cfg, replace(cfg, pfa=0.2)):
        mask = _cfar_mask(power, c)
        for row, row_mask in zip(power, mask):
            assert np.array_equal(np.nonzero(row_mask)[0], cfar_detect(row, c))


@settings(max_examples=100, deadline=None)
@given(_cfar_cases())
def test_cfar_and_local_max_masks_do_not_depend_on_the_memory_layout(case):
    # the AoA batch is angle-major, a test's rows are row-major: the same
    # operations in the same order either way, so the masks match to the cell
    power, cfg = case
    angle_major = np.asfortranarray(power)
    for c in (cfg, replace(cfg, pfa=0.2)):
        assert np.array_equal(_cfar_mask(angle_major, c), _cfar_mask(power, c))
    assert np.array_equal(_local_max_mask(angle_major), _local_max_mask(power))
    assert np.array_equal(_local_max_mask(power[0]), _local_max_mask(power)[0])


@settings(max_examples=100, deadline=None)
@given(_cfar_cases(rows=st.just(1)), st.floats(1e-9, 0.5), st.floats(1e-9, 0.5))
def test_cfar_detections_grow_with_pfa(case, pfa_a, pfa_b):
    power, cfg = case
    lo, hi = sorted((pfa_a, pfa_b))
    fewer = set(cfar_detect(power[0], replace(cfg, pfa=lo)).tolist())
    more = set(cfar_detect(power[0], replace(cfg, pfa=hi)).tolist())
    assert fewer <= more


def test_local_maxima_selection():
    profile = np.array([1.0, 3.0, 3.0, 2.0, 5.0, 4.0, 4.0, 6.0])
    keep = local_maxima(profile, np.arange(profile.size))
    # plateau resolves to its right edge; profile ends count as maxima
    assert list(keep) == [2, 4, 7]


def test_parabolic_offset_hand_cases():
    assert _vertex_offset([1.0, 3.0, 2.0], 1) == pytest.approx(1.0 / 6.0)
    assert _vertex_offset([1.0, 3.0, 1.0], 1) == 0.0
    assert _vertex_offset([2.0, 2.0, 2.0], 1) == 0.0  # degenerate
    assert _vertex_offset([1.0, 3.0, 2.0], 0) == 0.0  # edge
    assert _vertex_offset([1.0, 3.0, 2.0], 2) == 0.0  # edge
    assert _vertex_offset([0.0, 1.0, 10.0], 1) == -0.5  # clamped


# --- AoA ---


def test_aoa_grid_angle_mapping_is_exact():
    # a pure phasor on a grid angle must map back through arcsin(2 b / 64)
    b = 5
    theta_g = math.asin(2.0 * b / 64.0)
    samples = np.zeros((144, 8), complex)
    samples[40, :] = 3.0 * np.exp(1j * math.pi * np.arange(8) * math.sin(theta_g))
    sl = StationarySlice(samples, R_RES, CFG, FrameMeta(0.0, 0.0, 0.0))
    tl = aoa_on_targets(sl, [40])
    assert len(tl.entries) == 1
    e = tl.entries[0]
    assert e.range_m == pytest.approx(40 * R_RES, rel=1e-12)
    assert len(e.angles_rad) == 1
    assert e.angles_rad[0] == pytest.approx(theta_g, abs=1e-9)


def test_aoa_boresight_single_corner():
    cube = synthesize_frame(CFG, _frame(), [Scatterer(2.0, 0.0)], NOISELESS)
    tl = process_frame(cube)
    assert len(tl.entries) == 1
    e = tl.entries[0]
    assert abs(e.range_m - 2.0) <= R_RES / 2
    assert len(e.angles_rad) == 1
    assert abs(e.angles_rad[0]) <= A_RES / 2


def test_aoa_tilted_single_corner():
    theta = math.radians(-20.0)
    sc = Scatterer(2.0 * math.cos(theta), 2.0 * math.sin(theta))
    tl = process_frame(synthesize_frame(CFG, _frame(), [sc], NOISELESS))
    assert len(tl.entries) == 1
    assert abs(tl.entries[0].angles_rad[0] - theta) <= A_RES / 2


def test_aoa_two_targets_same_range_split_by_two_resolutions():
    r = 2.5
    scs = [
        Scatterer(r * math.cos(A_RES), r * math.sin(A_RES)),
        Scatterer(r * math.cos(-A_RES), r * math.sin(-A_RES)),
    ]
    tl = process_frame(synthesize_frame(CFG, _frame(), scs, NOISELESS))
    angles = [a for e in tl.entries for a in e.angles_rad]
    assert len(angles) == 2
    assert min(abs(a - A_RES) for a in angles) <= A_RES / 2
    assert min(abs(a + A_RES) for a in angles) <= A_RES / 2


def test_sub_bin_positions_of_single_corners():
    # a noiseless corner anywhere between bins: the reported values stay on
    # the grid, the parabolic fits land well inside the bin
    rng = np.random.default_rng(1404)
    aoa_bin = 2.0 / 64.0  # one AoA bin, in sin(theta)
    worst_fine_r = worst_fine_a = worst_bin_r = 0.0
    for _ in range(300):
        r = rng.uniform(1.0, 5.0)
        theta = rng.uniform(math.radians(-40.0), math.radians(40.0))
        sc = Scatterer(r * math.cos(theta), r * math.sin(theta))
        tl = process_frame(synthesize_frame(CFG, _frame(), [sc], NOISELESS))
        e = max(tl.entries, key=lambda e: e.magnitude)
        assert len(e.angles_rad) == len(e.fine_angles_rad) == 1
        assert abs(e.range_m / R_RES - round(e.range_m / R_RES)) < 1e-9
        b = math.sin(e.angles_rad[0]) / aoa_bin
        assert abs(b - round(b)) < 1e-9
        worst_bin_r = max(worst_bin_r, abs(e.range_m - r) / R_RES)
        worst_fine_r = max(worst_fine_r, abs(e.fine_range_m - r) / R_RES)
        worst_fine_a = max(
            worst_fine_a, abs(math.sin(e.fine_angles_rad[0]) - math.sin(theta)) / aoa_bin
        )
    assert worst_fine_r <= 0.1
    assert worst_fine_a <= 0.05
    assert worst_bin_r > 0.4  # bin centres alone are off by up to half a bin


def test_peak_interp_reports_the_fine_range():
    cube, _, _ = _staircase_cube(seed=3)
    plain = process_frame(cube)
    interp = process_frame(cube, DspConfig(peak_interp=True))
    assert len(plain.entries) == len(interp.entries) >= 2
    for p, q in zip(plain.entries, interp.entries):
        assert q.range_m == q.fine_range_m == p.fine_range_m
        assert (q.angles_rad, q.fine_angles_rad) == (p.angles_rad, p.fine_angles_rad)


def test_aoa_empty_selection_is_empty_list():
    sl = extract_stationary_slice(range_doppler_transform(_random_cube(4)))
    tl = aoa_on_targets(sl, [])
    assert tl.entries == ()


def test_aoa_per_bin_results_independent_of_selection():
    cube, _, _ = _staircase_cube(seed=7)
    sl = extract_stationary_slice(range_doppler_transform(cube))
    full = aoa_on_targets(sl, list(range(144)))
    by_bin = {round(e.range_m / R_RES): e for e in full.entries}
    subset = [48, 55, 62, 100]
    part = aoa_on_targets(sl, subset)
    assert list(part.entries) == [by_bin[k] for k in subset if k in by_bin]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    corners=st.lists(
        st.tuples(st.floats(1.0, 5.0), st.floats(-0.7, 0.7)), min_size=1, max_size=4
    ),
    bins=st.one_of(st.just(list(range(144))), st.lists(st.integers(0, 143), max_size=40)),
    peak_interp=st.booleans(),
)
def test_batched_aoa_equals_one_bin_calls(seed, corners, bins, peak_interp):
    scs = [Scatterer(r * math.cos(th), r * math.sin(th)) for r, th in corners]
    cube = synthesize_frame(CFG, _frame(), scs, NoiseConfig(snr_db=15.0), seed=seed)
    sl = extract_stationary_slice(range_doppler_transform(cube))
    cfg = DspConfig(peak_interp=peak_interp)
    batched = aoa_on_targets(sl, bins, cfg).entries
    one_by_one = tuple(e for k in sorted(bins) for e in aoa_on_targets(sl, [k], cfg).entries)
    assert repr(batched) == repr(one_by_one)  # repr tells every float bit apart, -0.0 too


def test_exhaustive_frame_makes_one_aoa_fft(monkeypatch):
    # one range transform of the chirp sum (no Doppler FFT) and one batched
    # AoA transform, however many bins
    calls = []
    fft = numerics.fft
    monkeypatch.setattr(numerics, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
    cube, _, _ = _staircase_cube(seed=2)
    for cfg in (DspConfig(exhaustive_aoa=True), DspConfig()):
        calls.clear()
        assert len(process_frame(cube, cfg).entries) >= 2
        assert len(calls) == 2


def test_exhaustive_frame_peak_memory_stays_under_two_and_a_half_cubes():
    cube, _, _ = _staircase_cube(seed=2)
    cfg = DspConfig(exhaustive_aoa=True, peak_interp=True)
    process_frame(cube, cfg)  # fills per-shape caches
    tracemalloc.start()
    try:
        process_frame(cube, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the complex AoA spectra (one cube size, released before CFAR), then the
    # power, the CFAR's running sums and its left and right window sums: 2.3
    # cube sizes, where a concatenated copy of the spectra and out-of-place
    # window arithmetic took 4.7
    assert peak < 2.5 * cube.samples.nbytes


# --- full frame pipeline ---


def test_process_three_corner_scene_matches_ground_truth():
    cube, spec, frame = _staircase_cube(steps=3, noise=NOISELESS)
    tl = process_frame(cube)
    matched = 0
    for cx, cy in corners_of(spec):
        r_true = math.hypot(cx - frame.x_m, cy - frame.y_m)
        th_true = math.atan2(cy - frame.y_m, cx - frame.x_m) - frame.tilt_rad
        hit = any(
            abs(e.range_m - r_true) <= R_RES
            and any(abs(a - th_true) <= A_RES for a in e.angles_rad)
            for e in tl.entries
        )
        matched += hit
    assert matched >= 2


def test_selective_equals_exhaustive():
    cases = [_staircase_cube(seed=s)[0] for s in (0, 1)] + [_random_cube(9)]
    for cfg in (DspConfig(), DspConfig(peak_interp=True)):
        for cube in cases:
            a = process_frame(cube, cfg)
            b = process_frame(cube, replace(cfg, exhaustive_aoa=True))
            assert a == b  # sub-bin fields included
    # the comparison above covers sub-bin values that differ from the reported ones
    entries = process_frame(cases[0]).entries
    assert any(e.fine_range_m != e.range_m for e in entries)
    assert any(e.fine_angles_rad != e.angles_rad for e in entries)


# --- the sub-bin fits and the target list against their array form ---

# corners anywhere in range, from the first range bin to the last, and at any
# angle, the AoA spectrum's edges (sin theta near -1) included
_CORNERS = st.lists(
    st.tuples(
        st.one_of(st.floats(0.01, 5.99), st.sampled_from([0.01, 0.03, 5.95, 5.98])),
        st.one_of(st.floats(-1.57, 1.57), st.sampled_from([-1.5707, -1.45, 1.5707])),
        st.floats(0.2, 3.0),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    corners=_CORNERS,
    snr_db=st.one_of(st.none(), st.floats(0.0, 40.0)),
    seed=st.integers(0, 2**32 - 1),
    peak_interp=st.booleans(),
    exhaustive=st.booleans(),
)
def test_process_frame_equals_the_array_form(corners, snr_db, seed, peak_interp, exhaustive):
    scs = [Scatterer(r * math.cos(th), r * math.sin(th), reflectivity=a) for r, th, a in corners]
    noise = NOISELESS if snr_db is None else NoiseConfig(snr_db=snr_db)
    cube = synthesize_frame(CFG, _frame(), scs, noise, seed=seed)
    cfg = DspConfig(peak_interp=peak_interp, exhaustive_aoa=exhaustive)
    sl = stationary_slice(cube)
    profile = accumulate_range_profile(sl)
    rc = cfg.range_cfar
    det = naive_local_maxima(profile, naive_ca_cfar(profile, rc.training_cells, rc.guard_cells, rc.pfa))
    # repr tells every float bit apart, -0.0 too
    assert repr(process_frame(cube, cfg)) == repr(naive_target_list(sl, det, cfg, profile))


def _exact_phasor_row(step: int, level: int) -> list[complex]:
    """Eight channels advancing by step quarter turns, every sample's magnitude exactly ``level``."""
    return [level * 1j ** (step * a % 4) for a in range(8)]


@st.composite
def _integer_slices(draw):
    """Slices whose rows have exact integer channel magnitudes, so the profile holds exact
    flat and linear triples, and AoA peaks at centered bins 0, +-16 and -32 (the row's edge)."""
    rows = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=144, max_size=144)
    )
    samples = np.array([_exact_phasor_row(step, level) for step, level in rows])
    return StationarySlice(samples, R_RES, CFG, FrameMeta(0.25, -0.3, 0.0))


@settings(max_examples=60, deadline=None)
@given(
    sl=st.one_of(
        _integer_slices(),
        st.builds(
            lambda seed: stationary_slice(_staircase_cube(seed=seed)[0]), st.integers(0, 2**16)
        ),
    ),
    bins=st.lists(st.one_of(st.integers(0, 143), st.sampled_from([0, 1, 142, 143])), max_size=12),
    peak_interp=st.booleans(),
)
def test_aoa_on_targets_equals_the_array_form(sl, bins, peak_interp):
    cfg = DspConfig(peak_interp=peak_interp)
    profile = accumulate_range_profile(sl)
    got = aoa_on_targets(sl, bins, cfg, profile=profile)
    assert repr(got) == repr(naive_target_list(sl, sorted(bins), cfg, profile))


def test_integer_slices_reach_flat_triples_and_edge_peaks():
    # the cases the property above is there for, in one hand-made slice: a
    # constant profile (every triple flat) and an AoA peak in the row's first cell
    samples = np.array([_exact_phasor_row(2, 1)] * 144)
    sl = StationarySlice(samples, R_RES, CFG, FrameMeta(0.0, 0.0, 0.0))
    profile = accumulate_range_profile(sl)
    assert set(profile.tolist()) == {8.0}
    tl = aoa_on_targets(sl, [0, 70, 143], DspConfig(peak_interp=True), profile=profile)
    assert [e.fine_range_m for e in tl.entries] == [k * R_RES for k in (0, 70, 143)]
    for e in tl.entries:  # an edge peak keeps its bin position
        assert e.angles_rad[0] == e.fine_angles_rad[0] == -math.pi / 2
    assert repr(tl) == repr(naive_target_list(sl, [0, 70, 143], DspConfig(peak_interp=True), profile))


def test_entry_ordering_and_bounds():
    cube, _, _ = _staircase_cube(seed=5)
    tl = process_frame(cube)
    assert len(tl.entries) >= 2
    ranges = [e.range_m for e in tl.entries]
    assert ranges == sorted(ranges)
    for e in tl.entries:
        assert 0.0 <= e.range_m <= ATTRS.max_range_m
        assert all(abs(a) <= math.pi / 2 for a in e.angles_rad)
        assert e.magnitude > 0.0
        # default pipeline reports on the native bin grid
        assert abs(e.range_m / R_RES - round(e.range_m / R_RES)) < 1e-9


def test_noise_only_frames_stay_under_false_alarm_budget():
    total = 0
    for seed in range(100):
        cube = synthesize_frame(CFG, _frame(), [], NoiseConfig(power=1.0), seed=seed)
        total += len(process_frame(cube).entries)
    assert total / 100.0 <= 2.0 * 1e-3 * 144


def test_moving_only_scene_yields_empty_list():
    for seed in (0, 1, 2):
        sc = Scatterer(2.0, 0.0, radial_velocity_mps=2.0 * V_RES)
        cube = synthesize_frame(CFG, _frame(), [sc], NoiseConfig(snr_db=20.0), seed=seed)
        assert process_frame(cube).entries == ()


def test_canceling_mover_appears_fast_mover_excluded():
    v_host = 1.0
    scs = [
        Scatterer(1.5, 0.0, radial_velocity_mps=-v_host),
        Scatterer(3.0, 0.0, radial_velocity_mps=2.0 * V_RES - v_host),
    ]
    cube = synthesize_frame(CFG, _frame(v=v_host), scs, NoiseConfig(snr_db=20.0), seed=6)
    tl = process_frame(cube)
    assert any(abs(e.range_m - 1.5) <= R_RES for e in tl.entries)
    assert not any(abs(e.range_m - 3.0) <= 2 * R_RES for e in tl.entries)


def test_stationary_corner_stands_over_noise_floor():
    cube, spec, frame = _staircase_cube(seed=8, steps=1, standoff=2.5)
    profile = accumulate_range_profile(extract_stationary_slice(range_doppler_transform(cube)))
    cx, cy = corners_of(spec)[0]
    k = round(math.hypot(cx - frame.x_m, cy - frame.y_m) / R_RES)
    floor = np.median(profile)
    assert profile[k] > 10.0 * floor


def test_process_is_deterministic():
    cube, _, _ = _staircase_cube(seed=11)
    assert process_frame(cube) == process_frame(cube)


# --- configuration and serialization ---


def test_dsp_config_with_pfa_and_validation():
    cfg = DspConfig().with_pfa(1e-4)
    assert cfg.range_cfar.pfa == 1e-4 and cfg.aoa_cfar.pfa == 1e-4
    assert cfg.range_cfar.training_cells == DEFAULT_RANGE_CFAR.training_cells
    assert cfg.aoa_cfar.guard_cells == DEFAULT_AOA_CFAR.guard_cells
    with pytest.raises(ValueError):
        DspConfig(aoa_fft_len=0)
    with pytest.raises(ValueError, match=r"aoa_fft_len must be in \[1, 4096\], got 4097"):
        DspConfig(aoa_fft_len=4097)


def test_target_list_jsonl_format(tmp_path):
    lists = [
        TargetList(
            entries=(
                TargetEntry(
                    range_m=1.9986,
                    angles_rad=(-0.21, 0.05),
                    magnitude=42.5,
                    fine_range_m=2.0071,
                    fine_angles_rad=(-0.2153, 0.0462),
                ),
                TargetEntry(range_m=2.4567, angles_rad=(0.3,), magnitude=17.0),
            ),
            gamma_rad=math.radians(-19.0),
            timestamp_s=0.7,
        ),
        TargetList(entries=(), gamma_rad=0.0, timestamp_s=0.8),
    ]
    path = tmp_path / "targets.jsonl"
    write_target_lists(lists, path)
    # one compact line per frame; angles in degrees only
    lines = path.read_text().splitlines()
    assert lines == [target_list_to_json(tl) for tl in lists]
    assert all(": " not in line and ", " not in line for line in lines)
    first, empty = map(json.loads, lines)
    assert empty == {"t": 0.8, "gamma_deg": 0.0, "targets": []}
    assert first["t"] == 0.7 and first["gamma_deg"] == math.degrees(lists[0].gamma_rad)
    for rec, e in zip(first["targets"], lists[0].entries):
        assert rec == {
            "r_m": e.range_m,
            "theta_deg": [math.degrees(a) for a in e.angles_rad],
            "mag": e.magnitude,
            "fine_r_m": e.fine_range_m,
            "fine_theta_deg": [math.degrees(a) for a in e.fine_angles_rad],
        }
    assert first["targets"][0]["fine_r_m"] != first["targets"][0]["r_m"]


def test_target_entry_sub_bin_values_default_to_reported():
    e = TargetEntry(range_m=2.0, angles_rad=(-0.1, 0.2), magnitude=3.0)
    assert e.fine_range_m == 2.0 and e.fine_angles_rad == (-0.1, 0.2)
    with pytest.raises(ValueError):
        TargetEntry(range_m=2.0, angles_rad=(-0.1, 0.2), magnitude=3.0, fine_angles_rad=(0.0,))
