import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairdim import scenario
from stairdim.chirp_sim import (
    NOISELESS,
    ChirpCube,
    NoiseConfig,
    quantize_to_wire,
)
from stairdim.dimension import SWEEP_STANDARDS, StairStandards, estimate_initial
from stairdim.dsp_chain import (
    CfarConfig,
    DspConfig,
    TargetList,
    accumulate_range_profile,
    aoa_on_targets,
    cfar_detect,
    extract_stationary_slice,
    local_maxima,
    process_frame,
    range_doppler_transform,
    stationary_slice,
)
from stairdim.enhancer import Dataset, assemble_dataset
from stairdim.rf_params import RadarConfig, derive_attributes
from stairdim.scene import StaircaseSpec, WalkConfig, corner_scatterers, radar_height
from stairdim.scenario import (
    SWEEP_DEPTHS_M,
    SWEEP_HEIGHTS_M,
    ClutterConfig,
    ScenarioConfig,
    build_sweep,
    hash_name,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_scatterers,
    scenario_to_dict,
    scenario_trajectory,
    synthesize_scenario_frame,
)

ATTRS = derive_attributes(RadarConfig())


def test_sweep_grid_covers_all_combinations():
    assert SWEEP_DEPTHS_M == (0.26, 0.28, 0.30, 0.32, 0.34, 0.36, 0.38)
    assert SWEEP_HEIGHTS_M == (0.10, 0.12, 0.14, 0.16, 0.18)
    scenarios = build_sweep(base_seed=0, walks_per_combo=2)
    assert len(scenarios) == 70
    names = {sc.name for sc in scenarios}
    assert names == {
        f"d{round(d * 100):02d}h{round(h * 100):02d}_w{k}"
        for d in SWEEP_DEPTHS_M
        for h in SWEEP_HEIGHTS_M
        for k in range(2)
    }
    assert len({sc.seed for sc in scenarios}) == 70
    for sc in scenarios:
        assert sc.name == (
            f"d{round(sc.staircase.depth_m * 100):02d}"
            f"h{round(sc.staircase.height_m * 100):02d}"
            f"_w{sc.name.rsplit('_w', 1)[1]}"
        )
        assert sc.staircase.step_count == 4
        assert sc.standards == SWEEP_STANDARDS
        assert sc.walk.seed == sc.seed


def test_sweep_mount_heights_stratify_ascending():
    scenarios = build_sweep(base_seed=0, walks_per_combo=4)
    by_combo = {}
    for sc in scenarios:
        combo = sc.name.rsplit("_w", 1)[0]
        by_combo.setdefault(combo, []).append(sc.walk.mount_height_m)
    assert len(by_combo) == 35
    for heights in by_combo.values():
        assert all(0.40 <= h < 0.50 for h in heights)
        assert heights == sorted(heights)  # walk k stays inside stratum k
        for k, h in enumerate(heights):
            assert 0.40 + k * 0.025 <= h < 0.40 + (k + 1) * 0.025


def test_sweep_seed_and_override_plumbing():
    a = build_sweep(base_seed=0, walks_per_combo=1)
    b = build_sweep(base_seed=1, walks_per_combo=1)
    assert [sc.seed for sc in a] != [sc.seed for sc in b]
    assert a[0].seed == hash_name(a[0].name)  # base 0 leaves the name hash

    noise = NoiseConfig(snr_db=14.0)
    dsp = DspConfig(peak_interp=True)
    custom = build_sweep(walks_per_combo=1, noise=noise, dsp=dsp, step_count=3)
    for sc in custom:
        assert sc.noise == noise
        assert sc.dsp.peak_interp
        assert sc.staircase.step_count == 3


def test_scenario_serialization_round_trip():
    sc = ScenarioConfig(
        name="rt",
        seed=42,
        walk=WalkConfig(mount_height_m=0.47, seed=9),
        noise=NoiseConfig(snr_db=17.5),
        clutter=ClutterConfig(count=3, reflectivity=0.2),
        dsp=DspConfig(peak_interp=True, exhaustive_aoa=True).with_pfa(1e-4),
    )
    d1 = scenario_to_dict(sc)
    sc2 = scenario_from_dict(d1)
    assert sc2.name == "rt" and sc2.seed == 42
    assert sc2.staircase == sc.staircase
    assert sc2.clutter == sc.clutter
    assert sc2.dsp == sc.dsp
    assert sc2.noise == sc.noise
    assert sc2.walk.mount_height_m == 0.47
    assert sc2.walk.mount_tilt_rad == pytest.approx(sc.walk.mount_tilt_rad, abs=1e-12)
    # degree-encoded angles settle after one pass: dict form is then a fixpoint
    d2 = scenario_to_dict(sc2)
    assert scenario_to_dict(scenario_from_dict(d2)) == d2


def test_scenario_file_round_trip(tmp_path):
    sc = ScenarioConfig(name="file", seed=7)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(sc)))
    back = load_scenario(path)
    assert back.name == "file" and back.seed == 7
    assert back.radar == sc.radar
    assert scenario_from_dict({}) == ScenarioConfig()  # everything defaults


def _positive(hi):
    return st.floats(1e-3, hi, allow_nan=False, allow_infinity=False)


def _angle():
    return st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)


def _band():
    return st.tuples(_positive(1.0), _positive(1.0)).map(lambda t: (t[0], t[0] + t[1]))


def _cfar():
    return st.builds(
        CfarConfig,
        training_cells=st.integers(1, 16),
        guard_cells=st.integers(0, 8),
        pfa=st.floats(1e-12, 0.999),
    )


def _walk():
    return st.tuples(_positive(2.0), _positive(4.0)).flatmap(
        lambda ends: st.builds(
            WalkConfig,
            start_standoff_m=st.just(ends[0] + ends[1]),
            end_standoff_m=st.just(ends[0]),
            duration_s=_positive(20.0),
            rate_hz=_positive(100.0),
            mount_height_m=_positive(1.0),
            mount_tilt_rad=_angle(),
            sway_amplitude_rad=_angle(),
            sway_frequency_hz=st.floats(0.0, 5.0),
            sway_noise_sigma_rad=st.floats(0.0, math.pi),
            imu_noise_sigma_rad=st.floats(0.0, math.pi),
            seed=st.integers(-(2**63), 2**63),
        )
    )


_SCENARIOS = st.builds(
    ScenarioConfig,
    name=st.text(max_size=20),
    seed=st.integers(-(2**63), 2**63),
    radar=st.builds(
        RadarConfig,
        carrier_frequency_hz=_positive(1e11),
        bandwidth_hz=_positive(1e10),
        samples_per_chirp=st.integers(1, 1024),
        tx_count=st.integers(1, 4),
    ),
    staircase=st.builds(
        StaircaseSpec,
        depth_m=_positive(1.0),
        height_m=_positive(1.0),
        step_count=st.integers(1, 12),
    ),
    walk=_walk(),
    noise=st.builds(
        NoiseConfig,
        snr_db=st.none() | st.floats(-20.0, 60.0),
        power=st.none() | _positive(10.0),
    ),
    clutter=st.builds(ClutterConfig, count=st.integers(0, 50), reflectivity=st.floats(0.0, 1.0)),
    dsp=st.builds(
        DspConfig,
        aoa_fft_len=st.integers(16, 512),  # at least the largest virtual array drawn
        range_cfar=_cfar(),
        aoa_cfar=_cfar(),
        peak_interp=st.booleans(),
        exhaustive_aoa=st.booleans(),
    ),
    standards=st.builds(StairStandards, depth_range_m=_band(), height_range_m=_band()),
)


def _through_json(d):
    return json.loads(json.dumps(d))


@settings(max_examples=200, deadline=None)
@given(_SCENARIOS)
def test_scenario_codec_round_trip(sc):
    back = scenario_from_dict(_through_json(scenario_to_dict(sc)))
    # everything but the degree-encoded walk angles comes back exactly
    assert replace(back, walk=sc.walk) == sc
    for f in fields(WalkConfig):
        a, b = getattr(sc.walk, f.name), getattr(back.walk, f.name)
        if f.name.endswith("_rad"):
            assert abs(a - b) <= 1e-12, f.name
        else:
            assert a == b, f.name
    # after one pass the dict form is a fixpoint
    d = _through_json(scenario_to_dict(back))
    assert scenario_to_dict(scenario_from_dict(d)) == d


def test_partial_scenario_fills_from_the_default_at_that_position():
    sc = scenario_from_dict({"dsp": {"range_cfar": {"pfa": 1e-4}}})
    assert sc.dsp.range_cfar.training_cells == 2  # DEFAULT_RANGE_CFAR, not CfarConfig()
    assert sc.dsp.range_cfar.pfa == 1e-4
    assert replace(sc, dsp=DspConfig()) == ScenarioConfig()
    partial = scenario_from_dict({"standards": {"depth_range_m": [0.2, 0.4]}})
    assert partial.standards.height_range_m == SWEEP_STANDARDS.height_range_m
    assert scenario_from_dict({"noise": {}}).noise == NoiseConfig()


def _leaves(d, path=()):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _with_leaf(path, value):
    d = scenario_to_dict(ScenarioConfig())
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


def test_scenario_file_has_38_settable_values():
    # every leaf is a setting a scenario file can change; a new one needs a caller
    assert len(list(_leaves(scenario_to_dict(ScenarioConfig())))) == 38


def test_every_leaf_rejects_a_value_of_the_wrong_shape():
    checked = 0
    for path, default in _leaves(scenario_to_dict(ScenarioConfig())):
        wrong = ["x", [], {}]
        if isinstance(default, int) and not isinstance(default, bool):
            wrong.append(2.5)
        for value in wrong:
            if value == "x" and isinstance(default, str):
                continue  # a string is the right shape for a string field
            with pytest.raises((ValueError, KeyError)):
                scenario_from_dict(_with_leaf(path, value))
            checked += 1
    assert checked > 100


def test_scenario_scatterers_include_seeded_clutter():
    sc = ScenarioConfig(clutter=ClutterConfig(count=5, reflectivity=0.25), seed=13)
    scs = scenario_scatterers(sc)
    assert len(scs) == sc.staircase.step_count + 5
    assert all(s.reflectivity == 0.25 for s in scs[4:])
    assert scenario_scatterers(sc) == scs  # same master seed, same clutter
    other = scenario_scatterers(ScenarioConfig(clutter=ClutterConfig(count=5), seed=14))
    assert list(other[4:]) != list(scs[4:])


def test_scenario_frame_seeding():
    sc = ScenarioConfig(name="seeds", seed=5, walk=WalkConfig(duration_s=1.2))
    traj = scenario_trajectory(sc)
    a = synthesize_scenario_frame(sc, traj, 0)
    b = synthesize_scenario_frame(sc, traj, 0)
    c = synthesize_scenario_frame(sc, traj, 1)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.meta.timestamp_s == traj.frames[0].timestamp_s
    assert c.meta.gamma_rad == traj.frames[1].gamma_rad


def test_run_scenario_noiseless_smoke():
    sc = ScenarioConfig(
        name="smoke", seed=3, walk=WalkConfig(duration_s=1.2), noise=NOISELESS
    )
    result = run_scenario(sc)
    n = len(result.trajectory.frames)
    assert n == 12
    assert len(result.target_lists) == n and len(result.estimates) == n

    got = [e for e in result.estimates if e is not None]
    assert len(got) >= n // 2
    agg = result.aggregate()
    assert agg is not None
    assert abs(agg[0] - sc.staircase.depth_m) <= ATTRS.range_resolution_m
    assert abs(agg[1] - sc.staircase.height_m) <= ATTRS.range_resolution_m
    for est in got:
        assert est.radar_height_m is not None
        assert 0.0 < est.radar_height_m <= sc.walk.mount_height_m


def test_run_scenario_is_deterministic():
    sc = ScenarioConfig(name="det", seed=11, walk=WalkConfig(duration_s=1.2))
    r1 = run_scenario(sc)
    r2 = run_scenario(sc)
    assert r1.target_lists == r2.target_lists
    assert r1.aggregate() == r2.aggregate()


@pytest.fixture(scope="module")
def noisy_interp_walk():
    """A noisy 50-frame sweep walk processed with sub-bin range refinement."""
    return replace(build_sweep(3, 1)[1], dsp=DspConfig(peak_interp=True))


def test_run_scenario_builds_the_scatterers_once(monkeypatch, noisy_interp_walk):
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return corner_scatterers(spec, *args, **kwargs)

    monkeypatch.setattr(scenario, "corner_scatterers", counting)
    sc = replace(noisy_interp_walk, name="scatterers-once", seed=noisy_interp_walk.seed + 1)
    result = run_scenario(sc)
    assert len(result.target_lists) == 50
    assert calls == [sc.staircase]
    # the cached value is a tuple, so no caller can change it for the next frame
    assert isinstance(scenario_scatterers(sc), tuple)


def test_process_frame_does_not_depend_on_cube_layout(noisy_interp_walk):
    sc = noisy_interp_walk
    traj = scenario_trajectory(sc)
    assert len(traj.frames) == 50
    for i in range(len(traj.frames)):
        cube = quantize_to_wire(synthesize_scenario_frame(sc, traj, i))
        fortran = ChirpCube(np.asfortranarray(cube.samples), cube.config, cube.meta)
        assert process_frame(fortran, sc.dsp) == process_frame(cube, sc.dsp), i


def _stage_by_stage(cube, cfg):
    # process_frame rebuilt from the public stages around the full cube, one
    # AoA call per range bin, as the benchmark's traced runs time it
    sl = extract_stationary_slice(range_doppler_transform(cube, cfg))
    profile = accumulate_range_profile(sl)
    det = local_maxima(profile, cfar_detect(profile, cfg.range_cfar))
    bins = range(profile.size) if cfg.exhaustive_aoa else det
    per_bin = [aoa_on_targets(sl, [k], cfg, profile=profile).entries for k in bins]
    kept = {int(k) for k in det}
    entries = tuple(e for k, found in zip(bins, per_bin) if int(k) in kept for e in found)
    return TargetList(entries, gamma_rad=sl.meta.gamma_rad, timestamp_s=sl.meta.timestamp_s)


@pytest.mark.parametrize(
    "dsp",
    [DspConfig(), DspConfig(peak_interp=True), DspConfig(exhaustive_aoa=True, peak_interp=True)],
    ids=["default", "peak_interp", "exhaustive_peak_interp"],
)
def test_stage_by_stage_chain_equals_process_frame(dsp):
    sc = replace(build_sweep(3, 1)[1], dsp=dsp)
    traj = scenario_trajectory(sc)
    assert len(traj.frames) == 50
    entries = 0
    for i in range(len(traj.frames)):
        cube = quantize_to_wire(synthesize_scenario_frame(sc, traj, i))
        tl = process_frame(cube, dsp)
        assert _stage_by_stage(cube, dsp) == tl, i  # exactly, sub-bin fields included
        entries += len(tl.entries)
    assert entries > 50


@pytest.mark.parametrize(
    "dsp, clutter",
    [(DspConfig(), 0), (DspConfig(peak_interp=True), 0), (DspConfig(), 5)],
    ids=["default", "peak_interp", "clutter"],
)
def test_run_scenario_equals_the_public_stages_composed(dsp, clutter):
    # the walk builds its scene columns once; frame by frame from the scatterer
    # list, through every public stage, gives the same lists and estimates
    sc = replace(build_sweep(3, 1)[1], dsp=dsp, clutter=ClutterConfig(count=clutter))
    result = run_scenario(sc)
    traj = scenario_trajectory(sc)
    assert len(traj.frames) == len(result.estimates) == 50
    for i, frame in enumerate(traj.frames):
        cube = quantize_to_wire(synthesize_scenario_frame(sc, traj, i))
        sl = stationary_slice(cube)
        profile = accumulate_range_profile(sl)
        det = local_maxima(profile, cfar_detect(profile, dsp.range_cfar))
        tl = aoa_on_targets(sl, det, dsp, profile=profile)
        h_r = radar_height(sc.walk.mount_height_m, frame.gamma_rad)
        estimate = estimate_initial(tl, frame.gamma_rad, sc.standards, radar_height_m=h_r)
        assert repr(result.target_lists[i]) == repr(tl), i
        assert repr(result.estimates[i]) == repr(estimate), i
    assert sum(e is not None for e in result.estimates) > 10


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch, tmp_path):
    monkeypatch.setattr(scenario, "_CGROUP", tmp_path)
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, usable in ((4, 4), (1, 1), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert scenario._usable_cpus() == usable


@pytest.mark.parametrize(
    "files, usable",
    [
        ({"cpu.max": "max 100000\n"}, 4),
        ({"cpu.max": "100000 100000\n"}, 1),
        ({"cpu.max": "150000 100000\n"}, 1),
        ({"cpu.max": "250000 100000\n"}, 2),
        ({"cpu.max": "800000 100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
        ({"cpu.max": "garbled\n"}, 4),
        ({}, 4),
    ],
    ids=["v2-max", "v2-one", "v2-one-and-a-half", "v2-two", "v2-eight",
         "v1-unlimited", "v1-half", "v1-two", "unreadable", "no-cgroup"],
)
def test_usable_cpus_are_capped_by_a_cgroup_quota(monkeypatch, tmp_path, files, usable):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(scenario, "_CGROUP", tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert scenario._usable_cpus() == usable


def test_a_walks_dataset_rows_do_not_depend_on_the_walks_around_it(monkeypatch):
    # the pool's invariant: a walk gives the same rows in whichever process,
    # and after whichever walks, it runs
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 3)
    sweep = build_sweep(3, 1)[:6]
    together = assemble_dataset(sweep)
    for sc in reversed(sweep):
        alone = assemble_dataset([sc])
        rows = together.scenario_id == sc.name
        assert alone.n_rows == rows.sum() > 0, sc.name
        for name, column in zip(Dataset._fields, alone):
            np.testing.assert_array_equal(getattr(together, name)[rows], column, err_msg=name)
