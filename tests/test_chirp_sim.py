import math
import tracemalloc

import numpy as np
import pytest

from oracles import naive_dft
from stairdim import chirp_sim
from stairdim.chirp_sim import (
    CUBE_MAGIC,
    NOISELESS,
    ChirpCube,
    FrameMeta,
    NoiseConfig,
    _sum_over_scatterers,
    load_cube,
    quantize_to_wire,
    save_cube,
    synthesize_frame,
)
from stairdim.rf_params import RadarConfig, derive_attributes
from stairdim.scene import GaitFrame, Scatterer

CFG = RadarConfig()
ATTRS = derive_attributes(CFG)


def _frame(x=0.0, y=0.0, tilt=0.0, v=0.0, t=0.0):
    return GaitFrame(timestamp_s=t, x_m=x, y_m=y, tilt_rad=tilt, gamma_rad=tilt, v_host_mps=v)


def test_empty_scene_noiseless_is_all_zero():
    cube = synthesize_frame(CFG, _frame(), [], NOISELESS)
    assert cube.samples.shape == (144, 8, 8)
    assert np.all(cube.samples == 0.0)


def test_single_scatterer_beat_frequency_lands_on_range_bin():
    # boresight target at exactly 50 range bins: the fast-time tone must put
    # all its energy into DFT bin 50 on every chirp and channel
    r = 50 * ATTRS.range_resolution_m
    cube = synthesize_frame(CFG, _frame(), [Scatterer(r, 0.0)], NOISELESS)
    for p in (0, 7):
        for a in (0, 3):
            spectrum = np.abs(naive_dft(cube.samples[:, p, a]))
            assert spectrum.argmax() == 50
            # integer-bin tone: the peak carries the whole signal
            assert spectrum[50] == pytest.approx(144.0 / r, rel=1e-9)


def test_amplitude_model_range_falloff():
    r1, r2 = 2.0, 4.0
    c1 = synthesize_frame(CFG, _frame(), [Scatterer(r1, 0.0)], NOISELESS)
    c2 = synthesize_frame(CFG, _frame(), [Scatterer(r2, 0.0)], NOISELESS)
    assert abs(c1.samples[0, 0, 0]) == pytest.approx(1.0 / r1, rel=1e-12)
    assert abs(c2.samples[0, 0, 0]) == pytest.approx(1.0 / r2, rel=1e-12)


def test_linearity_of_superposition():
    a = [Scatterer(2.0, 0.3), Scatterer(3.1, -0.4, reflectivity=0.7)]
    b = [Scatterer(1.4, 0.1, reflectivity=0.5), Scatterer(4.2, 0.8)]
    cube_a = synthesize_frame(CFG, _frame(), a, NOISELESS).samples
    cube_b = synthesize_frame(CFG, _frame(), b, NOISELESS).samples
    cube_ab = synthesize_frame(CFG, _frame(), a + b, NOISELESS).samples
    err = np.max(np.abs(cube_ab - (cube_a + cube_b)))
    assert err / np.max(np.abs(cube_ab)) < 1e-10


def test_phase_front_across_virtual_channels():
    # adjacent channels of a single return differ by exactly pi*sin(theta)
    rng = np.random.default_rng(41)
    for _ in range(5):
        theta = float(rng.uniform(-1.0, 1.0))
        r = float(rng.uniform(1.0, 5.0))
        sc = Scatterer(r * math.cos(theta), r * math.sin(theta))
        cube = synthesize_frame(CFG, _frame(), [sc], NOISELESS).samples
        ratio = cube[:, :, 1:] / cube[:, :, :-1]
        phase = np.angle(ratio)
        expected = math.pi * math.sin(theta)  # |theta| < 1 rad keeps this inside +-pi
        assert np.max(np.abs(phase - expected)) < 1e-9


def test_doppler_canceling_mover_vs_fast_mover():
    # host walks at 1 m/s; one scatterer backs away at exactly that radial
    # speed (net zero -> Doppler bin 0), one closes at 2 v_res (bin 2)
    v_host = 1.0
    v_res = ATTRS.velocity_resolution_mps
    r1, r2 = 30 * ATTRS.range_resolution_m, 60 * ATTRS.range_resolution_m
    sc1 = Scatterer(r1, 0.0, radial_velocity_mps=-v_host)
    sc2 = Scatterer(r2, 0.0, radial_velocity_mps=2.0 * v_res - v_host)
    cube = synthesize_frame(CFG, _frame(v=v_host), [sc1, sc2], NOISELESS).samples

    def doppler_profile(range_bin):
        per_chirp = np.array(
            [naive_dft(cube[:, p, 0])[range_bin] for p in range(8)]
        )
        return np.abs(naive_dft(per_chirp))

    prof1 = doppler_profile(30)
    assert prof1.argmax() == 0
    prof2 = doppler_profile(60)
    assert prof2.argmax() == 2
    # integer-bin tones leave nothing in the stationary bin
    assert prof2[0] < 1e-6 * prof2[2]
    assert prof1[2] < 1e-6 * prof1[0]


def test_noise_determinism_and_seed_sensitivity():
    sc = [Scatterer(2.5, 0.2)]
    a = synthesize_frame(CFG, _frame(), sc, NoiseConfig(snr_db=20.0), seed=11).samples
    b = synthesize_frame(CFG, _frame(), sc, NoiseConfig(snr_db=20.0), seed=11).samples
    c = synthesize_frame(CFG, _frame(), sc, NoiseConfig(snr_db=20.0), seed=12).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_power_override_sets_variance():
    cube = synthesize_frame(CFG, _frame(), [], NoiseConfig(power=0.25), seed=3).samples
    measured = np.mean(np.abs(cube) ** 2)
    assert measured == pytest.approx(0.25, rel=0.05)


def test_snr_definition_at_nearest_scatterer():
    # noise variance = nearest amplitude^2 / 10^(snr/10)
    sc = [Scatterer(2.0, 0.0), Scatterer(4.0, 0.0)]
    clean = synthesize_frame(CFG, _frame(), sc, NOISELESS).samples
    noisy = synthesize_frame(CFG, _frame(), sc, NoiseConfig(snr_db=20.0), seed=7).samples
    noise = noisy - clean
    expected = (1.0 / 2.0) ** 2 / 10.0 ** 2
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(expected, rel=0.05)


def test_synthesis_preconditions():
    with pytest.raises(ValueError):
        synthesize_frame(CFG, _frame(), [Scatterer(ATTRS.max_range_m + 0.5, 0.0)], NOISELESS)
    # distances print with three significant digits, however large
    with pytest.raises(ValueError, match=r"^scatterer at 1e\+300 m beyond unambiguous range 6 m$"):
        synthesize_frame(CFG, _frame(), [Scatterer(1e300, 0.0)], NOISELESS)
    with pytest.raises(ValueError):
        synthesize_frame(CFG, _frame(), [Scatterer(0.0, 0.0)], NOISELESS)
    with pytest.raises(ValueError):
        fast = _frame(v=ATTRS.velocity_resolution_mps)
        synthesize_frame(CFG, fast, [Scatterer(2.0, 0.0)], NOISELESS)


@pytest.mark.parametrize("reflectivity", [1e155, 1e300])
def test_noise_level_beyond_the_float_range_is_a_value_error(recwarn, reflectivity):
    # snr_db fixes the noise variance from the nearest return's squared
    # amplitude, which leaves the float range past about 1e154
    with pytest.raises(ValueError, match="noise level of snr_db 20 .* leaves the float range"):
        synthesize_frame(CFG, _frame(), [Scatterer(2.0, 0.0, reflectivity)], NoiseConfig(snr_db=20.0))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    # a return whose squared amplitude stays in range still synthesizes
    cube = synthesize_frame(CFG, _frame(), [Scatterer(2.0, 0.0, 1e150)], NoiseConfig(snr_db=20.0))
    assert np.isfinite(cube.samples).all()


@pytest.mark.parametrize("reflectivity", [math.inf, math.nan, -math.inf, -1.0, -5e-324])
def test_scatterer_reflectivity_must_be_finite_and_non_negative(recwarn, reflectivity):
    # rejected where the scatterer is built, before synthesis can warn
    with pytest.raises(ValueError, match=r"scatterer at \(2\.0, -0\.5\) m: reflectivity must be finite and >= 0"):
        synthesize_frame(CFG, _frame(), [Scatterer(2.0, -0.5, reflectivity)], NoiseConfig(snr_db=20.0))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert Scatterer(2.0, -0.5, 0.0).reflectivity == 0.0
    assert Scatterer(2.0, -0.5, -0.0).reflectivity == 0.0


def test_noise_config_validation():
    NoiseConfig(snr_db=-300.0)
    NoiseConfig(snr_db=300.0, power=1e-300)
    for bad, message in (
        (dict(snr_db=300.5), r"snr_db must be in \[-300, 300\], got 300.5"),
        (dict(snr_db=-math.inf), "snr_db must be finite, got -inf"),
        (dict(snr_db=math.nan), "snr_db must be finite, got nan"),
        (dict(power=0.0), "power must be > 0, got 0.0"),
        (dict(power=-1.0), "power must be > 0, got -1.0"),
        (dict(power=math.inf), "power must be finite, got inf"),
        (dict(power=math.nan), "power must be finite, got nan"),
    ):
        with pytest.raises(ValueError, match=message):
            NoiseConfig(**bad)


def test_cube_shape_validation():
    with pytest.raises(ValueError):
        ChirpCube(np.zeros((144, 8, 4), dtype=complex), CFG, FrameMeta(0.0, 0.0, 0.0))
    bad = np.zeros((144, 8, 8), dtype=complex)
    bad[0, 0, 0] = math.nan
    with pytest.raises(ValueError):
        ChirpCube(bad, CFG, FrameMeta(0.0, 0.0, 0.0))


def test_wire_round_trip_is_bit_exact(tmp_path):
    frame = _frame(x=-2.0, y=0.45, tilt=math.radians(-20.0), v=0.7, t=1.3)
    cube = synthesize_frame(CFG, frame, [Scatterer(1.0, -0.3)], NoiseConfig(snr_db=15.0), seed=5)
    path = tmp_path / "frame.bin"
    save_cube(cube, path)
    back = load_cube(path, CFG)
    assert np.array_equal(back.samples, quantize_to_wire(cube).samples)
    assert back.meta == cube.meta
    # header sanity
    raw = path.read_bytes()
    assert raw[:8] == CUBE_MAGIC
    assert len(raw) == 64 + 8 * 144 * 8 * 8


def test_quantize_is_idempotent():
    cube = synthesize_frame(CFG, _frame(), [Scatterer(2.0, 0.1)], NoiseConfig(snr_db=20.0), seed=2)
    once = quantize_to_wire(cube)
    twice = quantize_to_wire(once)
    assert np.array_equal(once.samples, twice.samples)


def test_load_cube_validation(tmp_path):
    frame_path = tmp_path / "frame.bin"
    cube = synthesize_frame(CFG, _frame(), [Scatterer(2.0, 0.0)], NOISELESS)
    save_cube(cube, frame_path)
    raw = bytearray(frame_path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTACUBE" + bytes(raw[8:]))
    with pytest.raises(ValueError):
        load_cube(bad_magic, CFG)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(bytes(raw[:100]))
    with pytest.raises(ValueError):
        load_cube(truncated, CFG)

    with pytest.raises(ValueError):
        load_cube(frame_path, RadarConfig(samples_per_chirp=128))

    not_finite = tmp_path / "nan.bin"
    part = 64 + 8 * 1000 + 4  # the imaginary part of one sample
    not_finite.write_bytes(bytes(raw[:part]) + np.float32(math.nan).tobytes() + bytes(raw[part + 4 :]))
    with pytest.raises(ValueError, match="nan.bin: cube contains non-finite samples"):
        load_cube(not_finite, CFG)


def test_wire_cubes_are_tested_finite_once_in_their_complex64_form(tmp_path, monkeypatch):
    cube = synthesize_frame(CFG, _frame(), [Scatterer(2.0, 0.1)], NoiseConfig(snr_db=20.0), seed=2)
    path = tmp_path / "frame.bin"
    save_cube(cube, path)
    tested = []
    finite = chirp_sim._finite
    monkeypatch.setattr(chirp_sim, "_finite", lambda a: tested.append(a.dtype) or finite(a))
    for make in (lambda: quantize_to_wire(cube), lambda: load_cube(path, CFG)):
        tested.clear()
        wired = make()
        assert tested == [np.dtype(np.complex64)]
        assert wired.samples.dtype == np.complex128 and wired.samples.flags.c_contiguous
    # a cube built directly is still tested
    tested.clear()
    ChirpCube(cube.samples, CFG, cube.meta)
    assert tested == [np.dtype(np.complex128)]


def test_synthesis_returns_c_ordered_samples():
    scene = [Scatterer(2.0, 0.3), Scatterer(3.1, -0.4, reflectivity=0.7)]
    for noise in (NOISELESS, NoiseConfig(snr_db=20.0)):
        cube = synthesize_frame(CFG, _frame(), scene, noise, seed=3)
        assert cube.samples.flags.c_contiguous
    # a cube built from another layout holds a C-ordered copy of the same values
    fortran = ChirpCube(np.asfortranarray(cube.samples), CFG, cube.meta)
    assert fortran.samples.flags.c_contiguous
    assert np.array_equal(fortran.samples, cube.samples)


def test_sum_over_scatterers_equals_einsum():
    rng = np.random.default_rng(64)
    for k in range(1, 30):
        fast, slow, aper = (
            rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)) for n in (144, 8, 8)
        )
        ref = np.einsum("sk,pk,ak->spa", fast, slow, aper, optimize=True)
        got = _sum_over_scatterers(fast, slow, aper)
        assert got.flags.c_contiguous
        if k == 1:  # einsum multiplies the three factors elementwise in another order
            assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))
        else:
            assert np.array_equal(got, ref), k


def test_noisy_synthesis_peak_memory_stays_under_three_and_a_half_cubes():
    scene = [Scatterer(1.0 + 0.3 * i, 0.1 * i) for i in range(4)]
    noise = NoiseConfig(snr_db=20.0)
    synthesize_frame(CFG, _frame(), scene, noise, seed=1)  # fills per-shape caches
    tracemalloc.start()
    try:
        cube = synthesize_frame(CFG, _frame(), scene, noise, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the returned cube plus one noise draw of the same size, and small arrays
    assert peak < 3.5 * cube.samples.nbytes
