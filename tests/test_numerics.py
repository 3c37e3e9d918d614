import numpy as np
import pytest

from oracles import hann_periodic, naive_dft
from stairdim import numerics


def test_fft_matches_naive_dft():
    # 144 is the fast-time length, 8 the chirp/channel counts, 64 the AoA grid
    rng = np.random.default_rng(11)
    for n in (8, 64, 144):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = numerics.fft(x)
        ref = naive_dft(x)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-9


def test_fft_zero_padding_matches_naive_dft():
    # the AoA case: 8 channel samples padded onto a 64-bin grid
    rng = np.random.default_rng(12)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    got = numerics.fft(x, n=64)
    ref = naive_dft(x, n=64)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-9


def test_fft_impulse_and_tone():
    # impulse -> flat spectrum; integer tone -> single bin
    n = 32
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    assert np.allclose(numerics.fft(impulse), np.ones(n), atol=1e-12)

    k0 = 5
    tone = np.exp(2j * np.pi * k0 * np.arange(n) / n)
    spec = numerics.fft(tone)
    expected = np.zeros(n, dtype=complex)
    expected[k0] = n
    assert np.allclose(spec, expected, atol=1e-9)


def test_fft_linearity_and_parseval():
    rng = np.random.default_rng(13)
    n = 64
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a, b = 2.5 - 1j, -0.75 + 3j
    lhs = numerics.fft(a * x + b * y)
    rhs = a * numerics.fft(x) + b * numerics.fft(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-9

    spec = numerics.fft(x)
    assert np.sum(np.abs(x) ** 2) == pytest.approx(np.sum(np.abs(spec) ** 2) / n, rel=1e-12)


def test_fft_axis_argument():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    got = numerics.fft(x, n=32, axis=0)
    for col in range(x.shape[1]):
        ref = naive_dft(x[:, col], n=32)
        assert np.max(np.abs(got[:, col] - ref)) < 1e-9


def test_fft_rejects_truncation():
    with pytest.raises(ValueError):
        numerics.fft(np.zeros(64), n=32)  # padding only, never truncation


def test_hann_window_formula():
    for n in (8, 144):
        assert np.allclose(numerics.window(n), hann_periodic(n), atol=1e-12)
    # periodic variant: w[0] = 0 but w[n-1] != 0, and sum = n/2 exactly
    w = numerics.window(144)
    assert w[0] == 0.0 and w[-1] > 0.0
    assert np.sum(w) == pytest.approx(72.0, abs=1e-9)
    with pytest.raises(ValueError):
        numerics.window(0)


def test_window_is_built_once_and_read_only():
    w = numerics.window(144)
    assert numerics.window(144) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.5


def test_hann_window_equals_scipy_bit_for_bit():
    # datasets and target lists are compared byte for byte across versions,
    # so the window must give exactly the values of scipy's periodic Hann
    windows = pytest.importorskip("scipy.signal.windows")
    for n in range(1, 513):
        assert np.array_equal(numerics.window(n), windows.hann(n, sym=False)), n


def test_rng_for_streams():
    a1 = numerics.rng_for(7, 0x01).standard_normal(8)
    a2 = numerics.rng_for(7, 0x01).standard_normal(8)
    b = numerics.rng_for(7, 0x02).standard_normal(8)
    c = numerics.rng_for(8, 0x01).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_rng_for_accepts_any_int():
    # negative and oversized seeds must not crash (words are masked to 64 bits)
    numerics.rng_for(-1, 0x05).random()
    numerics.rng_for(2**80 + 3).random()
    assert np.array_equal(
        numerics.rng_for(-1).standard_normal(4),
        numerics.rng_for((1 << 64) - 1).standard_normal(4),
    )
