"""Shared numeric kernels: FFTs with explicit-length padding, the Hann window, RNG.

Every spectral stage in the toolkit goes through :func:`fft` so the length
policy lives in one place: the transform runs at the native axis length by
default, and a caller that wants zero-padding states the padded length
explicitly. The range axis therefore keeps its native bin scale (one range
resolution per bin) while the angle stage pads its 8 channel samples onto a
finer grid. The only analysis window is the periodic Hann of the range axis;
the Doppler and angle axes are not weighted.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "fft",
    "window",
    "rng_for",
]


def fft(x: np.ndarray, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Unnormalized forward DFT along ``axis``.

    Args:
        x: input array, real or complex.
        n: transform length; must be >= the axis length and the input is
            zero-padded to it. Defaults to the axis length (no padding).
        axis: axis to transform.

    Returns:
        Complex spectrum, unnormalized.
    """
    x = np.asarray(x)
    m = x.shape[axis]
    if n is None:
        n = m
    elif n < m:
        raise ValueError(f"transform length {n} shorter than input ({m})")
    return np.fft.fft(x, n=n, axis=axis)


@functools.lru_cache(maxsize=16)
def window(n: int) -> np.ndarray:
    """Hann window of length n, built once and read-only.

    The periodic (DFT-even) variant, the usual choice ahead of an FFT.
    """
    if n < 1:
        raise ValueError(f"window length must be positive, got {n}")
    w = np.ones(n)
    if n > 1:
        # the arithmetic of scipy.signal.windows.hann(n, sym=False), so values
        # match it bit for bit; importing scipy.signal would cost ~75 MB of RSS
        w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1))[:-1]
    w.flags.writeable = False
    return w


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for (seed, stream...) without order coupling.

    Different stream tuples under the same seed give statistically independent
    generators, so callers can derive per-frame or per-purpose RNGs that do
    not depend on the order in which other streams were consumed. Entropy
    words are masked to 64 bits, so any Python int is accepted.
    """
    mask = (1 << 64) - 1
    words = [int(seed) & mask, *(int(s) & mask for s in stream)]
    return np.random.default_rng(np.random.SeedSequence(words))
