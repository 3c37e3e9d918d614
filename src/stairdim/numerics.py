"""Shared numeric kernels: FFTs with explicit-length padding, windows, RNG.

Every spectral stage in the toolkit goes through :func:`fft` so the length
policy lives in one place: the transform runs at the native axis length by
default, and a caller that wants zero-padding states the padded length
explicitly. The range axis therefore keeps its native bin scale (one range
resolution per bin) while the angle stage pads its 8 channel samples onto a
finer grid.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "fft",
    "ifft",
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
        Complex spectrum, unnormalized (inverse applies the 1/n factor).
    """
    x = np.asarray(x)
    m = x.shape[axis]
    if n is None:
        n = m
    elif n < m:
        raise ValueError(f"transform length {n} shorter than input ({m})")
    return np.fft.fft(x, n=n, axis=axis)


def ifft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse DFT along ``axis``, normalized by 1/len."""
    return np.fft.ifft(np.asarray(x), axis=axis)


@functools.lru_cache(maxsize=16)
def window(kind: str, n: int) -> np.ndarray:
    """Analysis window of length n, built once and read-only. kind: 'hann' or 'rect'.

    Hann is the periodic (DFT-even) variant, the usual choice ahead of an FFT.
    """
    if n < 1:
        raise ValueError(f"window length must be positive, got {n}")
    if kind not in ("hann", "rect"):
        raise ValueError(f"unknown window kind {kind!r}")
    w = np.ones(n)
    if kind == "hann" and n > 1:
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
