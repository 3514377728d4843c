"""Frequency extraction for Ramsey experiments (Sec 7.4).

The measured ``P(|1>)`` oscillates as ``0.5 (1 + cos(2 pi f t + phi))``;
the effective ZZ strength is the difference between the frequencies fitted
with the control qubit in ``|0>`` versus ``|1>``.  Fitting is a two-stage
process: an FFT peak seeds a nonlinear least-squares cosine fit.
"""

from __future__ import annotations

import numpy as np


def _fft_frequency_guess(times: np.ndarray, values: np.ndarray) -> float:
    """Dominant nonzero frequency of a uniformly sampled signal."""
    dt = times[1] - times[0]
    centered = values - np.mean(values)
    spectrum = np.abs(np.fft.rfft(centered))
    freqs = np.fft.rfftfreq(len(values), dt)
    if len(spectrum) < 2:
        return 0.0
    peak = 1 + int(np.argmax(spectrum[1:]))
    if 0 < peak < len(freqs) - 1:
        # Quadratic interpolation around the peak bin.
        alpha, beta, gamma = spectrum[peak - 1 : peak + 2]
        denom = alpha - 2.0 * beta + gamma
        if abs(denom) > 1e-30:
            shift = 0.5 * (alpha - gamma) / denom
            return float(freqs[peak] + shift * (freqs[1] - freqs[0]))
    return float(freqs[peak])


def _cosine(t: np.ndarray, freq: float, phase: float, amp: float, offset: float):
    return offset + amp * np.cos(2.0 * np.pi * freq * t + phase)


def fit_oscillation_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Oscillation frequency (cycles per time unit) of a Ramsey fringe."""
    from scipy.optimize import curve_fit

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 8:
        raise ValueError("need at least 8 samples to fit a frequency")
    guess = _fft_frequency_guess(times, values)
    p0 = [max(guess, 1.0 / (times[-1] - times[0])), 0.0, 0.5, 0.5]
    try:
        popt, _ = curve_fit(_cosine, times, values, p0=p0, maxfev=20000)
        freq = abs(float(popt[0]))
    except RuntimeError:
        freq = abs(guess)
    return freq


def effective_zz_khz(
    times_ns: np.ndarray,
    population_ctrl0: np.ndarray,
    population_ctrl1: np.ndarray,
) -> float:
    """Effective ZZ strength in kHz from the two Ramsey fringes."""
    f0 = fit_oscillation_frequency(times_ns, population_ctrl0)
    f1 = fit_oscillation_frequency(times_ns, population_ctrl1)
    return abs(f1 - f0) * 1e6  # cycles/ns -> kHz
