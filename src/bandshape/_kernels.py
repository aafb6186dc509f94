"""Hot inner-loop kernels for the split-step propagator.

The Kerr phase rotation runs once per split step over the whole sample
buffer and dominates the non-FFT cost; the numba build fuses the three
elementwise passes numpy needs into one. It is used if and only if numba
imports; otherwise the pure-numpy path runs. benchmarks/bench_kernels.py
times both kernels by calling them directly.
"""

import math

import numpy as np


def kerr_phase_numpy(samples: np.ndarray, coeff: float) -> np.ndarray:
    """In-place samples *= exp(1j * coeff * |samples|^2)."""
    power = samples.real**2 + samples.imag**2
    samples *= np.exp(1j * coeff * power)
    return samples


try:
    from numba import njit
except ImportError:
    kerr_phase = kerr_phase_numpy
    USING_NUMBA = False
else:
    @njit(cache=True)
    def kerr_phase_numba(samples, coeff):
        for i in range(samples.size):
            re = samples[i].real
            im = samples[i].imag
            ph = coeff * (re * re + im * im)
            c = math.cos(ph)
            s = math.sin(ph)
            samples[i] = complex(re * c - im * s, re * s + im * c)
        return samples

    kerr_phase = kerr_phase_numba
    USING_NUMBA = True
