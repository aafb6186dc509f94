"""Hot inner-loop kernels for the split-step propagator.

The Kerr phase rotation runs once per split step over the whole sample
buffer and dominates the non-FFT cost. The numpy path makes a few
elementwise passes through one real phase buffer and one complex rotation
buffer; the numba build fuses them into a single pass over the samples. It
is used if and only if numba imports; otherwise the pure-numpy path runs.
benchmarks/bench_kernels.py times both kernels by calling them directly.
"""

import math

import numpy as np


def kerr_phase_numpy(samples: np.ndarray, coeff: float) -> np.ndarray:
    """In-place samples *= exp(1j * coeff * |samples|^2).

    The phase coeff * (re*re + im*im) is built in one real buffer, its
    cosine and sine are written straight into the real and imaginary parts
    of one complex buffer, and a single complex multiply applies the
    rotation. The numbers equal those of np.exp(1j * coeff * power) bit
    for bit: numpy computes exp(i*theta) as cos(theta) + i*sin(theta).
    """
    re, im = samples.real, samples.imag
    phase = re * re
    phase += im * im
    phase *= coeff
    rot = np.empty_like(samples)
    np.cos(phase, out=rot.real)
    np.sin(phase, out=rot.imag)
    samples *= rot
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
