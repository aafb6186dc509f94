"""Hot inner-loop kernels for the split-step propagator.

The Kerr phase rotation runs once per split step over the whole sample
buffer and dominates the non-FFT cost; the numba build fuses the three
elementwise passes numpy needs into one. The pure-numpy path runs when numba
is unavailable, or when BANDSHAPE_NO_NUMBA=1 is set before import (for
example to run the test suite on it). benchmarks/bench_kernels.py times both
kernels by calling them directly.
"""

import math
import os

import numpy as np


def kerr_phase_numpy(samples: np.ndarray, coeff: float) -> np.ndarray:
    """In-place samples *= exp(1j * coeff * |samples|^2)."""
    power = samples.real**2 + samples.imag**2
    samples *= np.exp(1j * coeff * power)
    return samples


def _numba_disabled() -> bool:
    return os.environ.get("BANDSHAPE_NO_NUMBA", "").strip() not in ("", "0")


if not _numba_disabled():
    try:
        from numba import njit

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
    except ImportError:
        kerr_phase = kerr_phase_numpy
        USING_NUMBA = False
else:
    kerr_phase = kerr_phase_numpy
    USING_NUMBA = False
