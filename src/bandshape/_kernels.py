"""Hot inner-loop kernel for the split-step propagator.

The Kerr phase rotation runs once per split step over the whole sample
buffer and dominates the non-FFT cost. It makes a few elementwise numpy
passes through one real phase buffer and one complex rotation buffer.
"""

import numpy as np

# perfbench/facts.py records this flag with every benchmark result.
USING_NUMBA = False


def kerr_phase(samples: np.ndarray, coeff: float) -> np.ndarray:
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
