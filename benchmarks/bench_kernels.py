#!/usr/bin/env python3
"""Compare the numba and numpy Kerr-kernel paths, and time one span.

Run:  python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from bandshape import _kernels
from bandshape.fibersim import FiberParams, ssfm_span


def bench(fn, u, coeff, reps):
    fn(u.copy(), coeff)  # warm up / compile
    buf = u.copy()
    t0 = time.perf_counter()
    for _ in range(reps):
        fn(buf, coeff)
    return (time.perf_counter() - t0) / reps * 1e3


def main():
    sizes = (2**15, 2**17, 2**18)
    reps = 200
    coeff = 3.25e-4
    rng = np.random.default_rng(0)
    print(f"numba active in package: {_kernels.USING_NUMBA}")
    print(f"{'samples':>9} {'numpy ms':>10} {'numba ms':>10} {'speedup':>8}")
    have_numba = hasattr(_kernels, "kerr_phase_numba")
    for n in sizes:
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        t_np = bench(_kernels.kerr_phase_numpy, u, coeff, reps)
        if have_numba:
            t_nb = bench(_kernels.kerr_phase_numba, u, coeff, reps)
            print(f"{n:>9} {t_np:>10.3f} {t_nb:>10.3f} {t_np / t_nb:>7.1f}x")
        else:
            print(f"{n:>9} {t_np:>10.3f} {'n/a':>10} {'n/a':>8}")

    if have_numba:
        a = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        diff = np.max(np.abs(
            _kernels.kerr_phase_numpy(a.copy(), coeff)
            - _kernels.kerr_phase_numba(a.copy(), coeff)
        ))
        print(f"max |numpy - numba| on 4096 samples: {diff:.3e}")

    fiber = FiberParams(0.2, 17.0, 1.3, 205.0)
    u = rng.normal(size=2**17) + 1j * rng.normal(size=2**17)
    u *= np.sqrt(2e-3 / np.mean(np.abs(u) ** 2))
    ssfm_span(u, 400e9, fiber, step_km=5.0)  # warm up
    t0 = time.perf_counter()
    ssfm_span(u, 400e9, fiber, step_km=0.25)
    dt = time.perf_counter() - t0
    print(f"ssfm_span 205 km @ 0.25 km, 2^17 samples "
          f"(active path: {'numba' if _kernels.USING_NUMBA else 'numpy'}): {dt:.2f} s")


if __name__ == "__main__":
    main()
