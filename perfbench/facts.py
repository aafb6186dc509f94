"""Machine facts recorded with every result, and the traced run's kernel probe."""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import statistics
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "BANDSHAPE_NO_NUMBA")


def _llc_bytes() -> int | None:
    """Size of the highest-level CPU cache cpu0 reports, in bytes."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


def load_average_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine_facts(link_fft_len: int) -> dict:
    """Everything but the load average, which run.py reads before starting."""
    import numpy
    import scipy
    from bandshape import _kernels

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": _kernels.USING_NUMBA,
        "llc_bytes": _llc_bytes(),
        "link_sweep_fft_len": link_fft_len,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def kernel_probe(fft_len: int, calls: int = 40) -> dict:
    """Kerr kernel and FFT pair timed per call at the link's FFT length.

    Operation counts and bytes are computed from the array size, not
    measured. Bytes are the logical reads and writes of the active Kerr
    path's passes (numpy: six elementwise passes through temporaries, 160
    bytes per sample; numba: one fused read-modify-write, 32) and, for the
    FFT pair, one read and one write of the buffer per transform. Cache
    effects and the transforms' internal passes are ignored.
    """
    import numpy as np
    from scipy.fft import fft, ifft
    from bandshape import _kernels

    rng = np.random.default_rng(0)
    u = (rng.normal(size=fft_len) + 1j * rng.normal(size=fft_len)) * 1e-2
    coeff = 1.3 * 0.25

    def per_call(fn):
        fn()  # warm-up
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e6

    kerr_us = per_call(lambda: _kernels.kerr_phase(u, coeff))
    fft_us = per_call(lambda: ifft(fft(u)))
    kerr_bytes_per_sample = 32 if _kernels.USING_NUMBA else 160
    return {
        "probe.fft_len": fft_len,
        "probe.kerr_us": kerr_us,
        "probe.fft_pair_us": fft_us,
        # |u|^2: 3, phase scale: 1, complex rotate: 6; cos and sin not counted
        "probe.kerr_flop": 10 * fft_len,
        "probe.kerr_bytes_computed": kerr_bytes_per_sample * fft_len,
        # 5 N log2 N per complex transform, two transforms
        "probe.fft_pair_flop": int(2 * 5 * fft_len * math.log2(fft_len)),
        "probe.fft_pair_bytes_computed": 2 * 32 * fft_len,
    }
