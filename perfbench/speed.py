"""Host-speed sampling, so that timings do not follow the host's speed.

On the 2-vCPU reference box the same code runs up to 1.8x slower for
stretches of seconds to a minute. Other tenants cause this, and it is not
preemption: CPU time grows with wall time. Code that allocates and misses
cache slows more than tight loops. So every PERIOD_S a SIGALRM handler times
two fixed loops: a pure-integer loop, and one that parses text into big ints
in a dict, as a trellis load does. Both run after a short untimed warm-up.
Without the warm-up, the parse loop ran 2x slower right after each FFT, which
would have made FFT-heavy runs look fast. An interval's normalized time is
its wall time, less the handler's time, scaled by the geometric mean over
the two loops of REF_S / (the loop's mean time in the interval). That is
the wall time the interval would have taken with both loops at their
reference times, which are their times in the reference box's fast state.

Quartile spread of repeated units in one process, wall -> normalized (the
same two loops, measured without the warm-up):
- 100 split steps (FFT pair and Kerr): 17% -> 3.8%;
- the band search: 8.6% -> 1.9%;
- a codec_stream pass: 25% -> 10%.

The handler costs about 2% of the run.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.02
_TEXT = [f"{n} {e} {(1 << 140) + 7 * n * e} {(1 << 120) + n}"
         for n in range(10) for e in range(0, 40, 8)]
REF_S = (75e-6, 110e-6)  # (integer loop, parse loop)


def _int_loop(n: int) -> None:
    acc = 0
    for i in range(n):
        acc += i * i % 7


def _parse_loop(lines: list[str]) -> None:
    table = {}
    for line in lines:
        n, e, t, f = (int(x) for x in line.split())
        table[n, e] = t + f


class SpeedSampler:
    """Context manager; while active it records, per sample, its start and
    the (integer loop, parse loop, whole handler) times."""

    def __init__(self):
        self.samples: list[tuple[float, float, float, float]] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _int_loop(100)
        _parse_loop(_TEXT[:5])
        t0 = time.perf_counter()
        _int_loop(1000)
        t1 = time.perf_counter()
        _parse_loop(_TEXT)
        t2 = time.perf_counter()
        self.samples.append((start, t1 - t0, t2 - t1, t2 - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalized(self, start: float, end: float) -> float:
        """Normalized seconds of the perf_counter interval [start, end)."""
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:  # too short to have been sampled
            return end - start
        scale = math.sqrt(REF_S[0] / statistics.fmean(s[1] for s in inside)
                          * REF_S[1] / statistics.fmean(s[2] for s in inside))
        return (end - start - sum(s[3] for s in inside)) * scale
