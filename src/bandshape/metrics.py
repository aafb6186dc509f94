"""Shaping-ensemble statistics: amplitude distributions, energy moments,
per-sequence energy variability, and dB comparisons between codebooks.

Exact metrics run over all sequences of a trellis with uniform sequence
weighting; the occurrence count of amplitude a feeding position n is
fwd(n, e) * back(n+1, e + a^2) summed over active nodes. Accumulation stays
in integer/rational arithmetic until the final float conversion so that
large-count trellises do not drift.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .codec import encode_index
from .errors import InfeasibleRateError, ParameterError
from .trellis import (
    Alphabet,
    BandParams,
    Trellis,
    TrellisParams,
    _integer,
    build_band_trellis,
    build_full_trellis,
    max_shaping_bits,
    min_emax_for_bits,
)


@dataclass(frozen=True)
class ShapingMetrics:
    """Per-symbol distribution and pooled moments of an ensemble."""

    alphabet: tuple[int, ...]
    p_amp: tuple[float, ...]
    e2: float
    e4: float
    var_e: float
    kurtosis: float


@dataclass(frozen=True)
class SampledMetrics(ShapingMetrics):
    """Statistics of the used 2**k index subset: a sweep of every index
    (exhaustive, exact) or a Monte-Carlo estimate."""

    num_samples: int
    seed: int
    exhaustive: bool
    se_e2: float


def _metrics_from_occurrences(alphabet, occ, total) -> tuple:
    p = [Fraction(occ[a], total) for a in alphabet]
    e2 = sum(pa * a * a for pa, a in zip(p, alphabet))
    e4 = sum(pa * a**4 for pa, a in zip(p, alphabet))
    var_e = e4 - e2 * e2
    kurtosis = e4 / (e2 * e2)
    return (
        tuple(float(x) for x in p),
        float(e2),
        float(e4),
        float(var_e),
        float(kurtosis),
    )


def exact_metrics(trellis: Trellis) -> ShapingMetrics:
    """Exact statistics over every sequence in the trellis."""
    amps = trellis.params.alphabet.amplitudes
    squares = trellis.params.alphabet.squares
    n_len = trellis.params.n_amplitudes
    occ = {a: 0 for a in amps}
    for n in range(n_len):
        for e in trellis.levels(n):
            paths_in = trellis.fwd_count(n, e)
            for a, s in zip(amps, squares):
                paths_out = trellis.back_count(n + 1, e + s)
                if paths_out:
                    occ[a] += paths_in * paths_out
    total = n_len * trellis.num_sequences
    p, e2, e4, var_e, kurtosis = _metrics_from_occurrences(amps, occ, total)
    return ShapingMetrics(amps, p, e2, e4, var_e, kurtosis)


def sampled_metrics(trellis: Trellis, num_samples: int,
                    seed: int) -> SampledMetrics:
    """Statistics of the used subset, the 2**k indices the codec sends
    (k = max_shaping_bits).

    When 2**k <= num_samples, a sweep of every used index: exact, and no
    more encodes than asked for. Otherwise Monte Carlo over num_samples
    indices from a seeded uniform stream.
    """
    if num_samples < 1:
        raise ParameterError("num_samples must be >= 1")
    k = max_shaping_bits(trellis)
    amps = trellis.params.alphabet.amplitudes
    n_len = trellis.params.n_amplitudes
    exhaustive = (1 << k) <= num_samples
    if exhaustive:
        indices = range(1 << k)
    else:
        rng = random.Random(seed)
        indices = (rng.getrandbits(k) for _ in range(num_samples))
    occ = {a: 0 for a in amps}
    count = 0
    sum_e2 = 0.0
    sum_e2_sq = 0.0
    for i in indices:
        values = encode_index(trellis, i)
        for a in amps:
            occ[a] += values.count(a)
        seq_e2 = sum(v * v for v in values) / n_len
        sum_e2 += seq_e2
        sum_e2_sq += seq_e2 * seq_e2
        count += 1
    p, e2, e4, var_e, kurtosis = _metrics_from_occurrences(
        amps, occ, count * n_len
    )
    if count > 1:
        sample_var = max(0.0, (sum_e2_sq - sum_e2**2 / count) / (count - 1))
        se_e2 = math.sqrt(sample_var / count)
    else:
        se_e2 = float("inf")
    return SampledMetrics(amps, p, e2, e4, var_e, kurtosis,
                          num_samples=count, seed=seed, exhaustive=exhaustive,
                          se_e2=se_e2)


def windowed_energy_deviation(seq, window_len: int):
    """Sliding-window (stride 1) energy sums and their population deviation;
    at window_len 1, the squared amplitudes and their standard deviation."""
    values = tuple(_integer(v, "amplitude") for v in seq)
    if not 1 <= window_len <= len(values):
        raise ParameterError(
            f"window_len must be in [1, {len(values)}], got {window_len}"
        )
    sq = [v * v for v in values]
    sums = []
    acc = sum(sq[:window_len])
    sums.append(acc)
    for i in range(window_len, len(sq)):
        acc += sq[i] - sq[i - window_len]
        sums.append(acc)
    mean = sum(sums) / len(sums)
    dev = math.sqrt(sum((s - mean) ** 2 for s in sums) / len(sums))
    return tuple(sums), dev


def compare_db(x, y) -> float:
    """10*log10(x/y); both arguments must be positive."""
    if x <= 0 or y <= 0:
        raise ParameterError(f"dB comparison needs positive values, got {x}, {y}")
    return 10.0 * math.log10(x / y)


def compare_trellises(a: Trellis, b: Trellis) -> dict:
    """Side-by-side exact metrics with dB deltas (b relative to a)."""
    if a.params.n_amplitudes != b.params.n_amplitudes:
        raise ParameterError("trellises differ in sequence length")
    if a.params.alphabet != b.params.alphabet:
        raise ParameterError("trellises differ in alphabet")
    ma, mb = exact_metrics(a), exact_metrics(b)
    same_var = ma.var_e == mb.var_e
    return {
        "n": a.params.n_amplitudes,
        "alphabet": a.params.alphabet.amplitudes,
        "e2_a": ma.e2,
        "e2_b": mb.e2,
        "var_a": ma.var_e,
        "var_b": mb.var_e,
        "kurtosis_a": ma.kurtosis,
        "kurtosis_b": mb.kurtosis,
        "delta_e2_db": compare_db(mb.e2, ma.e2),
        "delta_var_db": 0.0 if same_var else compare_db(mb.var_e, ma.var_e),
        "kurtosis_ratio": mb.kurtosis / ma.kurtosis,
    }


@dataclass(frozen=True)
class BandOperatingPoint:
    """Result of a band-geometry search against trade-off targets."""

    band: BandParams
    e_max: int
    ess_e_max: int
    ess: ShapingMetrics
    banded: ShapingMetrics
    delta_e2_db: float
    delta_var_db: float
    kurtosis_ratio: float
    score: float


# the band search's trade-off targets against the full-sphere codebook and
# the tolerance that scales each axis of the score, all in dB
TARGET_E2_DB, TARGET_VAR_DB = 0.44, -0.67
TOL_E2_DB, TOL_VAR_DB = 0.15, 0.20
# the band geometries the search tries; each width walks its heights downward
SEARCH_HEIGHTS, SEARCH_WIDTHS = range(2, 17), range(0, 3)


def find_band_operating_point(n_amplitudes: int, alphabet: Alphabet,
                              k: int) -> BandOperatingPoint:
    """Search the grid's band geometries holding 2**k sequences for the one
    whose energy/variance trade-off against the full-sphere codebook lands
    closest to the dB targets above, each axis scaled by its tolerance.
    Candidates with kurtosis at or above the full-sphere value are rejected
    outright; a tie goes to the lower band, then the narrower.

    At a fixed e_max and width, a band of height h admits a subset of the
    sequences of height h+1: only the window floor depends on the height,
    and it falls as the height grows. So no grid e_max below the answer for
    h+1 gives h 2**k sequences, and if h+1 never does, neither does h.
    Each width therefore walks the heights downward: a search starts at the
    previous height's e_max, and the walk stops at the first infeasible
    height instead of scanning the whole grid for it and every lower one.
    """
    ess_e_max = min_emax_for_bits(n_amplitudes, alphabet, k)
    ess = exact_metrics(
        build_full_trellis(TrellisParams(n_amplitudes, alphabet, ess_e_max))
    )
    candidates = []
    for w in SEARCH_WIDTHS:
        e_max = ess_e_max
        for h in reversed(SEARCH_HEIGHTS):
            band = BandParams(h, w)
            try:
                e_max = min_emax_for_bits(
                    n_amplitudes, alphabet, k, band=band, scan_from=e_max
                )
            except InfeasibleRateError:
                break
            banded = exact_metrics(
                build_band_trellis(TrellisParams(n_amplitudes, alphabet, e_max), band)
            )
            if banded.kurtosis >= ess.kurtosis or banded.var_e == 0.0:
                continue
            delta_e2 = compare_db(banded.e2, ess.e2)
            delta_var = compare_db(banded.var_e, ess.var_e)
            score = math.hypot((delta_e2 - TARGET_E2_DB) / TOL_E2_DB,
                               (delta_var - TARGET_VAR_DB) / TOL_VAR_DB)
            candidates.append(BandOperatingPoint(
                band, e_max, ess_e_max, ess, banded,
                delta_e2, delta_var, banded.kurtosis / ess.kurtosis, score,
            ))
    if not candidates:
        raise InfeasibleRateError(
            f"no band in the search grid reaches k={k} with reduced kurtosis"
        )
    return min(candidates, key=lambda op: (op.score, op.band.height, op.band.width))
