"""Shaping-ensemble statistics: amplitude distributions, energy moments,
per-sequence energy variability, and dB comparisons between codebooks.

Exact metrics run over all sequences of a trellis with uniform sequence
weighting, and depend only on each amplitude's occurrence count. A sphere
is closed under permutation, so its counts are n times its first column's.
A band's count of amplitude a feeding position n is
fwd(n, e) * back(n+1, e + a^2) summed over the nodes of column n, where fwd
counts the paths from the origin. The band search builds no trellis: it
scores each geometry from trellis._count_occurrences, a packed count pass
over the geometry's windows. The used subset, the first 2**k
sequences the codec sends, takes the same forward pass with one change:
fwd counts only the prefixes below the boundary path of index 2**k, and a
walk down that path adds each lower branch as a new forward source and the
path's own remaining offset to the amplitude it takes. The final column's
fwd is then the subset's energy histogram. Accumulation stays in
integer/rational arithmetic until the final float conversion so that
large-count trellises do not drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .codec import encode_index
from .errors import InfeasibleRateError, ParameterError
from .trellis import (  # noqa: F401
    Alphabet,
    BandParams,
    Trellis,
    TrellisParams,
    _count_occurrences,
    _integer,
    # no call here builds a trellis any more, but perfbench's tracer wraps
    # metrics.build_full_trellis and metrics.build_band_trellis, so the
    # names stay
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
    """Exact statistics of the used 2**k index subset, from used_metrics'
    forward pass or sampled_metrics' sweep of every index; num_samples is
    2**k."""

    num_samples: int
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


def _occurrences(trellis: Trellis, limit: int) -> tuple[dict, dict]:
    """Amplitude occurrence counts and final-energy histogram ({energy:
    sequences}) over the sequences with index < limit, in one forward pass.

    fwd counts, per energy, the prefixes that lie wholly below the boundary
    path, the path of index `limit`, so every completion of each is
    counted; the column sums run over the edges as for the whole trellis,
    since every parent of a node that the origin reaches is a node too.
    The walk down the boundary adds each lower branch it passes to fwd as
    one more prefix, crediting the branch's amplitude with its whole
    subtree, and credits the amplitude the path takes with the remaining
    offset: the counted sequences that share the path's prefix. At limit =
    num_sequences the walk takes every branch of the first column and the
    boundary ends there.
    """
    steps = tuple(zip(trellis.params.alphabet.amplitudes,
                      trellis.params.alphabet.squares))
    occ = dict.fromkeys(trellis.params.alphabet.amplitudes, 0)
    fwd, bound, offset = {}, 0, limit
    for back in trellis.back_columns[1:]:
        nxt = dict.fromkeys(back, 0)
        for a, s in steps:
            acc = 0
            for e, paths_in in fwd.items():
                child = e + s
                paths_out = back.get(child)
                if paths_out is not None:
                    acc += paths_in * paths_out
                    nxt[child] += paths_in
            occ[a] += acc
        if bound is not None:
            for a, s in steps:
                count = back.get(bound + s)
                if count is None:
                    continue
                if offset < count:
                    occ[a] += offset
                    bound += s
                    break
                occ[a] += count
                nxt[bound + s] += 1
                offset -= count
            else:
                bound = None
        fwd = nxt
    return occ, {e: paths for e, paths in fwd.items() if paths}


def exact_metrics(trellis: Trellis) -> ShapingMetrics:
    """Exact statistics over every sequence in the trellis.

    A sphere, {sum of a**2 <= e_max}, is closed under permutation, so every
    position holds each amplitude as often as the first: occ[a] is n times
    the count of the first-column node a**2, read in O(|alphabet|) steps.
    A band is not, and takes _occurrences' pass over its nodes.
    """
    params = trellis.params
    amps = params.alphabet.amplitudes
    if trellis.band is None:
        first = trellis.back_columns[1]
        occ = {a: params.n_amplitudes * first.get(s, 0)
               for a, s in zip(amps, params.alphabet.squares)}
    else:
        occ, _ = _occurrences(trellis, trellis.num_sequences)
    total = params.n_amplitudes * trellis.num_sequences
    p, e2, e4, var_e, kurtosis = _metrics_from_occurrences(amps, occ, total)
    return ShapingMetrics(amps, p, e2, e4, var_e, kurtosis)


def _codebook_metrics(params: TrellisParams, band: BandParams | None) -> ShapingMetrics:
    """exact_metrics of the trellis that params and band define, from one
    packed count pass (trellis._count_occurrences): nothing is built. The
    band search scores every geometry with it."""
    count, occ = _count_occurrences(params, band)
    amps = params.alphabet.amplitudes
    return ShapingMetrics(amps, *_metrics_from_occurrences(
        amps, occ, params.n_amplitudes * count))


def used_metrics(trellis: Trellis) -> SampledMetrics:
    """Exact statistics of the used subset, the 2**k indices the codec sends
    (k = max_shaping_bits), from one forward pass: no index is encoded.

    se_e2 is the standard error that a sweep of every used index reports,
    from the exact sums of the per-sequence energies and their squares.
    """
    k = max_shaping_bits(trellis)
    count = 1 << k
    amps = trellis.params.alphabet.amplitudes
    n_len = trellis.params.n_amplitudes
    occ, hist = _occurrences(trellis, count)
    p, e2, e4, var_e, kurtosis = _metrics_from_occurrences(
        amps, occ, count * n_len
    )
    if count > 1:
        sum_e = sum(e * paths for e, paths in hist.items())
        sum_e_sq = sum(e * e * paths for e, paths in hist.items())
        sample_var = Fraction(count * sum_e_sq - sum_e * sum_e,
                              count * (count - 1) * n_len * n_len)
        se_e2 = math.sqrt(sample_var / count)
    else:
        se_e2 = float("inf")
    return SampledMetrics(amps, p, e2, e4, var_e, kurtosis,
                          num_samples=count, se_e2=se_e2)


def sampled_metrics(trellis: Trellis) -> SampledMetrics:
    """Statistics of the used subset, the 2**k indices the codec sends
    (k = max_shaping_bits), from a sweep that encodes every one of them:
    the reference that used_metrics is tested against."""
    count = 1 << max_shaping_bits(trellis)
    amps = trellis.params.alphabet.amplitudes
    steps = tuple(zip(amps, trellis.params.alphabet.squares))
    n_len = trellis.params.n_amplitudes
    occ = {a: 0 for a in amps}
    sum_e2 = 0.0
    sum_e2_sq = 0.0
    for i in range(count):
        values = encode_index(trellis, i)
        energy = 0
        for a, s in steps:
            hits = values.count(a)
            occ[a] += hits
            energy += hits * s
        seq_e2 = energy / n_len
        sum_e2 += seq_e2
        sum_e2_sq += seq_e2 * seq_e2
    p, e2, e4, var_e, kurtosis = _metrics_from_occurrences(
        amps, occ, count * n_len
    )
    if count > 1:
        sample_var = max(0.0, (sum_e2_sq - sum_e2**2 / count) / (count - 1))
        se_e2 = math.sqrt(sample_var / count)
    else:
        se_e2 = float("inf")
    return SampledMetrics(amps, p, e2, e4, var_e, kurtosis,
                          num_samples=count, se_e2=se_e2)


def windowed_energy_deviation(seq, window_len: int):
    """Sliding-window (stride 1) energy sums and their population deviation;
    at window_len 1, the squared amplitudes and their standard deviation."""
    values = tuple(_integer(v, "amplitude") for v in seq)
    window_len = _integer(window_len, "window_len")
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


def _trade_off(base: ShapingMetrics, other: ShapingMetrics) -> tuple[float, float, float]:
    """other against base: the energy and energy-variance changes in dB and
    the kurtosis ratio. Equal variances, zero ones included, differ by 0.0;
    a zero variance against a positive one differs by -inf, and the reverse
    by inf."""
    delta_e2 = compare_db(other.e2, base.e2)
    if other.var_e == base.var_e:
        delta_var = 0.0
    elif 0 in (other.var_e, base.var_e):
        delta_var = math.inf if other.var_e else -math.inf
    else:
        delta_var = compare_db(other.var_e, base.var_e)
    return delta_e2, delta_var, other.kurtosis / base.kurtosis


def compare_trellises(a: Trellis, b: Trellis) -> dict:
    """Side-by-side exact metrics with dB deltas (b relative to a)."""
    if a.params.n_amplitudes != b.params.n_amplitudes:
        raise ParameterError("trellises differ in sequence length")
    if a.params.alphabet != b.params.alphabet:
        raise ParameterError("trellises differ in alphabet")
    ma, mb = exact_metrics(a), exact_metrics(b)
    delta_e2, delta_var, kurtosis_ratio = _trade_off(ma, mb)
    return {
        "n": a.params.n_amplitudes,
        "alphabet": a.params.alphabet.amplitudes,
        "e2_a": ma.e2,
        "e2_b": mb.e2,
        "var_a": ma.var_e,
        "var_b": mb.var_e,
        "kurtosis_a": ma.kurtosis,
        "kurtosis_b": mb.kurtosis,
        "delta_e2_db": delta_e2,
        "delta_var_db": delta_var,
        "kurtosis_ratio": kurtosis_ratio,
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
    outright; a tie goes to the lower band, then the narrower. The search
    builds no trellis: _codebook_metrics scores the sphere and every
    candidate from a packed count pass, whose windows the e_max search has
    already counted over.

    At a fixed e_max and width, a band of height h admits a subset of the
    sequences of height h+1: only the window floor depends on the height,
    and it falls as the height grows. So no grid e_max below the answer for
    h+1 gives h 2**k sequences, and if h+1 never does, neither does h.
    Each width therefore walks the heights downward: a search starts at the
    previous height's e_max, and the walk stops at the first infeasible
    height instead of scanning the whole grid for it and every lower one.

    The walk also stops at the first height whose energy floor already
    scores worse than the best candidate so far. Every sequence of band
    (h, w) at e_max ends at energy e_max - 8*(h-1) or above (the final
    column's window floor), and the answer lies at or above the search's
    start, so that floor over n bounds the band's e2 from below, and the
    score is at least its e2 term. A lower height starts no lower and
    drops less, so its floor is higher still. The test is strict, so a
    pruned band cannot tie the best score.
    """
    ess_e_max = min_emax_for_bits(n_amplitudes, alphabet, k)
    ess = _codebook_metrics(TrellisParams(n_amplitudes, alphabet, ess_e_max), None)
    candidates, best = [], math.inf
    for w in SEARCH_WIDTHS:
        e_max = ess_e_max
        for h in reversed(SEARCH_HEIGHTS):
            floor = (e_max - 8 * (h - 1)) / n_amplitudes
            if floor > 0 and (compare_db(floor, ess.e2) - TARGET_E2_DB) / TOL_E2_DB > best:
                break
            band = BandParams(h, w)
            try:
                e_max = min_emax_for_bits(
                    n_amplitudes, alphabet, k, band=band, scan_from=e_max
                )
            except InfeasibleRateError:
                break
            banded = _codebook_metrics(TrellisParams(n_amplitudes, alphabet, e_max), band)
            if banded.kurtosis >= ess.kurtosis or banded.var_e == 0.0:
                continue
            delta_e2, delta_var, kurtosis_ratio = _trade_off(ess, banded)
            score = math.hypot((delta_e2 - TARGET_E2_DB) / TOL_E2_DB,
                               (delta_var - TARGET_VAR_DB) / TOL_VAR_DB)
            candidates.append(BandOperatingPoint(
                band, e_max, ess_e_max, ess, banded,
                delta_e2, delta_var, kurtosis_ratio, score,
            ))
            best = min(best, score)
    if not candidates:
        raise InfeasibleRateError(
            f"no band in the search grid reaches k={k} with reduced kurtosis"
        )
    return min(candidates, key=lambda op: (op.score, op.band.height, op.band.width))
