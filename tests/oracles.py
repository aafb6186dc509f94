"""Brute-force reference implementations used as test oracles.

Everything here enumerates sequences directly over the alphabet product and
applies membership rules position by position, and none of it touches the
dynamic-programming code under test, with two exceptions: `min_emax_scan`
counts each grid point with `trellis._count_only`, so it checks only the
band search's scan around those counts, `forward_columns` and
`exact_metrics_reference` take a trellis's node set as given and count the
paths into it and the amplitudes along them, and `node_lines` writes that
node set out as the node lines of file formats v1 and v2. The
e_max search is checked against enumeration by
`TestMinEmax.test_matches_bruteforce_scan`. The
bit packers move one bit at a time, independently of the codec's
binary-string slicing. The split-step and link-stage references keep the
plain numpy expressions and the out-of-place transforms that the in-place
stages must reproduce bit for bit; `rk4ip_span` integrates the same
equation by another method, so it agrees with the split-step span only to
within their truncation errors.
"""

import itertools
import math
from collections import defaultdict

import numpy as np
from scipy.fft import fft, fftfreq, ifft, next_fast_len

from bandshape.errors import InfeasibleRateError
from bandshape.metrics import ShapingMetrics, _metrics_from_occurrences
from bandshape.trellis import TrellisParams, _count_only


def band_bounds(col, n_total, e_max, height, width, a_max):
    """Active energy window [lo, hi] at a column of a band-restricted trellis.

    Re-derives the documented two-boundary ramp rule: the upper boundary
    follows the full-trellis top over the last `width` transitions and a
    straight ramp of slope e_max/n_total elsewhere, snapped down onto the
    mod-8 energy grid; the lower boundary sits 8*(height-1) below it, floored
    at the all-ones energy.
    """
    if col == 0:
        return 0, 0
    if col >= n_total - width:
        hi = min(col * a_max * a_max, e_max - (n_total - col))
    else:
        cap = max(col, (col * e_max) // n_total)
        hi = cap - ((cap - col) % 8)
    lo = max(col, hi - 8 * (height - 1))
    return lo, hi


def in_band(seq, e_max, height, width, alphabet):
    """Check every prefix of seq against the band window."""
    n_total = len(seq)
    a_max = max(alphabet)
    e = 0
    for col, a in enumerate(seq, start=1):
        e += a * a
        lo, hi = band_bounds(col, n_total, e_max, height, width, a_max)
        if not lo <= e <= hi:
            return False
    return True


def enumerate_sequences(n, alphabet, e_max, band=None):
    """All admissible sequences in lexicographic order (ascending alphabet).

    band, when given, is a (height, width) pair applying the ramp rule to
    every prefix.
    """
    out = []
    for seq in itertools.product(sorted(alphabet), repeat=n):
        if sum(a * a for a in seq) > e_max:
            continue
        if band is not None and not in_band(seq, e_max, band[0], band[1], alphabet):
            continue
        out.append(seq)
    return out


def count_sequences(n, alphabet, e_max, band=None):
    return len(enumerate_sequences(n, alphabet, e_max, band))


def min_emax_scan(n, alphabet, k, band, scan_from=None):
    """First grid e_max holding 2**k band sequences, counting every point.

    The grid starts at the all-a_min energy, or at scan_from rounded up onto
    the grid (e_max - n divisible by 8), and ends at the all-a_max energy;
    InfeasibleRateError when no point reaches 2**k.
    """
    squares = alphabet.squares
    lo, hi = n * squares[0], n * squares[-1]
    if len(alphabet) ** n < 1 << k:
        raise InfeasibleRateError(f"k={k} exceeds the cube")
    if scan_from is not None:
        lo = max(lo, scan_from + (n - scan_from) % 8)
    for e in range(lo, hi + 1, 8):
        if _count_only(TrellisParams(n, alphabet, e), band) >= 1 << k:
            return e
    raise InfeasibleRateError(f"band {band} never reaches k={k}")


def amplitude_occurrences(sequences, alphabet):
    """Total occurrence count of each amplitude across all sequences/positions."""
    occ = {a: 0 for a in alphabet}
    for seq in sequences:
        for a in seq:
            occ[a] += 1
    return occ


def exact_moments(sequences, alphabet):
    """(p_amp, e2, e4) over all sequences with uniform sequence weighting."""
    occ = amplitude_occurrences(sequences, alphabet)
    total = sum(occ.values())
    p = {a: occ[a] / total for a in alphabet}
    e2 = sum(p[a] * a * a for a in alphabet)
    e4 = sum(p[a] * a ** 4 for a in alphabet)
    return p, e2, e4


def node_table(n, alphabet, e_max, band=None):
    """Per column, (energy, backward count, forward count) of every node that
    an admissible sequence passes through, in ascending energy.

    The forward count is the number of distinct admissible prefixes of that
    length and energy; the backward count is the number of admissible
    sequences through the node divided by it.
    """
    sequences = enumerate_sequences(n, alphabet, e_max, band)
    table = []
    for col in range(n + 1):
        prefixes = defaultdict(set)
        through = defaultdict(int)
        for seq in sequences:
            e = sum(a * a for a in seq[:col])
            prefixes[e].add(seq[:col])
            through[e] += 1
        column = []
        for e in sorted(through):
            back, rest = divmod(through[e], len(prefixes[e]))
            assert rest == 0, "every prefix of a node shares its completions"
            column.append((e, back, len(prefixes[e])))
        table.append(column)
    return table


def forward_columns(trellis):
    """Per column, {energy: paths from the origin} over the nodes of
    back_columns, each node's count summed from its parents in the column
    before (a parent the origin reaches is a node)."""
    squares = trellis.params.alphabet.squares
    columns = [{0: 1}]
    for back in trellis.back_columns[1:]:
        prev = columns[-1]
        columns.append({e: sum(prev.get(e - s, 0) for s in squares) for e in back})
    return columns


def exact_metrics_reference(trellis):
    """`metrics.exact_metrics` without the used-subset boundary walk: the
    forward counts summed column by column over the edges between nodes,
    each amplitude credited fwd * back for every edge it labels."""
    amps = trellis.params.alphabet.amplitudes
    steps = tuple(zip(amps, trellis.params.alphabet.squares))
    occ = {a: 0 for a in amps}
    fwd = {0: 1}
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
        fwd = nxt
    total = trellis.params.n_amplitudes * trellis.num_sequences
    return ShapingMetrics(amps, *_metrics_from_occurrences(amps, occ, total))


def node_lines(trellis):
    """The `n e T` lines that trellis formats v1 and v2 held between the
    parameter line and END: one per node, ascending n then e, where T is the
    node's backward count (v1 appended its forward count)."""
    return [f"{n} {e} {count}" for n, column in enumerate(trellis.back_columns)
            for e, count in column.items()]


# Sparse alphabets leave gaps between the nodes of a column, where the
# codec's column lookups find no entry: (n, alphabet, e_max, band).
GAPPED = (
    (7, (1, 7), 151, None),
    (6, (1, 3, 9), 86, None),
    (7, (1, 7), 199, (13, 1)),
    (6, (1, 3, 9), 86, (8, 1)),
)


def bytes_to_bits(data):
    """MSB-first bit list of a byte string, one bit at a time."""
    return [(byte >> shift) & 1 for byte in data for shift in range(7, -1, -1)]


def bits_to_bytes(bits):
    """Pack bits MSB-first, one at a time; the final byte is zero-padded."""
    out = bytearray()
    acc = fill = 0
    for b in bits:
        acc = (acc << 1) | b
        fill += 1
        if fill == 8:
            out.append(acc)
            acc = fill = 0
    if fill:
        out.append(acc << (8 - fill))
    return bytes(out)


def bits_to_index(bits):
    """MSB-first bit block to integer."""
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def index_to_bits(index, k):
    """Integer to MSB-first bit block of width k."""
    assert 0 <= index < 1 << k
    return [(index >> (k - 1 - i)) & 1 for i in range(k)]


def population_var(values):
    m = sum(values) / len(values)
    return sum((v - m) ** 2 for v in values) / len(values)


def db(x, y):
    return 10.0 * math.log10(x / y)


def kerr_phase_reference(samples, coeff):
    """In-place samples *= exp(1j * coeff * |samples|^2), as one expression."""
    power = samples.real**2 + samples.imag**2
    samples *= np.exp(1j * coeff * power)
    return samples


def span_steps(length_km, step_km):
    """The span's fixed steps, the last one shortened to end at length_km."""
    n_steps = max(1, math.ceil(length_km / step_km - 1e-12))
    steps = [step_km] * (n_steps - 1)
    steps.append(length_km - step_km * (n_steps - 1))
    return steps


def linear_operator(n, sample_rate_hz, fiber):
    """dz -> exp((0.5j beta2 w^2 - 0.5 alpha) dz): dispersion and loss over
    dz km on the FFT grid of n samples, as one expression."""
    omega = 2 * np.pi * fftfreq(n, 1 / sample_rate_hz)
    beta2_km = fiber.beta2_s2_per_m * 1e3
    alpha_km = fiber.alpha_db_per_km * math.log(10) / 10

    def linear(dz_km):
        return np.exp((0.5j * beta2_km * omega**2 - 0.5 * alpha_km) * dz_km)

    return linear


def ssfm_reference(samples, sample_rate_hz, fiber, step_km):
    """Symmetric split-step span with a fresh array from every transform.

    The same step list, fused half-step filters and Kerr phase as the
    propagator under test, without its checks or its buffer reuse.
    """
    u = np.array(samples, dtype=complex)
    steps = span_steps(fiber.length_km, step_km)
    linear = linear_operator(u.size, sample_rate_hz, fiber)
    spectrum = fft(u)
    spectrum *= linear(steps[0] / 2)
    u = ifft(spectrum)
    for m, dz in enumerate(steps):
        kerr_phase_reference(u, fiber.gamma_per_w_km * dz)
        tail = steps[m + 1] if m + 1 < len(steps) else None
        spectrum = fft(u)
        spectrum *= linear(dz / 2 if tail is None else (dz + tail) / 2)
        u = ifft(spectrum)
    return u


def rk4ip_span(samples, sample_rate_hz, fiber, step_km):
    """The span by fourth-order Runge-Kutta in the interaction picture
    (Hult, JLT 25(12), 2007): the split-step span's steps and linear
    operator, but the Kerr term N(A) = j gamma |A|^2 A integrated by RK4
    between half-step linear propagations rather than as a phase rotation.
    """
    u = np.array(samples, dtype=complex)
    linear = linear_operator(u.size, sample_rate_hz, fiber)
    gamma = fiber.gamma_per_w_km
    halves = {}

    def half_step(x, h):
        if h not in halves:
            halves[h] = linear(h / 2)
        return ifft(fft(x) * halves[h])

    def kerr(x, h):
        return 1j * gamma * h * np.abs(x) ** 2 * x

    for h in span_steps(fiber.length_km, step_km):
        u_i = half_step(u, h)
        k1 = half_step(kerr(u, h), h)
        k2 = kerr(u_i + k1 / 2, h)
        k3 = kerr(u_i + k2 / 2, h)
        k4 = kerr(half_step(u_i + k3, h), h)
        u = half_step(u_i + k1 / 6 + k2 / 3 + k3 / 3, h) + k4 / 6
    return u


def edfa_reference(samples, gain_db, noise_var, seed):
    """Gain and ASE noise as one out-of-place expression: every real draw,
    then every imaginary one."""
    out = np.asarray(samples, dtype=complex) * math.sqrt(10 ** (gain_db / 10))
    rng = np.random.default_rng(seed)
    scale = math.sqrt(noise_var / 2)
    return out + scale * (rng.normal(size=out.size) + 1j * rng.normal(size=out.size))


def cd_compensate_reference(samples, sample_rate_hz, fiber):
    """The span's inverse dispersion filter as one expression, applied
    between out-of-place transforms."""
    omega = 2 * np.pi * fftfreq(len(samples), 1 / sample_rate_hz)
    phase = 0.5 * fiber.beta2_s2_per_m * omega**2 * fiber.length_km * 1e3
    return ifft(fft(samples) * np.exp(-1j * phase))


def demodulate_reference(samples, taps, sps):
    """Matched filter as one zero-padded FFT product with fresh arrays, the
    taps' spectrum mirrored from its r2c half; skips the filter delay and
    downsamples."""
    size = samples.size + taps.size - 1
    n = next_fast_len(size)
    half = np.fft.rfft(taps, n)
    taps_spectrum = np.concatenate([half, half[n - half.size:0:-1].conj()])
    full = np.fft.ifft(np.fft.fft(samples, n) * taps_spectrum)
    return full[taps.size - 1:size:sps]
