"""Brute-force reference implementations used as test oracles.

Everything here enumerates sequences directly over the alphabet product and
applies membership rules position by position. None of it touches the
dynamic-programming code under test. The bit packers move one bit at a
time, independently of the codec's binary-string slicing. The split-step
references keep the plain numpy expressions and the out-of-place transforms
that the in-place propagator must reproduce bit for bit.
"""

import itertools
import math
from collections import defaultdict

import numpy as np
from scipy.fft import fft, fftfreq, ifft


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


def floor_log2(x):
    assert x >= 1
    return x.bit_length() - 1


def sequences_through_node(sequences, col, energy):
    """How many enumerated sequences pass through trellis node (col, energy)."""
    hits = 0
    for seq in sequences:
        e = sum(a * a for a in seq[:col])
        if e == energy:
            hits += 1
    return hits


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


def ssfm_reference(samples, sample_rate_hz, fiber, step_km):
    """Symmetric split-step span with a fresh array from every transform.

    The same step list, fused half-step filters and Kerr phase as the
    propagator under test, without its checks or its buffer reuse.
    """
    u = np.array(samples, dtype=complex)
    length = fiber.length_km
    n_steps = max(1, math.ceil(length / step_km - 1e-12))
    steps = [step_km] * (n_steps - 1)
    steps.append(length - step_km * (n_steps - 1))
    omega = 2 * np.pi * fftfreq(u.size, 1 / sample_rate_hz)
    beta2_km = fiber.beta2_s2_per_m * 1e3
    alpha_km = fiber.alpha_db_per_km * math.log(10) / 10

    def linear(dz_km):
        return np.exp((0.5j * beta2_km * omega**2 - 0.5 * alpha_km) * dz_km)

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
