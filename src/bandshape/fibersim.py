"""Desk-scale single-span, single-channel, scalar-field fiber link.

Transmit chain: RRC pulse shaping, launch-power scaling, symmetric
split-step propagation (dispersion + loss in the frequency domain, Kerr
phase in time), an EDFA that exactly compensates the span loss and adds
single-polarization ASE noise, ideal dispersion compensation, matched
filtering, and an effective-SNR measurement that removes one common
complex scale.

Sign conventions follow the engineering NLSE
    dA/dz = -(alpha/2) A - j (beta2/2) A_tt + j gamma |A|^2 A,
so a linear span multiplies the spectrum by exp(+j (beta2/2) w^2 L) and the
receiver-side compensator applies the conjugate filter.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import random
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from . import _kernels, pasmap
from .codec import encode_index
from .errors import NumericalError, ParameterError
from .trellis import Trellis, _integer, max_shaping_bits

SPEED_OF_LIGHT = 299792458.0  # m/s
PLANCK = 6.62607015e-34  # J*s
MIN_SNR_SYMBOLS = 1000  # the fewest symbols effective_snr takes as a stable estimate


@functools.cache
def _smooth_lengths(bits: int) -> tuple[int, ...]:
    """Every 11-smooth integer up to 2**bits, ascending."""
    limit = 1 << bits
    smooth = [1]
    for p in (2, 3, 5, 7, 11):
        multiples = []
        for x in smooth:
            while x <= limit:
                multiples.append(x)
                x *= p
        smooth = multiples
    return tuple(sorted(smooth))


def next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n (n >= 1), scipy.fft.next_fast_len's
    rule for complex transforms: a length pocketfft factors into radices of
    at most 11, off its slow large-prime path."""
    smooth = _smooth_lengths((n - 1).bit_length())  # 2**bits >= n is smooth
    return smooth[bisect.bisect_left(smooth, n)]


def _require_finite(params) -> None:
    """Reject NaN and +-inf in any float field of a parameter dataclass."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{f.name}={value!r} must be finite")


def _require_linear(name: str, value: float, offset_db: float = 0.0) -> None:
    """Reject a dB setting whose linear value, 10**((value - offset_db)/10)
    as the simulator takes it, is not a finite positive float, so that it
    fails here and not after a span is propagated."""
    try:
        linear = 10 ** ((value - offset_db) / 10)
    except OverflowError:
        linear = math.inf
    if not 0 < linear < math.inf:
        raise ParameterError(
            f"{name}={value!r} has no finite positive linear value ({linear!r})"
        )


@dataclass(frozen=True)
class FiberParams:
    """Span parameters. Zero values are allowed where a test or receiver
    needs a degenerate span (e.g. dispersion-only or zero-length)."""

    alpha_db_per_km: float
    dispersion_ps_nm_km: float
    gamma_per_w_km: float
    length_km: float
    ref_wavelength_nm: float = 1550.0

    def __post_init__(self):
        _require_finite(self)
        if (self.alpha_db_per_km < 0 or self.dispersion_ps_nm_km < 0
                or self.gamma_per_w_km < 0 or self.length_km < 0):
            raise ParameterError("fiber parameters must be nonnegative")
        if self.ref_wavelength_nm <= 0:
            raise ParameterError("reference wavelength must be positive")
        _require_linear("span loss alpha_db_per_km*length_km",
                        self.alpha_db_per_km * self.length_km)

    @property
    def beta2_s2_per_m(self) -> float:
        lam = self.ref_wavelength_nm * 1e-9
        d_si = self.dispersion_ps_nm_km * 1e-6  # s/m^2
        return -d_si * lam * lam / (2 * math.pi * SPEED_OF_LIGHT)


@dataclass(frozen=True)
class LinkParams:
    baud_rate_gbd: float
    rrc_rolloff: float
    edfa_nf_db: float
    launch_power_dbm: float
    sps: int
    step_km: float
    seed: int
    burst_symbols: int
    filter_span_symbols: int
    guard_symbols: int

    def __post_init__(self):
        _require_finite(self)
        for name in ("sps", "seed", "burst_symbols", "filter_span_symbols", "guard_symbols"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.baud_rate_gbd <= 0:
            raise ParameterError("baud rate must be positive")
        if not 0 < self.rrc_rolloff <= 1:
            raise ParameterError("rolloff must be in (0, 1]")
        if self.sps < 4:
            raise ParameterError("sps must be >= 4")
        if self.filter_span_symbols < 8 or self.filter_span_symbols % 2:
            raise ParameterError("filter span must be even and >= 8 symbols")
        if self.step_km <= 0:
            raise ParameterError("step_km must be positive")
        if self.edfa_nf_db < 0:
            raise ParameterError("noise figure must be nonnegative")
        _require_linear("edfa_nf_db", self.edfa_nf_db)
        _require_linear("launch_power_dbm", self.launch_power_dbm, 30)
        if self.guard_symbols < 0:
            raise ParameterError("guard must be nonnegative")
        # checked here, so a short window fails before a span is propagated
        measured = self.burst_symbols - 2 * self.guard_symbols
        if measured < MIN_SNR_SYMBOLS:
            raise ParameterError(
                f"burst {self.burst_symbols} with guard {self.guard_symbols} "
                f"leaves {measured} measured symbols, fewer than {MIN_SNR_SYMBOLS}"
            )

    @property
    def sample_rate_hz(self) -> float:
        return self.baud_rate_gbd * 1e9 * self.sps


def rrc_taps(rolloff: float, span_symbols: int, sps: int) -> np.ndarray:
    """Unit-energy root-raised-cosine taps over span_symbols symbols.

    The removable singularities at t = 0 and |t| = T/(4*rolloff) are filled
    with their analytic limits.
    """
    if not 0 < rolloff <= 1:
        raise ParameterError("rolloff must be in (0, 1]")
    if span_symbols < 8 or span_symbols % 2:
        raise ParameterError("filter span must be even and >= 8 symbols")
    if sps < 1:
        raise ParameterError("sps must be >= 1")
    t = np.arange(span_symbols * sps + 1) / sps - span_symbols / 2
    b = rolloff
    num = np.sin(np.pi * t * (1 - b)) + 4 * b * t * np.cos(np.pi * t * (1 + b))
    den = np.pi * t * (1 - (4 * b * t) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = num / den
    h[t == 0] = 1 - b + 4 * b / np.pi
    singular = np.abs(np.abs(t) - 1 / (4 * b)) < 1e-9
    h[singular] = (b / np.sqrt(2)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * b))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * b))
    )
    return h / np.sqrt(np.sum(h * h))


def modulate(symbols, sps: int, taps: np.ndarray) -> np.ndarray:
    """Upsample by sps and pulse-shape (linear convolution).

    Output phase p (samples p, p + sps, ...) is the symbols filtered by the
    polyphase taps taps[p::sps]. Adding the taps' shifted products in
    descending tap order gives the same bits as scipy.signal.upfirdn.
    """
    x = np.asarray(symbols, dtype=complex)
    if x.size == 0:
        raise ParameterError("no symbols to modulate")
    out = np.zeros((x.size - 1) * sps + taps.size, dtype=complex)
    for p in range(sps):
        phase = out[p::sps]
        for i, tap in reversed(list(enumerate(taps[p::sps]))):
            phase[i:i + x.size] += tap * x
    return out


def demodulate(samples, taps: np.ndarray, sps: int) -> np.ndarray:
    """Matched-filter, skip the filter delay, downsample.

    The delay, taps.size - 1 samples, is that of pulse shaping with taps
    plus this matched filter. Returns every complete symbol from there on;
    callers slice to the count they sent.

    The full linear convolution is one zero-padded FFT product with the
    steps and lengths of scipy.signal.fftconvolve, and the bits are its
    own. That needs the taps' spectrum as scipy transforms a real array,
    an r2c half spectrum plus its conjugate mirror: numpy's c2c of a
    complex copy differs in the last bit. The signal's spectrum is
    multiplied by the half, then the half is conjugated in place and its
    mirrored view multiplies the rest, so the taps' full spectrum is never
    built.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.size == 0:
        raise ParameterError("waveform is empty")
    # np.fft, not this module's fft and ifft: those names are the span's
    # transforms, which a tracer counts and sizes, and this length is not
    # the span's
    size = samples.size + taps.size - 1
    n = next_fast_len(size)
    half = np.fft.rfft(taps, n)
    spectrum = np.fft.fft(samples, n)
    spectrum[:half.size] *= half
    spectrum[half.size:] *= np.conjugate(half, out=half)[n - half.size:0:-1]
    full = np.fft.ifft(spectrum, out=spectrum)
    return full[taps.size - 1:size:sps]


def _scale_to_power(samples: np.ndarray, power_dbm: float) -> np.ndarray:
    """Scale samples in place to a mean power of power_dbm; returns them."""
    target_w = 10 ** ((power_dbm - 30) / 10)
    current = np.mean(np.abs(samples) ** 2)
    if current == 0:
        raise ParameterError("cannot set launch power of an all-zero waveform")
    samples *= math.sqrt(target_w / current)
    return samples


def _dispersion_filter(n: int, sample_rate_hz: float, real: float,
                       factors: tuple[float, ...]) -> np.ndarray:
    """exp(real + 1j * w**2 * factors[0] * factors[1] ...) on the FFT grid
    w = 2 pi fftfreq(n, 1 / sample_rate_hz), rounded factor by factor as
    that expression is.

    The imaginary part is built in the result's own buffer and exponentiated
    there, so the grid never exists as a complex temporary.
    """
    filt = np.empty(n, dtype=complex)
    phase = filt.imag
    np.multiply(2 * np.pi, fftfreq(n, 1 / sample_rate_hz), out=phase)
    np.square(phase, out=phase)
    for factor in factors:
        phase *= factor
    filt.real = real
    return np.exp(filt, out=filt)


# Serializes _linear_filter's misses, so that links starting together build
# each filter once and share it.
_FILTER_LOCK = threading.Lock()


@functools.lru_cache(maxsize=2)  # a span's half step and whole step
def _linear_filter(n: int, sample_rate_hz: float, fiber: FiberParams,
                   dz_km: float) -> np.ndarray:
    """The read-only spectrum filter of dz_km of dispersion and loss,
    exp((0.5j beta2 w**2 - 0.5 alpha) dz_km), for n samples at
    sample_rate_hz. A pure function of its arguments, so every link of a
    sweep shares one array per step length."""
    beta2_km = fiber.beta2_s2_per_m * 1e3  # s^2/km
    alpha_km = fiber.alpha_db_per_km * math.log(10) / 10  # 1/km, power
    filt = _dispersion_filter(n, sample_rate_hz, -(0.5 * alpha_km) * dz_km,
                              (0.5 * beta2_km, dz_km))
    filt.flags.writeable = False
    return filt


def ssfm_span(samples, sample_rate_hz: float, fiber: FiberParams,
              step_km: float) -> np.ndarray:
    """Symmetric split-step propagation over one span; returns a new array.

    The span takes n = ceil(length / step_km) equal steps of length / n km,
    so step_km is an upper bound. Consecutive linear half-steps are fused,
    so each step costs one FFT/IFFT pair and the span needs two filters,
    the half step at either end and the whole step between Kerr steps (one
    when a single step covers the span), both fetched under one lock before
    the first transform. Periodic (FFT) boundary; callers discard a guard
    ring.
    """
    u = np.array(samples, dtype=complex)
    if u.size == 0:
        raise ParameterError("waveform is empty")
    if step_km <= 0:
        raise ParameterError("step_km must be positive")
    length = fiber.length_km
    if length == 0:
        return u
    n_steps = max(1, math.ceil(length / step_km - 1e-12))
    dz = length / n_steps
    gamma = fiber.gamma_per_w_km
    with _FILTER_LOCK:
        half = _linear_filter(u.size, sample_rate_hz, fiber, dz / 2)
        whole = _linear_filter(u.size, sample_rate_hz, fiber, dz) if n_steps > 1 else half

    # u is this call's own copy, so every transform writes into it: one
    # buffer carries the samples and spectra of the whole span. numpy's
    # transforms warn on a non-finite sample; the periodic check below
    # reports it as a NumericalError instead.
    with np.errstate(invalid="ignore", over="ignore"):
        for m in range(n_steps + 1):
            if m:
                _kernels.kerr_phase(u, gamma * dz)
            spectrum = fft(u, out=u)
            spectrum *= whole if 0 < m < n_steps else half
            u = ifft(spectrum, out=spectrum)
            if m and (m % 32 == 0 or m == n_steps) and not np.isfinite(u).all():
                raise NumericalError(f"non-finite samples after {m * dz:.3f} km")
    return u


def ase_variance(sample_rate_hz: float, gain_db: float, nf_db: float,
                 ref_wavelength_nm: float = 1550.0) -> float:
    """Total complex ASE noise variance that `edfa` adds: the noise PSD
    S = n_sp (G-1) h nu, with n_sp = NF_lin / 2, times the sample rate.

    Raises ParameterError when it is not finite, as at a large noise figure
    and gain, whose product overflows although each factor is finite.
    """
    n_sp = 10 ** (nf_db / 10) / 2
    nu = SPEED_OF_LIGHT / (ref_wavelength_nm * 1e-9)
    var = n_sp * (10 ** (gain_db / 10) - 1) * PLANCK * nu * sample_rate_hz
    if not math.isfinite(var):
        raise ParameterError(
            f"noise figure edfa_nf_db={nf_db!r} at {gain_db!r} dB of gain gives "
            f"an ASE noise variance of {var!r}"
        )
    return var


def edfa(samples, gain_db: float, noise_var: float, seed) -> np.ndarray:
    """Flat amplifier that adds single-polarization complex Gaussian noise
    of total variance noise_var (`ase_variance` of the link). A zero
    variance adds nothing."""
    if gain_db < 0:
        raise ParameterError("EDFA gain must be >= 1 (0 dB)")
    if not 0 <= noise_var < math.inf:
        raise ParameterError(
            f"noise variance {noise_var!r} must be finite and nonnegative")
    out = np.asarray(samples, dtype=complex) * math.sqrt(10 ** (gain_db / 10))
    if noise_var > 0:
        rng = np.random.default_rng(seed)
        scale = math.sqrt(noise_var / 2)
        for part in (out.real, out.imag):  # the real draws, then the imaginary
            draw = rng.normal(size=out.size)
            draw *= scale
            part += draw
    return out


def cd_compensate(samples, sample_rate_hz: float, fiber: FiberParams) -> np.ndarray:
    """Exact inverse of the span's dispersion (loss untouched); returns a
    new array."""
    # the filter first: its grid's temporaries are gone before the spectrum
    filt = _dispersion_filter(
        len(samples), sample_rate_hz, 0.0,
        (0.5 * fiber.beta2_s2_per_m, fiber.length_km, 1e3, -1.0))
    spectrum = fft(samples)
    spectrum *= filt
    return ifft(spectrum, out=spectrum)


def effective_snr(tx_symbols, rx_symbols) -> float:
    """SNR after removing one common complex scale, capped at 60 dB."""
    tx = np.asarray(tx_symbols, dtype=complex)
    rx = np.asarray(rx_symbols, dtype=complex)
    if tx.shape != rx.shape:
        raise ParameterError("symbol streams differ in length")
    if tx.size < MIN_SNR_SYMBOLS:
        raise ParameterError(
            f"need at least {MIN_SNR_SYMBOLS} symbols for a stable estimate"
        )
    denom = np.vdot(tx, tx).real
    if denom == 0:
        raise ParameterError("transmit stream has zero power")
    a = np.vdot(tx, rx) / denom
    err_power = np.mean(np.abs(rx - a * tx) ** 2)
    sig_power = abs(a) ** 2 * np.mean(np.abs(tx) ** 2)
    if not (math.isfinite(sig_power) and math.isfinite(err_power)):
        raise NumericalError(
            f"SNR estimate is not finite: signal power {sig_power!r}, "
            f"error power {err_power!r}"
        )
    if err_power == 0:
        return 60.0
    return min(10 * math.log10(sig_power / err_power), 60.0)


def run_link(i_amplitudes, q_amplitudes, link: LinkParams,
             fiber: FiberParams) -> float:
    """Full chain from shaped amplitude rails (flat 1-D arrays) to
    effective SNR in dB.

    Sign bits and ASE noise derive deterministically from link.seed; the
    EDFA gain exactly compensates the span loss; the first and last
    guard_symbols are excluded from the SNR measurement.
    """
    i_rail = np.asarray(i_amplitudes, dtype=float)
    q_rail = np.asarray(q_amplitudes, dtype=float)
    if i_rail.ndim != 1 or q_rail.ndim != 1:
        raise ParameterError(
            f"amplitude rails must be flat arrays, got shapes "
            f"{i_rail.shape}/{q_rail.shape}"
        )
    n = link.burst_symbols
    if i_rail.size < n or q_rail.size < n:
        raise ParameterError(
            f"need {n} amplitudes per rail, got {i_rail.size}/{q_rail.size}"
        )
    if not (np.isfinite(i_rail[:n]).all() and np.isfinite(q_rail[:n]).all()):
        raise ParameterError("amplitude rails must be finite")
    rate = link.sample_rate_hz
    gain_db = fiber.alpha_db_per_km * fiber.length_km
    # a noise variance that overflows fails here, not after the span
    noise_var = ase_variance(rate, gain_db, link.edfa_nf_db,
                             fiber.ref_wavelength_nm)
    ss_signs, ss_ase = np.random.SeedSequence(link.seed).spawn(2)
    rng = np.random.default_rng(ss_signs)
    tx = pasmap.normalize(
        pasmap.map_qam(
            pasmap.map_ask(i_rail[:n], rng.integers(0, 2, n)),
            pasmap.map_ask(q_rail[:n], rng.integers(0, 2, n)),
        )
    )
    taps = rrc_taps(link.rrc_rolloff, link.filter_span_symbols, link.sps)
    wave = modulate(tx, link.sps, taps)
    # one launch buffer, zero-padded to an FFT-friendly length: a dark guard
    # interval that keeps pocketfft off its slow large-prime path and absorbs
    # the circular wrap. The wave is scaled in it; each stage after returns
    # its own array, and rebinding u frees the one before.
    u = np.zeros(next_fast_len(wave.size), dtype=complex)
    u[:wave.size] = wave
    _scale_to_power(u[:wave.size], link.launch_power_dbm)
    del wave
    u = ssfm_span(u, rate, fiber, link.step_km)
    u = edfa(u, gain_db, noise_var, ss_ase)
    u = cd_compensate(u, rate, fiber)
    rx = demodulate(u, taps, link.sps)[:n]
    g = link.guard_symbols
    # rx stays demodulate's strided view: np.vdot in effective_snr rounds a
    # contiguous copy differently, so copying it moves the SNR's last digit
    return effective_snr(tx[g:n - g], rx[g:n - g])


def _shaped_rails(trellis: Trellis, n_symbols: int, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Two amplitude rails drawn from uniform k-bit indices, seeded by tag."""
    k = max_shaping_bits(trellis)
    n_len = trellis.params.n_amplitudes
    per_rail = math.ceil(n_symbols / n_len)
    rng = random.Random(tag)
    rails = [np.array([encode_index(trellis, rng.getrandbits(k))
                       for _ in range(per_rail)], dtype=float).ravel()
             for _ in range(2)]
    return rails[0], rails[1]


def usable_cores() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(trellis_by_scheme: dict[str, Trellis], powers, seeds: int,
              link: LinkParams, fiber: FiberParams) -> list[dict]:
    """Grid of run_link calls over (scheme, launch power, seed index).

    Seed index si maps to the same derived link seed for every scheme, so
    schemes see identical sign-bit and ASE realizations (common random
    numbers); the shaped payload is redrawn per seed from the same index
    stream through each scheme's codebook.

    The payloads are drawn here, in order; the links then run on a thread
    pool as wide as the usable cores. Each link works on its own arrays and
    shares only the read-only span filters, and pocketfft and numpy's
    ufuncs release the GIL, so the links overlap and every SNR is the one a
    plain loop gives. If a link raises, the
    links not yet started are cancelled and the error of the first failed
    link in (scheme, seed, power) order propagates.
    """
    seeds = _integer(seeds, "seeds")
    if seeds < 1:
        raise ParameterError(f"seed sweep needs at least one seed, got {seeds}")
    jobs = []
    for scheme, trellis in trellis_by_scheme.items():
        for si in range(seeds):
            derived = (link.seed * 1000003 + si) % (1 << 63)
            i_rail, q_rail = _shaped_rails(
                trellis, link.burst_symbols, f"{link.seed}:{si}:data"
            )
            for p in powers:
                run = replace(link, launch_power_dbm=float(p), seed=derived)
                jobs.append((scheme, run, i_rail, q_rail))
    pool = ThreadPoolExecutor(max_workers=usable_cores())
    try:
        # run_link is looked up in this module's namespace, where a tracer
        # or a test may have replaced it
        futures = [pool.submit(run_link, i_rail, q_rail, run, fiber)
                   for _, run, i_rail, q_rail in jobs]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # drop the queued links; the ones running finish first
        pool.shutdown(cancel_futures=True)
    rows = []
    for (scheme, run, _, _), future in zip(jobs, futures):
        rows.append({
            "scheme": scheme,
            "launch_power_dbm": run.launch_power_dbm,
            "snr_db": future.result(),
            "seed": run.seed,
            "step_km": link.step_km,
            "sps": link.sps,
            "burst_symbols": link.burst_symbols,
        })
    rows.sort(key=lambda r: (r["scheme"], r["launch_power_dbm"], r["seed"]))
    return rows
