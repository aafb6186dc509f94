import math
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import fft, ifft, fftfreq
from scipy.fft import next_fast_len as scipy_next_fast_len

from bandshape import _kernels, cli, fibersim
from bandshape.errors import NumericalError, ParameterError
from bandshape.fibersim import (
    FiberParams,
    LinkParams,
    _scale_to_power,
    ase_variance,
    cd_compensate,
    demodulate,
    edfa,
    effective_snr,
    modulate,
    rrc_taps,
    run_link,
    run_sweep,
    ssfm_span,
)
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
)

from oracles import (
    cd_compensate_reference,
    demodulate_reference,
    edfa_reference,
    kerr_phase_reference,
    rk4ip_span,
    ssfm_reference,
)

SPAN_FIBER = FiberParams(
    alpha_db_per_km=0.2, dispersion_ps_nm_km=17.0, gamma_per_w_km=1.3,
    length_km=205.0,
)
RATE = 200e9  # sample rate of random_qam_waveform: 50 GBd at 4 samples/symbol


def random_qam_waveform(n_symbols=2048, seed=0):
    rng = np.random.default_rng(seed)
    levels = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)
    sym = rng.choice(levels, n_symbols) + 1j * rng.choice(levels, n_symbols)
    sym /= np.sqrt(np.mean(np.abs(sym) ** 2))
    taps = rrc_taps(0.1, 32, 4)
    return modulate(sym, 4, taps)


def same_bits(a, b):
    """Equal dtype, shape and bytes: unlike ==, tells -0.0 from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernels:
    def test_zero_coeff_identity(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=256) + 1j * rng.normal(size=256)
        np.testing.assert_allclose(_kernels.kerr_phase(u.copy(), 0.0), u, atol=1e-15)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=256) + 1j * rng.normal(size=256)
        out = _kernels.kerr_phase(u.copy(), 1.7)
        np.testing.assert_allclose(np.abs(out), np.abs(u), rtol=1e-12)

    # from near 0 to phases that wrap past 2*pi many times (|u|^2 up to ~30)
    @pytest.mark.parametrize("coeff", [0.0, 1e-300, 1e-12, 0.037, 1.7, 250.0])
    def test_numpy_path_matches_reference_exactly(self, coeff):
        rng = np.random.default_rng(3)
        u = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        got = u.copy()
        assert _kernels.kerr_phase(got, coeff) is got
        assert np.array_equal(got, kerr_phase_reference(u.copy(), coeff))


class TestRrcTaps:
    def test_unit_energy(self):
        taps = rrc_taps(0.1, 64, 16)
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        taps = rrc_taps(0.1, 64, 16)
        np.testing.assert_allclose(taps, taps[::-1], rtol=1e-12)

    def test_nyquist_cascade(self):
        # tx+rx cascade sampled at symbol instants: 1 at center, ~0 elsewhere
        sps = 16
        taps = rrc_taps(0.1, 64, sps)
        rc = np.convolve(taps, taps)
        center = len(taps) - 1
        assert rc[center] == pytest.approx(1.0, abs=1e-12)
        others = [rc[center + k * sps] for k in range(1, 30)]
        assert max(abs(x) for x in others) < 1e-3

    def test_singular_points_finite(self):
        # rolloff 0.25, sps 8: |t| = 1/(4*0.25) = 1 symbol lands on the grid
        taps = rrc_taps(0.25, 16, 8)
        assert np.all(np.isfinite(taps))
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)

    def test_bad_span(self):
        with pytest.raises(ParameterError):
            rrc_taps(0.1, 7, 8)
        with pytest.raises(ParameterError):
            rrc_taps(0.0, 16, 8)
        with pytest.raises(ParameterError, match="sps must be >= 1"):
            rrc_taps(0.1, 16, 0)


class TestModulateDemodulate:
    def test_impulse_gives_taps(self):
        taps = rrc_taps(0.1, 16, 4)
        wf = modulate(np.array([1.0]), 4, taps)
        np.testing.assert_allclose(wf, taps, atol=1e-15)

    def test_zero_symbols(self):
        taps = rrc_taps(0.1, 16, 4)
        wf = modulate(np.zeros(64, dtype=complex), 4, taps)
        assert np.all(wf == 0)

    def test_back_to_back_evm(self):
        sps = 8
        taps = rrc_taps(0.1, 64, sps)
        rng = np.random.default_rng(4)
        sym = (rng.choice([-1.0, 1.0], 4096) + 1j * rng.choice([-1.0, 1.0], 4096))
        wf = modulate(sym, sps, taps)
        rx = demodulate(wf, taps, sps)[: len(sym)]
        evm_db = 10 * np.log10(np.mean(np.abs(rx - sym) ** 2) / np.mean(np.abs(sym) ** 2))
        assert evm_db < -40.0

    def test_delay_underflow(self):
        # the derived delay leaves samples of any nonempty waveform
        taps = rrc_taps(0.1, 16, 4)
        with pytest.raises(ParameterError):
            demodulate(np.array([], dtype=complex), taps, 4)

    def test_no_symbols_rejected(self):
        with pytest.raises(ParameterError):
            modulate(np.array([], dtype=complex), 4, rrc_taps(0.1, 16, 4))

    @pytest.mark.parametrize("sps", [4, 8, 16])
    @pytest.mark.parametrize("span", [8, 64])
    @pytest.mark.parametrize("n_symbols", [1, 7, 16384])
    def test_bit_identical_to_scipy_signal(self, sps, span, n_symbols):
        # scipy.signal is the oracle only: the program does not import it
        from scipy.signal import fftconvolve, upfirdn

        taps = rrc_taps(0.1, span, sps)
        rng = np.random.default_rng(sps * 1000 + span + n_symbols)
        sym = rng.normal(size=n_symbols) + 1j * rng.normal(size=n_symbols)
        wf = modulate(sym, sps, taps)
        assert np.array_equal(wf, upfirdn(taps, sym, up=sps))
        noisy = wf + 1e-3 * (rng.normal(size=wf.size) + 1j * rng.normal(size=wf.size))
        assert np.array_equal(demodulate(noisy, taps, sps),
                              fftconvolve(noisy, taps, mode="full")[taps.size - 1::sps])

    def test_peak_memory(self):
        # at the criterion-6 link's length (sps 8, 2^14 symbols) the filter
        # holds the signal's spectrum and the taps' r2c half, conjugated in
        # place, never the taps' full spectrum nor a mirrored copy of the half
        sps = 8
        taps = rrc_taps(0.1, 64, sps)
        size = fibersim.next_fast_len((1 << 14) * sps + taps.size)
        rng = np.random.default_rng(24)
        wf = rng.normal(size=size) + 1j * rng.normal(size=size)
        n = fibersim.next_fast_len(size + taps.size - 1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            demodulate(wf, taps, sps)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        held = 16 * (n + n // 2 + 1)
        assert peak < held + 16e3


class TestNextFastLen:
    # perfbench derives the link's FFT length with scipy's next_fast_len and
    # checks the traced length against it, so the two must agree exactly
    def test_matches_scipy_up_to_2_pow_18(self):
        bad = [n for n in range(1, (1 << 18) + 1)
               if fibersim.next_fast_len(n) != scipy_next_fast_len(n, False)]
        assert bad == []

    @pytest.mark.parametrize("sps", [4, 8, 16])
    def test_matches_scipy_at_link_lengths(self, sps):
        defaults = cli._SIM_DEFAULTS
        taps = defaults["filter_span"] * sps + 1
        padded = (defaults["burst"] - 1) * sps + taps  # what run_link pads
        for n in (padded, padded + taps - 1):  # the span, then demodulate
            assert fibersim.next_fast_len(n) == scipy_next_fast_len(n, False)


class TestSsfm:
    def test_dispersion_only_matches_analytic(self):
        fiber = FiberParams(0.0, 17.0, 0.0, 80.0)
        wf = random_qam_waveform(seed=5)
        out = ssfm_span(wf, RATE, fiber, step_km=4.0)
        omega = 2 * np.pi * fftfreq(wf.size, 1 / RATE)
        phase = 0.5 * fiber.beta2_s2_per_m * omega**2 * fiber.length_km * 1e3
        ref = ifft(fft(wf) * np.exp(1j * phase))
        err = np.linalg.norm(out - ref) / np.linalg.norm(ref)
        assert err < 1e-10
        # spectrum magnitude untouched
        np.testing.assert_allclose(
            np.abs(fft(out)), np.abs(fft(wf)), rtol=1e-9, atol=1e-12
        )

    def test_spm_only_phase(self):
        fiber = FiberParams(0.0, 0.0, 1.3, 50.0)
        n = 1024
        amp = 0.03  # 0.9 mW constant power
        u = np.full(n, amp, dtype=complex)
        out = ssfm_span(u, 200e9, fiber, step_km=1.0)
        expected = amp * np.exp(1j * 1.3 * amp**2 * 50.0)
        np.testing.assert_allclose(out, np.full(n, expected), rtol=1e-10)

    def test_lossless_energy_conserved(self):
        fiber = FiberParams(0.0, 17.0, 1.3, 40.0)
        wf = random_qam_waveform(seed=6)
        wf *= np.sqrt(5e-3 / np.mean(np.abs(wf) ** 2))
        out = ssfm_span(wf, RATE, fiber, step_km=0.5)
        e_in = np.sum(np.abs(wf) ** 2)
        e_out = np.sum(np.abs(out) ** 2)
        assert abs(e_out / e_in - 1) < 1e-9

    def test_loss_only(self):
        fiber = FiberParams(0.2, 0.0, 0.0, 100.0)
        wf = random_qam_waveform(seed=7)
        out = ssfm_span(wf, RATE, fiber, step_km=10.0)
        ratio = np.sum(np.abs(out) ** 2) / np.sum(np.abs(wf) ** 2)
        assert 10 * np.log10(ratio) == pytest.approx(-20.0, abs=1e-9)

    def test_launch_power_scaling(self):
        wf = random_qam_waveform(seed=8)
        power = np.mean(np.abs(_scale_to_power(wf, 3.0)) ** 2)
        assert 10 * np.log10(power * 1e3) == pytest.approx(3.0, abs=1e-9)

    def test_launch_power_of_all_zero_rejected(self):
        with pytest.raises(ParameterError, match="all-zero waveform"):
            _scale_to_power(np.zeros(16, dtype=complex), 3.0)

    @pytest.mark.parametrize("samples, step_km, message", [
        (np.zeros(0, dtype=complex), 1.0, "waveform is empty"),
        (np.ones(16, dtype=complex), 0.0, "step_km must be positive"),
    ])
    def test_bad_span_input_rejected(self, samples, step_km, message):
        with pytest.raises(ParameterError, match=message):
            ssfm_span(samples, RATE, SPAN_FIBER, step_km)

    def test_nonfinite_aborts(self):
        fiber = FiberParams(0.2, 17.0, 1.3, 10.0)
        wf = random_qam_waveform(seed=9)
        wf[17] = np.inf
        # the span is checked after its last step
        with pytest.raises(NumericalError, match=r"^non-finite samples after 10\.000 km$"):
            ssfm_span(wf, RATE, fiber, step_km=1.0)

    @pytest.mark.parametrize("length_km, where", [
        pytest.param(100.0, "32.000", id="100.0"),
        # 1 km does not divide 64.5 km: 32 of its 65 steps of 64.5/65 km
        pytest.param(64.5, "31.754", id="64.5"),
    ])
    def test_nonfinite_found_after_32_steps(self, length_km, where):
        # and after every 32nd step, so a long span stops at the first check
        fiber = FiberParams(0.2, 17.0, 1.3, length_km)
        wf = random_qam_waveform(n_symbols=256, seed=9)
        wf[17] = np.inf
        with pytest.raises(NumericalError, match=rf"^non-finite samples after {where} km$"):
            ssfm_span(wf, RATE, fiber, step_km=1.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_mid_waveform_aborts(self, bad):
        # numpy's transforms warn on non-finite values; the span must report
        # them as its own error, not as a RuntimeWarning
        fiber = FiberParams(0.2, 17.0, 1.3, 10.0)
        wf = random_qam_waveform(seed=9)
        wf[wf.size // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite samples"):
                ssfm_span(wf, RATE, fiber, step_km=1.0)

    def test_zero_length_identity(self):
        fiber = FiberParams(0.2, 17.0, 1.3, 0.0)
        wf = random_qam_waveform(seed=10)
        out = ssfm_span(wf, RATE, fiber, step_km=1.0)
        np.testing.assert_allclose(out, wf, atol=1e-15)

    def test_matches_reference_exactly(self):
        # 11 equal steps of 10.3/11 km, which 1 km does not divide; 20 mW
        # makes the Kerr phase matter
        fiber = FiberParams(0.2, 17.0, 1.3, 10.3)
        wf = random_qam_waveform(seed=11)
        wf *= np.sqrt(20e-3 / np.mean(np.abs(wf) ** 2))
        out = ssfm_span(wf, RATE, fiber, step_km=1.0)
        ref = ssfm_reference(wf, RATE, fiber, 1.0)
        assert np.array_equal(out, ref)

    def test_input_untouched(self):
        fiber = FiberParams(0.2, 17.0, 1.3, 3.5)
        wf = random_qam_waveform(seed=12)
        before = wf.copy()
        out = ssfm_span(wf, RATE, fiber, step_km=1.0)
        assert np.array_equal(wf, before)
        assert not np.shares_memory(out, wf)

    def test_close_to_rk4ip(self):
        # the criterion-6 span (sps 8, 0.25 km steps) at 10 dBm against an
        # integrator whose Kerr step differs: RK4IP at 0.5 km, itself within
        # 1e-5 of its 4x finer run. Measured on a 512-symbol 64-QAM burst:
        # 3.0e-6 for RK4IP, 2.3e-5 for the split-step span.
        sps = 8
        rate = 50e9 * sps
        rng = np.random.default_rng(30)
        levels = np.arange(-7.0, 8.0, 2.0)
        sym = rng.choice(levels, 512) + 1j * rng.choice(levels, 512)
        wf = modulate(sym, sps, rrc_taps(0.1, 64, sps))
        wf *= math.sqrt(10e-3 / np.mean(np.abs(wf) ** 2))
        wf = np.concatenate([wf, np.zeros(fibersim.next_fast_len(wf.size) - wf.size)])

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        reference = rk4ip_span(wf, rate, SPAN_FIBER, 0.5)
        assert rel(reference, rk4ip_span(wf, rate, SPAN_FIBER, 0.125)) < 1e-5
        assert rel(ssfm_span(wf, rate, SPAN_FIBER, 0.25), reference) < 1e-4


class TestLinearFilter:
    """The span's dispersion-and-loss filters are cached by (length, rate,
    fiber, step) and shared, read-only, by every span that needs them."""

    FIBER = FiberParams(0.2, 17.0, 1.3, 10.3)

    def record_filters(self, monkeypatch):
        seen = []
        build = fibersim._linear_filter

        def record(*args):
            seen.append(build(*args))
            return seen[-1]

        monkeypatch.setattr(fibersim, "_linear_filter", record)
        return seen

    def test_equal_spans_share_filters(self, monkeypatch):
        seen = self.record_filters(monkeypatch)
        wf = random_qam_waveform(seed=20)
        ssfm_span(wf, RATE, self.FIBER, step_km=1.0)
        # an equal fiber, not the same object
        ssfm_span(wf, RATE, replace(self.FIBER), step_km=1.0)
        # the half and the whole of a 10.3/11 km step per span
        assert len(seen) == 4
        assert all(a is b for a, b in zip(seen[:2], seen[2:]))

    @pytest.mark.parametrize("length_km, n_steps", [
        pytest.param(length_km, n_steps, id=str(length_km))
        for length_km, n_steps in ((0.3, 3), (10.3, 103), (205.0, 2050))
    ])
    def test_equal_steps_use_two_filters(self, monkeypatch, length_km, n_steps):
        # n steps of the float 0.1 km do not end at any of these lengths;
        # the span takes n equal steps of length / n km, through the
        # filters of the half and the whole step
        lengths, coeffs = [], []
        build = fibersim._linear_filter

        def record(n, rate, fiber, dz_km):
            lengths.append(dz_km)
            return build(n, rate, fiber, dz_km)

        monkeypatch.setattr(fibersim, "_linear_filter", record)
        monkeypatch.setattr(_kernels, "kerr_phase",
                            lambda u, coeff: coeffs.append(coeff) or u)
        fiber = replace(self.FIBER, length_km=length_km)
        ssfm_span(random_qam_waveform(n_symbols=16, seed=23), RATE, fiber, step_km=0.1)
        dz = length_km / n_steps
        assert lengths == [dz / 2, dz]
        assert coeffs == [fiber.gamma_per_w_km * dz] * n_steps

    def test_read_only(self):
        filt = fibersim._linear_filter(1024, RATE, self.FIBER, 0.5)
        with pytest.raises(ValueError):
            filt[0] = 1.0
        with pytest.raises(ValueError):
            filt *= 2.0

    def test_other_fiber_or_step_gets_another_filter(self):
        filt = fibersim._linear_filter(1024, RATE, self.FIBER, 0.5)
        others = [
            fibersim._linear_filter(1024, RATE, self.FIBER, 0.25),
            fibersim._linear_filter(1024, RATE, replace(self.FIBER, dispersion_ps_nm_km=16.0), 0.5),
            fibersim._linear_filter(1024, RATE, replace(self.FIBER, alpha_db_per_km=0.16), 0.5),
            fibersim._linear_filter(1024, RATE / 2, self.FIBER, 0.5),
            fibersim._linear_filter(1000, RATE, self.FIBER, 0.5),
        ]
        for other in others:
            assert other is not filt
            assert not np.array_equal(other, filt)

    def test_cache_stays_bounded(self):
        cache = fibersim._linear_filter
        wf = random_qam_waveform(seed=21)
        for length in (3.3, 4.1, 5.0, 7.9):
            for step_km in (0.7, 1.0, 1.3):
                fiber = replace(self.FIBER, length_km=length)
                ssfm_span(wf, RATE, fiber, step_km)
                assert cache.cache_info().currsize <= cache.cache_info().maxsize == 2

    def test_concurrent_spans_build_each_filter_once(self, monkeypatch):
        # spans that start together, more than the cores: the later ones
        # wait for the first one's filters instead of building their own
        builds = []
        dispersion_filter = fibersim._dispersion_filter

        def slow_build(*args):
            builds.append(args)
            time.sleep(0.05)
            return dispersion_filter(*args)

        monkeypatch.setattr(fibersim, "_dispersion_filter", slow_build)
        fibersim._linear_filter.cache_clear()
        wf = random_qam_waveform(seed=22)
        fiber = replace(self.FIBER, length_km=10.0)  # 0.5 and 1.0 km filters
        outs = [None] * 6

        def span(i):
            outs[i] = ssfm_span(wf, RATE, fiber, step_km=1.0)

        threads = [threading.Thread(target=span, args=(i,)) for i in range(len(outs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 2
        assert all(np.array_equal(out, outs[0]) for out in outs)


class TestEdfa:
    def test_unity_gain_passthrough(self):
        wf = random_qam_waveform(seed=11)
        out = edfa(wf, 0.0, ase_variance(RATE, 0.0, 5.0), seed=1)
        np.testing.assert_array_equal(out, wf)

    def test_noise_free_gain(self):
        # the NLI-only field: the same amplification with no ASE drawn
        wf = random_qam_waveform(seed=11)
        for gain_db in (10.0, 41.0):
            out = edfa(wf, gain_db, 0.0, seed=1)
            np.testing.assert_array_equal(out, wf * math.sqrt(10 ** (gain_db / 10)))

    @pytest.mark.parametrize("noise_var", [-1e-9, math.nan, math.inf])
    def test_bad_noise_variance_rejected(self, noise_var):
        wf = random_qam_waveform(seed=13)
        with pytest.raises(ParameterError, match="noise variance"):
            edfa(wf, 10.0, noise_var, seed=0)

    def test_noise_variance(self):
        n = 1_000_000
        rate = 800e9
        wf = np.zeros(n, dtype=complex)
        gain_db, nf_db = 20.0, 5.0
        out = edfa(wf, gain_db, ase_variance(rate, gain_db, nf_db), seed=2)
        g = 10 ** (gain_db / 10)
        n_sp = 10 ** (nf_db / 10) / 2
        nu = 299792458.0 / 1550e-9
        s_ase = n_sp * (g - 1) * 6.62607015e-34 * nu
        want = s_ase * rate
        got = np.mean(np.abs(out) ** 2)
        assert got == pytest.approx(want, rel=0.01)

    def test_same_seed_identical(self):
        wf = random_qam_waveform(seed=12)
        var = ase_variance(RATE, 10.0, 5.0)
        a = edfa(wf, 10.0, var, seed=3)
        b = edfa(wf, 10.0, var, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_negative_gain_rejected(self):
        wf = random_qam_waveform(seed=13)
        with pytest.raises(ParameterError):
            edfa(wf, -1.0, 0.0, seed=0)

    def test_noise_variance_overflow_rejected(self):
        # 10**307 and 10**4.1 are floats, their product is not
        with pytest.raises(ParameterError, match="noise figure edfa_nf_db=3070.0"):
            ase_variance(RATE, 41.0, 3070.0)


class TestCdCompensate:
    def test_inverts_dispersion(self):
        fiber = FiberParams(0.0, 17.0, 0.0, 205.0)
        wf = random_qam_waveform(seed=14)
        out = cd_compensate(ssfm_span(wf, RATE, fiber, step_km=205.0), RATE, fiber)
        err = np.linalg.norm(out - wf) / np.linalg.norm(wf)
        assert err < 1e-9

    def test_not_idempotent(self):
        fiber = FiberParams(0.0, 17.0, 0.0, 205.0)
        wf = random_qam_waveform(seed=15)
        once = cd_compensate(wf, RATE, fiber)
        twice = cd_compensate(once, RATE, fiber)
        assert not np.allclose(twice, wf, atol=1e-6)

    def test_zero_length_identity(self):
        fiber = FiberParams(0.2, 17.0, 1.3, 0.0)
        wf = random_qam_waveform(seed=16)
        out = cd_compensate(wf, RATE, fiber)
        np.testing.assert_allclose(out, wf, atol=1e-12)


LINK_STAGES = {
    "edfa": (lambda wf: edfa(wf, 41.0, ase_variance(RATE, 41.0, 5.0), seed=7),
             lambda wf: edfa_reference(wf, 41.0, ase_variance(RATE, 41.0, 5.0), 7)),
    "cd_compensate": (lambda wf: cd_compensate(wf, RATE, SPAN_FIBER),
                      lambda wf: cd_compensate_reference(wf, RATE, SPAN_FIBER)),
    "demodulate": (lambda wf: demodulate(wf, rrc_taps(0.1, 32, 4), 4),
                   lambda wf: demodulate_reference(wf, rrc_taps(0.1, 32, 4), 4)),
}


@pytest.mark.parametrize("stage", sorted(LINK_STAGES))
class TestLinkStages:
    """The stages after the span work in place on an array of their own:
    the bits of their plain out-of-place expressions, and the caller's array
    unchanged and not shared (the span's own checks are in TestSsfm)."""

    @pytest.mark.parametrize("n_symbols", [1, 999, 2048])
    def test_matches_reference_bits(self, stage, n_symbols):
        run, reference = LINK_STAGES[stage]
        wf = random_qam_waveform(n_symbols, seed=n_symbols)
        wf *= math.sqrt(20e-3 / np.mean(np.abs(wf) ** 2))
        assert same_bits(run(wf), reference(wf))

    def test_input_untouched(self, stage):
        run, _ = LINK_STAGES[stage]
        wf = random_qam_waveform(seed=23)
        before = wf.copy()
        out = run(wf)
        assert same_bits(wf, before)
        assert not np.shares_memory(out, wf)


class TestEffectiveSnr:
    def _qpsk(self, n, seed=17):
        rng = np.random.default_rng(seed)
        return (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2)

    def test_perfect_capped(self):
        tx = self._qpsk(2000)
        assert effective_snr(tx, tx.copy()) == 60.0

    def test_awgn_matches(self):
        tx = self._qpsk(100_000)
        sigma2 = 0.01
        rng = np.random.default_rng(18)
        noise = np.sqrt(sigma2 / 2) * (rng.normal(size=tx.size) + 1j * rng.normal(size=tx.size))
        got = effective_snr(tx, tx + noise)
        assert got == pytest.approx(10 * np.log10(1 / sigma2), abs=0.1)

    def test_phase_rotation_invariant(self):
        tx = self._qpsk(2000)
        assert effective_snr(tx, np.exp(1j * np.pi / 4) * tx) == 60.0

    def test_gain_invariant(self):
        tx = self._qpsk(2000)
        assert effective_snr(tx, 3.7 * tx) == 60.0

    def test_exact_zero_error_capped(self):
        # unnormalized +-1+-1j symbols: the fitted scale is exactly 1 and
        # the error power exactly zero
        rng = np.random.default_rng(17)
        tx = rng.choice([-1.0, 1.0], 2000) + 1j * rng.choice([-1.0, 1.0], 2000)
        assert effective_snr(tx, tx.copy()) == 60.0

    def test_length_mismatch_rejected(self):
        tx = self._qpsk(2000)
        with pytest.raises(ParameterError, match="differ in length"):
            effective_snr(tx, tx[:-1])

    def test_short_input_rejected(self):
        tx = self._qpsk(100)
        with pytest.raises(ParameterError):
            effective_snr(tx, tx)

    def test_zero_power_rejected(self):
        z = np.zeros(2000, dtype=complex)
        with pytest.raises(ParameterError):
            effective_snr(z, z)

    def test_nonfinite_estimate_rejected(self):
        tx = self._qpsk(2000)
        rx = tx.copy()
        rx[7] = np.nan
        with pytest.raises(NumericalError, match="not finite"):
            effective_snr(tx, rx)


def small_link(**kw):
    defaults = dict(
        baud_rate_gbd=50.0, rrc_rolloff=0.1, edfa_nf_db=5.0,
        launch_power_dbm=2.0, sps=4, step_km=205.0, seed=0,
        burst_symbols=4096, filter_span_symbols=64, guard_symbols=256,
    )
    defaults.update(kw)
    return LinkParams(**defaults)


def uniform_rails(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice([1, 3, 5, 7], n), rng.choice([1, 3, 5, 7], n)


class TestRunLink:
    def test_ase_limited_snr(self):
        # gamma=0: effective SNR must match the analytic ASE-limited value
        link = small_link()
        fiber = FiberParams(0.2, 17.0, 0.0, 205.0)
        i_rail, q_rail = uniform_rails(link.burst_symbols)
        snr = run_link(i_rail, q_rail, link, fiber)
        g = 10 ** (0.2 * 205.0 / 10)
        n_sp = 10 ** (5.0 / 10) / 2
        nu = 299792458.0 / 1550e-9
        s_ase = n_sp * (g - 1) * 6.62607015e-34 * nu
        p_w = 10 ** ((link.launch_power_dbm - 30) / 10)
        analytic = 10 * np.log10(p_w / (s_ase * 50e9))
        assert snr == pytest.approx(analytic, abs=0.15)

    def test_linear_power_step(self):
        fiber = FiberParams(0.2, 17.0, 0.0, 205.0)
        i_rail, q_rail = uniform_rails(4096)
        lo = run_link(i_rail, q_rail, small_link(launch_power_dbm=0.0), fiber)
        hi = run_link(i_rail, q_rail, small_link(launch_power_dbm=3.0), fiber)
        delta = hi - lo
        assert delta == pytest.approx(3.0, abs=0.2)

    def test_deterministic(self):
        fiber = SPAN_FIBER
        link = small_link(step_km=5.0)
        i_rail, q_rail = uniform_rails(4096, seed=1)
        a = run_link(i_rail, q_rail, link, fiber)
        b = run_link(i_rail, q_rail, link, fiber)
        assert a == b

    def test_insufficient_amplitudes(self):
        with pytest.raises(ParameterError):
            run_link([1, 3], [1, 3], small_link(), SPAN_FIBER)

    def test_noise_overflow_fails_before_the_span(self, monkeypatch):
        def no_span(*args):
            raise AssertionError("no span may be propagated")

        monkeypatch.setattr(fibersim, "ssfm_span", no_span)
        i_rail, q_rail = uniform_rails(4096)
        with pytest.raises(ParameterError, match="noise figure"):
            run_link(i_rail, q_rail, small_link(edfa_nf_db=3070.0), SPAN_FIBER)

    def test_two_dimensional_rail_rejected(self):
        # rails are flat; slicing a 2-D rail would silently take whole rows
        i_rail, q_rail = uniform_rails(4096)
        with pytest.raises(ParameterError):
            run_link(i_rail.reshape(2, 2048), q_rail, small_link(), SPAN_FIBER)

    def test_peak_memory(self):
        # sps 8 and a 2^14-symbol burst, as in the criterion-6 sweep, over a
        # 2 km span: each step's working set is that of 205 km. The span's
        # filters are built inside the measurement. Measured 12.26 MB, set
        # by the span and by dispersion compensation, each 12.26 MB; the
        # matched filter peaks at 10.36 MB (12.21 MB while it built the
        # taps' full spectrum). Stages that each make new arrays reach
        # 15.35 MB. tracemalloc sees numpy's arrays, not pocketfft's
        # internal buffers.
        link = small_link(sps=8, step_km=0.25, burst_symbols=1 << 14,
                          guard_symbols=512, launch_power_dbm=10.0)
        i_rail, q_rail = uniform_rails(link.burst_symbols)
        fibersim._linear_filter.cache_clear()
        tracemalloc.start()
        try:
            run_link(i_rail, q_rail, link, replace(SPAN_FIBER, length_km=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13.0e6


class TestRunSweep:
    def test_grid_shape_and_determinism(self):
        trellis = build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236))
        link = small_link(burst_symbols=2048, guard_symbols=128, step_km=41.0)
        fiber = SPAN_FIBER
        rows = run_sweep({"ess": trellis}, powers=[0.0, 3.0], seeds=2,
                         link=link, fiber=fiber)
        assert len(rows) == 4
        assert [r["launch_power_dbm"] for r in rows] == [0.0, 0.0, 3.0, 3.0]
        again = run_sweep({"ess": trellis}, powers=[0.0, 3.0], seeds=2,
                          link=link, fiber=fiber)
        assert rows == again
        for r in rows:
            assert set(r) == {"scheme", "launch_power_dbm", "snr_db", "seed",
                              "step_km", "sps", "burst_symbols"}

    def test_equals_a_plain_loop_of_links(self, monkeypatch):
        # the pooled sweep returns, bit for bit, what one link at a time
        # gives, with links overlapping even on a one-core host
        monkeypatch.setattr(fibersim, "usable_cores", lambda: 4)
        schemes = {
            "ess": build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236)),
            "bess": build_band_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 260),
                                       BandParams(4, 1)),
        }
        powers = [0.0, 4.0, 8.0]
        link = small_link(burst_symbols=2048, guard_symbols=128, step_km=41.0, seed=3)
        rows = run_sweep(schemes, powers=powers, seeds=2, link=link, fiber=SPAN_FIBER)
        expected = []
        for scheme, trellis in schemes.items():
            for si in range(2):
                derived = (link.seed * 1000003 + si) % (1 << 63)
                i_rail, q_rail = fibersim._shaped_rails(
                    trellis, link.burst_symbols, f"{link.seed}:{si}:data")
                for p in powers:
                    run = replace(link, launch_power_dbm=p, seed=derived)
                    expected.append({
                        "scheme": scheme, "launch_power_dbm": p,
                        "snr_db": run_link(i_rail, q_rail, run, SPAN_FIBER),
                        "seed": derived, "step_km": link.step_km, "sps": link.sps,
                        "burst_symbols": link.burst_symbols,
                    })
        expected.sort(key=lambda r: (r["scheme"], r["launch_power_dbm"], r["seed"]))
        assert len(rows) == 12
        assert rows == expected

    def test_failed_link_cancels_the_queue(self, monkeypatch):
        # the link at 0 dBm fails after the one at 1 dBm, but comes first in
        # job order, so its error is the one raised; queued links never start
        calls = []
        lock = threading.Lock()

        def fake_link(i_rail, q_rail, run, fiber):
            with lock:
                calls.append(run.launch_power_dbm)
            if run.launch_power_dbm == 0.0:
                time.sleep(0.2)
                raise RuntimeError("first link failed")
            if run.launch_power_dbm == 1.0:
                raise RuntimeError("second link failed")
            time.sleep(0.05)
            return 10.0

        monkeypatch.setattr(fibersim, "run_link", fake_link)
        monkeypatch.setattr(fibersim, "usable_cores", lambda: 2)
        trellis = build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236))
        powers = [float(p) for p in range(20)]
        with pytest.raises(RuntimeError, match="first link failed"):
            run_sweep({"ess": trellis}, powers=powers, seeds=1,
                      link=small_link(), fiber=SPAN_FIBER)
        assert {0.0, 1.0} <= set(calls)
        assert len(calls) < len(powers) // 2

    def test_numerical_error_leaves_the_worker_thread(self, monkeypatch):
        # a -inf launched into one link's span surfaces from its pool thread
        # as the span's NumericalError, not as the transforms' RuntimeWarning
        scale = fibersim._scale_to_power

        def poisoned(samples, power_dbm):
            out = scale(samples, power_dbm)
            if power_dbm == 4.0:
                out[out.size // 2] = -np.inf
            return out

        monkeypatch.setattr(fibersim, "_scale_to_power", poisoned)
        monkeypatch.setattr(fibersim, "usable_cores", lambda: 2)
        trellis = build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236))
        link = small_link(burst_symbols=2048, guard_symbols=128, step_km=41.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite samples"):
                run_sweep({"ess": trellis}, powers=[0.0, 4.0], seeds=1,
                          link=link, fiber=SPAN_FIBER)

    def test_empty_grid(self):
        # no schemes or no powers: no link to run, so no rows
        trellis = build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236))
        for schemes, powers in (({}, [0.0]), ({"ess": trellis}, [])):
            assert run_sweep(schemes, powers=powers, seeds=1,
                             link=small_link(), fiber=SPAN_FIBER) == []

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_empty_seed_sweep_rejected(self, seeds):
        trellis = build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236))
        with pytest.raises(ParameterError, match="at least one seed"):
            run_sweep({"ess": trellis}, powers=[0.0], seeds=seeds,
                      link=small_link(), fiber=SPAN_FIBER)
        with pytest.raises(ParameterError, match="seeds must be an integer"):
            run_sweep({"ess": trellis}, powers=[0.0], seeds=2.0,
                      link=small_link(), fiber=SPAN_FIBER)


class TestShapingInvariance:
    def test_linear_regime_schemes_indistinguishable(self):
        # gamma=0 at equal launch power: shaping is invisible to effective SNR
        params = TrellisParams(12, Alphabet((1, 3, 5, 7)), 236)
        full = build_full_trellis(params)
        band = build_band_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 260),
                                  BandParams(4, 1))
        fiber = FiberParams(0.2, 17.0, 0.0, 205.0)
        link = small_link(launch_power_dbm=4.0)
        snrs = {}
        for name, trellis in (("full", full), ("band", band)):
            rows = run_sweep({name: trellis}, powers=[4.0], seeds=1,
                             link=link, fiber=fiber)
            snrs[name] = rows[0]["snr_db"]
        assert abs(snrs["full"] - snrs["band"]) < 0.05

    @pytest.mark.slow
    def test_step_size_convergence(self):
        # halving the step moves the reported SNR by < 0.05 dB
        trellis = build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236))
        fiber = SPAN_FIBER
        out = {}
        for step in (0.1, 0.05):
            link = LinkParams(
                baud_rate_gbd=50.0, rrc_rolloff=0.1, edfa_nf_db=5.0,
                launch_power_dbm=8.0, sps=8, step_km=step, seed=5,
                burst_symbols=16384, filter_span_symbols=64, guard_symbols=512,
            )
            rows = run_sweep({"x": trellis}, powers=[8.0], seeds=1,
                             link=link, fiber=fiber)
            out[step] = rows[0]["snr_db"]
        assert abs(out[0.1] - out[0.05]) < 0.05


class TestParamValidation:
    def test_link_invariants(self):
        with pytest.raises(ParameterError):
            small_link(sps=2)
        with pytest.raises(ParameterError):
            small_link(rrc_rolloff=0.0)
        with pytest.raises(ParameterError):
            small_link(step_km=0.0)
        with pytest.raises(ParameterError, match="baud rate must be positive"):
            small_link(baud_rate_gbd=0.0)
        with pytest.raises(ParameterError, match="noise figure must be nonnegative"):
            small_link(edfa_nf_db=-1.0)
        with pytest.raises(ParameterError, match="guard must be nonnegative"):
            small_link(guard_symbols=-1)
        with pytest.raises(ParameterError):
            small_link(guard_symbols=3000)  # 2*guard >= burst
        for span in (7, 6):  # rrc_taps's rule, checked before any rail is encoded
            with pytest.raises(ParameterError, match="filter span must be even"):
                small_link(filter_span_symbols=span)
        for field in ("sps", "seed", "burst_symbols", "filter_span_symbols", "guard_symbols"):
            with pytest.raises(ParameterError, match=f"{field} must be an integer"):
                small_link(**{field: float(getattr(small_link(), field))})
        assert type(small_link(sps=np.int64(8)).sps) is int

    def test_fiber_invariants(self):
        with pytest.raises(ParameterError):
            FiberParams(-0.1, 17.0, 1.3, 10.0)
        with pytest.raises(ParameterError):
            FiberParams(0.2, 17.0, 1.3, -1.0)
        with pytest.raises(ParameterError, match="reference wavelength must be positive"):
            FiberParams(0.2, 17.0, 1.3, 10.0, ref_wavelength_nm=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "alpha_db_per_km", "dispersion_ps_nm_km", "gamma_per_w_km",
        "length_km", "ref_wavelength_nm",
    ])
    def test_fiber_nonfinite_rejected(self, field, bad):
        with pytest.raises(ParameterError, match=f"{field}=.* must be finite"):
            replace(SPAN_FIBER, **{field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "baud_rate_gbd", "rrc_rolloff", "edfa_nf_db", "launch_power_dbm",
        "step_km",
    ])
    def test_link_nonfinite_rejected(self, field, bad):
        with pytest.raises(ParameterError, match=f"{field}=.* must be finite"):
            small_link(**{field: bad})

    @pytest.mark.parametrize("field, value", [
        ("launch_power_dbm", 4000.0),  # 10**397 W overflows
        ("launch_power_dbm", -3300.0),  # 10**-333 W underflows to 0
        ("edfa_nf_db", 4000.0),
    ])
    def test_link_db_outside_float_range_rejected(self, field, value):
        with pytest.raises(ParameterError,
                           match=f"{field}={value!r} has no finite positive linear"):
            small_link(**{field: value})

    def test_link_db_inside_float_range_accepted(self):
        # 10**307 and 10**-307 W, and a noise figure of 10**307, are floats
        for power in (3100.0, -3040.0):
            assert small_link(launch_power_dbm=power).launch_power_dbm == power
        assert small_link(edfa_nf_db=3070.0).edfa_nf_db == 3070.0

    def test_fiber_span_loss_outside_float_range_rejected(self):
        # 4,100 dB over 205 km; the amplifier gain that undoes it overflows
        with pytest.raises(ParameterError, match="span loss .*=4100.0 has no finite"):
            replace(SPAN_FIBER, alpha_db_per_km=20.0, length_km=205.0)
        assert replace(SPAN_FIBER, alpha_db_per_km=15.0, length_km=205.0).length_km == 205.0

    def test_nonfinite_rail_rejected(self):
        i_rail, q_rail = uniform_rails(4096)
        q_rail = q_rail.astype(float)
        q_rail[100] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            run_link(i_rail, q_rail, small_link(), SPAN_FIBER)
