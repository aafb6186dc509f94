import math

import numpy as np
import pytest

from bandshape import metrics
from bandshape.errors import InfeasibleRateError, ParameterError
from bandshape.metrics import (
    SEARCH_HEIGHTS,
    SEARCH_WIDTHS,
    TARGET_E2_DB,
    TARGET_VAR_DB,
    TOL_E2_DB,
    TOL_VAR_DB,
    BandOperatingPoint,
    ShapingMetrics,
    compare_db,
    compare_trellises,
    exact_metrics,
    find_band_operating_point,
    sampled_metrics,
    windowed_energy_deviation,
)
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    max_shaping_bits,
    min_emax_for_bits,
)
from bandshape.codec import encode_index

from oracles import (
    GAPPED,
    enumerate_sequences,
    exact_moments,
    min_emax_scan,
    sampled_moments,
)

A13 = Alphabet((1, 3))
A135 = Alphabet((1, 3, 5))
A1357 = Alphabet((1, 3, 5, 7))


@pytest.fixture(scope="module")
def toy():
    return build_full_trellis(TrellisParams(3, A135, 27))


class TestExactMetrics:
    def test_toy_distribution(self, toy):
        m = exact_metrics(toy)
        assert m.p_amp == pytest.approx((18 / 33, 12 / 33, 3 / 33), abs=1e-15)
        assert m.e2 == pytest.approx(201 / 33, abs=1e-12)

    def test_single_sequence(self):
        t = build_full_trellis(TrellisParams(2, Alphabet((1,)), 2))
        m = exact_metrics(t)
        assert m.p_amp == (1.0,)
        assert m.var_e == 0.0
        assert m.kurtosis == 1.0

    def test_full_cover_band_matches_full(self, toy):
        band = build_band_trellis(toy.params, BandParams(4, 3))
        assert exact_metrics(band) == exact_metrics(toy)

    def test_matches_enumeration_grid(self):
        cases = [
            (3, A135, 27, None),
            (5, A13, 29, None),
            (6, A1357, 102, None),
            (7, A1357, 63, (2, 1)),
            (5, A135, 45, (2, 0)),
            # gapped columns: a forward count must carry across each gap
            *((n, Alphabet(amps), e_max, band) for n, amps, e_max, band in GAPPED),
        ]
        for n, alph, e_max, band in cases:
            params = TrellisParams(n, alph, e_max)
            if band is None:
                t = build_full_trellis(params)
            else:
                t = build_band_trellis(params, BandParams(*band))
            seqs = enumerate_sequences(n, alph.amplitudes, e_max, band=band)
            p_want, e2_want, e4_want = exact_moments(seqs, alph.amplitudes)
            m = exact_metrics(t)
            for a, p in zip(alph.amplitudes, m.p_amp):
                assert p == pytest.approx(p_want[a], abs=1e-12)
            assert m.e2 == pytest.approx(e2_want, rel=1e-12)
            assert m.e4 == pytest.approx(e4_want, rel=1e-12)

    def test_moment_identities(self, toy):
        m = exact_metrics(toy)
        assert m.var_e == pytest.approx(m.e4 - m.e2**2, rel=1e-12)
        assert m.kurtosis * m.e2**2 == pytest.approx(m.e4, rel=1e-12)

    def test_probabilities_sum_to_one(self, toy):
        assert sum(exact_metrics(toy).p_amp) == pytest.approx(1.0, abs=1e-12)

    def test_banding_reduces_energy_variance(self):
        # directional check across a small grid of nonempty bands
        for n, alph, e_max in ((6, A1357, 102), (7, A1357, 63), (5, A135, 45)):
            params = TrellisParams(n, alph, e_max)
            full_var = exact_metrics(build_full_trellis(params)).var_e
            for h in (1, 2, 3):
                for w in (0, 1):
                    try:
                        band = build_band_trellis(params, BandParams(h, w))
                    except Exception:
                        continue
                    assert exact_metrics(band).var_e <= full_var + 1e-12


class TestSampledMetrics:
    def test_exhaustive_equals_enumeration(self, toy):
        m = sampled_metrics(toy, num_samples=8, seed=7)
        used = [encode_index(toy, i) for i in range(8)]
        p_want, e2_want, e4_want = exact_moments(used, (1, 3, 5))
        for a, p in zip((1, 3, 5), m.p_amp):
            assert p == pytest.approx(p_want[a], abs=1e-12)
        assert m.e2 == pytest.approx(e2_want, rel=1e-12)
        assert m.num_samples == 8
        assert m.exhaustive

    def test_sweep_threshold(self, toy):
        # k = 3: every used index is swept once the samples reach 2**3
        below = sampled_metrics(toy, num_samples=7, seed=0)
        assert (below.num_samples, below.exhaustive) == (7, False)
        for asked in (8, 500):
            m = sampled_metrics(toy, num_samples=asked, seed=0)
            assert (m.num_samples, m.exhaustive) == (8, True)
        with pytest.raises(ParameterError):
            sampled_metrics(toy, num_samples=0, seed=0)
        with pytest.raises(ParameterError, match="integer"):
            sampled_metrics(toy, num_samples=20.0, seed=0)
        assert sampled_metrics(toy, num_samples=np.int64(8), seed=0).exhaustive

    def test_same_seed_identical(self):
        t = build_full_trellis(TrellisParams(6, A1357, 102))  # k = 10
        a = sampled_metrics(t, num_samples=500, seed=42)
        b = sampled_metrics(t, num_samples=500, seed=42)
        assert not a.exhaustive
        assert a == b

    def test_different_seed_differs(self):
        t = build_full_trellis(TrellisParams(6, A1357, 102))  # k = 10
        a = sampled_metrics(t, num_samples=500, seed=1)
        b = sampled_metrics(t, num_samples=500, seed=2)
        assert not a.exhaustive
        assert (a.p_amp, a.e2) != (b.p_amp, b.e2)

    def test_consistent_with_exhaustive(self):
        t = build_full_trellis(TrellisParams(8, A1357, 120))  # k = 13
        k = max_shaping_bits(t)
        exact = sampled_metrics(t, num_samples=1 << k, seed=0)
        est = sampled_metrics(t, num_samples=4000, seed=99)
        assert exact.exhaustive and not est.exhaustive
        assert abs(est.e2 - exact.e2) < 3 * est.se_e2


    def test_monte_carlo_matches_oracle_exactly(self):
        # 1,270 band sequences, k = 10: 500 draws stay below 2**k, so Monte Carlo
        n, e_max, band = 8, 88, (6, 0)
        t = build_band_trellis(TrellisParams(n, A1357, e_max), BandParams(*band))
        k = max_shaping_bits(t)
        m = sampled_metrics(t, num_samples=500, seed=3)
        assert not m.exhaustive and k == 10
        p, e2, e4, se_e2 = sampled_moments(
            enumerate_sequences(n, (1, 3, 5, 7), e_max, band), (1, 3, 5, 7), k, 500, 3)
        assert (m.p_amp, m.e2, m.e4, m.se_e2) == (p, e2, e4, se_e2)


class TestSequenceEnergyStats:
    """Per-sequence mean and variance of the energy: the window-1 sums are
    the squared amplitudes."""

    def test_spiky_sequence(self):
        sums, dev = windowed_energy_deviation((7, 3, 1, 1, 1, 1, 1), 1)
        assert dev**2 == pytest.approx(274.29, abs=0.01)
        assert sum(sums) / len(sums) == pytest.approx(9.0)

    def test_flat_sequence(self):
        assert windowed_energy_deviation((3,) * 7, 1)[1] ** 2 == 0.0

    def test_single(self):
        sums, dev = windowed_energy_deviation((1,), 1)
        assert sum(sums) / len(sums) == 1.0
        assert dev**2 == 0.0


class TestWindowedEnergyDeviation:
    def test_whole_sequence_window(self):
        sums, dev = windowed_energy_deviation((1, 3, 5), 3)
        assert sums == (35,)
        assert dev == 0.0

    def test_unit_window_flat(self):
        _, dev = windowed_energy_deviation((3, 3, 3), 1)
        assert dev == 0.0

    def test_pair_windows(self):
        sums, dev = windowed_energy_deviation((7, 3, 1, 1, 1, 1, 1), 2)
        assert sums == (58, 10, 2, 2, 2, 2)
        assert dev == pytest.approx(float(np.std(np.array(sums))), rel=1e-12)

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            windowed_energy_deviation((1, 1), 3)
        with pytest.raises(ParameterError, match="integer"):
            windowed_energy_deviation((1.5, 2.5), 1)  # not read as (1, 2)
        with pytest.raises(ParameterError, match="integer"):
            windowed_energy_deviation((1, 1), 1.5)
        assert windowed_energy_deviation((1, 3), np.int64(2)) == ((10,), 0.0)


class TestCompareDb:
    def test_double(self):
        assert compare_db(2, 1) == pytest.approx(3.0103, abs=1e-4)

    def test_equal(self):
        assert compare_db(5.5, 5.5) == 0.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            compare_db(0, 1)
        with pytest.raises(ParameterError):
            compare_db(1, -2)


class TestCompareTrellises:
    def test_self_comparison(self, toy):
        r = compare_trellises(toy, toy)
        assert r["delta_e2_db"] == 0.0
        assert r["delta_var_db"] == 0.0
        assert r["kurtosis_ratio"] == 1.0

    def test_mismatched_n(self, toy):
        other = build_full_trellis(TrellisParams(4, A135, 36))
        with pytest.raises(ParameterError):
            compare_trellises(toy, other)

    def test_mismatched_alphabet(self, toy):
        other = build_full_trellis(TrellisParams(3, A13, 19))
        with pytest.raises(ParameterError):
            compare_trellises(toy, other)


class TestOperatingPointSearch:
    def test_small_search(self):
        # rate 1.5 bit/amplitude at n=16; loose targets, structure checks only
        op = find_band_operating_point(16, A1357, 24)
        t = build_band_trellis(
            TrellisParams(16, A1357, op.e_max), op.band
        )
        assert max_shaping_bits(t) >= 24
        assert op.banded.kurtosis < op.ess.kurtosis
        assert op.delta_e2_db > 0  # band pays energy for the same rate
        assert math.isfinite(op.delta_var_db)
        assert math.isfinite(op.score)

    @pytest.mark.parametrize("n, k", [(8, 9), (16, 24), (24, 36), (54, 81), (108, 162)])
    def test_matches_every_geometry_scanned(self, n, k):
        assert find_band_operating_point(n, A1357, k) == operating_point_scan(n, A1357, k)

    def test_n108_walks_heights_down(self, monkeypatch):
        # per width: heights 16 down to 7, each search starting where the
        # taller band's stopped; height 6 is never searched, because its
        # energy floor alone scores worse than the best band found by then
        calls = []

        def record(n, alphabet, k, band=None, scan_from=None):
            calls.append((band, scan_from))
            return min_emax_for_bits(n, alphabet, k, band=band, scan_from=scan_from)

        monkeypatch.setattr(metrics, "min_emax_for_bits", record)
        find_band_operating_point(108, A1357, 162)
        assert calls[0] == (None, None)
        searches = calls[1:]
        assert [(b.height, b.width) for b, _ in searches] == [
            (h, w) for w in range(3) for h in range(16, 6, -1)]
        assert all(b.height != 6 for b, _ in searches)
        for w in range(3):
            starts = [start for b, start in searches if b.width == w]
            hits = [min_emax_for_bits(108, A1357, 162, band=BandParams(h, w),
                                      scan_from=860) for h in range(16, 7, -1)]
            assert starts == [860] + hits

    def test_rejected_bands_do_not_tighten_the_prune(self, monkeypatch):
        # at n=18 the tall bands keep the sphere's kurtosis and are rejected,
        # though they score lower (4.96-6.27) than any candidate; only
        # candidates bound the walk, so every height of every width is searched
        calls = []

        def record(n, alphabet, k, band=None, scan_from=None):
            calls.append(band)
            return min_emax_for_bits(n, alphabet, k, band=band, scan_from=scan_from)

        monkeypatch.setattr(metrics, "min_emax_for_bits", record)
        find_band_operating_point(18, A1357, 14)
        assert [(b.height, b.width) for b in calls[1:]] == [
            (h, w) for w in SEARCH_WIDTHS for h in reversed(SEARCH_HEIGHTS)]

    def test_floor_tying_the_best_score_is_still_searched(self, monkeypatch):
        # a tie goes to the lower band, so only a floor scoring strictly worse
        # than the best may end the walk. Fakes put bands (2,0) and (1,0) at
        # e_max 96 with every sequence ending there (e2 = 96/8, the (1,0)
        # floor) and zero the variance axis, so the floor ties the best
        ess = ShapingMetrics((1,), (1.0,), 10.0, 200.0, 100.0, 2.0)
        banded = ShapingMetrics((1,), (1.0,), 12.0, 244.0, 100.0, 1.7)
        monkeypatch.setattr(metrics, "SEARCH_HEIGHTS", range(1, 3))
        monkeypatch.setattr(metrics, "SEARCH_WIDTHS", range(0, 1))
        monkeypatch.setattr(metrics, "TARGET_VAR_DB", 0.0)
        monkeypatch.setattr(metrics, "min_emax_for_bits",
                            lambda n, alphabet, k, band=None, scan_from=None:
                            80 if band is None else 96)
        monkeypatch.setattr(metrics, "build_full_trellis", lambda params: ess)
        monkeypatch.setattr(metrics, "build_band_trellis", lambda params, band: banded)
        monkeypatch.setattr(metrics, "exact_metrics", lambda m: m)
        op = find_band_operating_point(8, A1357, 9)
        assert op.band == BandParams(1, 0)
        assert op.score == (compare_db(96 / 8, 10.0) - TARGET_E2_DB) / TOL_E2_DB


def operating_point_scan(n, alphabet, k):
    """find_band_operating_point by brute force: every grid geometry scanned
    point by point from the sphere minimum, in (height, width) order, keeping
    the first strict minimum of the score."""
    ess_e_max = min_emax_for_bits(n, alphabet, k)
    ess = exact_metrics(build_full_trellis(TrellisParams(n, alphabet, ess_e_max)))
    best = None
    for h in SEARCH_HEIGHTS:
        for w in SEARCH_WIDTHS:
            band = BandParams(h, w)
            try:
                e_max = min_emax_scan(n, alphabet, k, band, scan_from=ess_e_max)
            except InfeasibleRateError:
                continue
            banded = exact_metrics(build_band_trellis(TrellisParams(n, alphabet, e_max), band))
            if banded.kurtosis >= ess.kurtosis or banded.var_e == 0.0:
                continue
            d_e2, d_var = compare_db(banded.e2, ess.e2), compare_db(banded.var_e, ess.var_e)
            score = math.hypot((d_e2 - TARGET_E2_DB) / TOL_E2_DB,
                               (d_var - TARGET_VAR_DB) / TOL_VAR_DB)
            if best is None or score < best.score:
                best = BandOperatingPoint(band, e_max, ess_e_max, ess, banded, d_e2,
                                          d_var, banded.kurtosis / ess.kurtosis, score)
    return best
