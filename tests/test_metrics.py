import itertools
import math
import random
import time

import numpy as np
import pytest

from bandshape import metrics, trellis
from bandshape.errors import EmptyCodebookError, InfeasibleRateError, ParameterError
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
    used_metrics,
    windowed_energy_deviation,
)
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    _count_occurrences,
    build_band_trellis,
    build_full_trellis,
    max_shaping_bits,
    min_emax_for_bits,
)

from oracles import (
    GAPPED,
    amplitude_occurrences,
    enumerate_sequences,
    exact_metrics_reference,
    exact_moments,
    min_emax_scan,
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

    def test_sphere_rule_equals_node_pass(self):
        # a sphere's occurrences are n times its first column's counts; the
        # node pass credits every edge of every column
        rng = random.Random(0)
        for _ in range(300):
            amps = tuple(sorted(rng.sample(range(1, 16, 2), rng.randint(1, 4))))
            n = rng.randint(1, 12)
            e_max = rng.randint(n * amps[0] ** 2, n * amps[-1] ** 2)
            t = build_full_trellis(TrellisParams(n, Alphabet(amps), e_max))
            occ, _ = metrics._occurrences(t, t.num_sequences)
            want = metrics._metrics_from_occurrences(amps, occ, n * t.num_sequences)
            assert exact_metrics(t) == ShapingMetrics(amps, *want)

    @pytest.mark.parametrize("n, amps, e_max", [
        (400, (1, 101), 800_000), (3, (1, 4999), 74_970_003),
    ])
    def test_sparse_sphere_is_fast(self, n, amps, e_max):
        # windows of millions of levels, few nodes: the sphere rule reads one
        # column, whatever the windows hold
        t = build_full_trellis(TrellisParams(n, Alphabet(amps), e_max))
        start = time.perf_counter()
        m = exact_metrics(t)
        assert time.perf_counter() - start < 1.0
        assert sum(m.p_amp) == pytest.approx(1.0, abs=1e-12)


class TestSampledMetrics:
    def test_exhaustive_equals_enumeration(self):
        # the first 2**k sequences in lexicographic order, counted one by one
        for n, amps, e_max, band in ((3, (1, 3, 5), 27, None),
                                     (8, (1, 3, 5, 7), 88, (6, 0)), *GAPPED):
            params = TrellisParams(n, Alphabet(amps), e_max)
            t = (build_band_trellis(params, BandParams(*band)) if band
                 else build_full_trellis(params))
            count = 1 << max_shaping_bits(t)
            m = sampled_metrics(t)
            p_want, e2_want, e4_want = exact_moments(
                enumerate_sequences(n, amps, e_max, band)[:count], amps)
            for a, p in zip(amps, m.p_amp):
                assert p == pytest.approx(p_want[a], abs=1e-12)
            assert m.e2 == pytest.approx(e2_want, rel=1e-12)
            assert m.e4 == pytest.approx(e4_want, rel=1e-12)
            assert m.num_samples == count


def criterion_2_grid():
    """Every trellis of the acceptance suite's criterion-2 bijectivity grid:
    n 2-8, alphabets {1,3}, {1,3,5}, {1,3,5,7}, four e_max each, unbanded
    and every nonempty band of heights 1-3 and widths 0-2."""
    for n in range(2, 9):
        for amps in ((1, 3), (1, 3, 5), (1, 3, 5, 7)):
            lo, hi = n, n * amps[-1] ** 2
            for e_max in sorted({lo + 8 * int(f * (hi - lo) / 8)
                                 for f in (0.0, 0.35, 0.65, 1.0)}):
                params = TrellisParams(n, Alphabet(amps), e_max)
                yield build_full_trellis(params)
                for h, w in itertools.product((1, 2, 3), (0, 1, 2)):
                    try:
                        yield build_band_trellis(params, BandParams(h, w))
                    except EmptyCodebookError:
                        pass


def gapped_trellises():
    for n, amps, e_max, band in GAPPED:
        params = TrellisParams(n, Alphabet(amps), e_max)
        yield (build_band_trellis(params, BandParams(*band)) if band
               else build_full_trellis(params))


def assert_equals_sweep(t):
    """used_metrics against a sweep that encodes every used index."""
    got = used_metrics(t)
    want = sampled_metrics(t)
    assert (got.p_amp, got.e2, got.e4, got.var_e, got.kurtosis) == (
        want.p_amp, want.e2, want.e4, want.var_e, want.kurtosis)
    assert got.se_e2 == pytest.approx(want.se_e2, rel=1e-9)
    assert got.num_samples == want.num_samples


class TestUsedMetrics:
    """Exact statistics of the 2**k used sequences from one forward pass."""

    def test_criterion_2_grid_equals_sweep(self):
        count = 0
        for t in criterion_2_grid():
            assert_equals_sweep(t)
            count += 1
        assert count == 709

    def test_gapped_equal_sweep(self):
        for t in gapped_trellises():
            assert_equals_sweep(t)

    @pytest.mark.parametrize("n, e_max, band", [
        (8, 88, (6, 0)), (10, 150, (3, 1)), (12, 220, (4, 2)), (16, 208, (2, 0)),
    ])
    def test_band_equals_sweep(self, n, e_max, band):
        assert_equals_sweep(build_band_trellis(TrellisParams(n, A1357, e_max),
                                               BandParams(*band)))

    def test_k_zero(self):
        t = build_full_trellis(TrellisParams(2, Alphabet((1,)), 2))
        assert max_shaping_bits(t) == 0
        assert_equals_sweep(t)
        m = used_metrics(t)
        assert (m.num_samples, m.p_amp, m.se_e2) == (1, (1.0,), math.inf)

    def test_whole_trellis_used(self):
        # every sequence of {1,3}^6 is in the sphere: 2**k = 64 = the count
        t = build_full_trellis(TrellisParams(6, A13, 54))
        assert t.num_sequences == 1 << max_shaping_bits(t) == 64
        assert_equals_sweep(t)
        m, whole = used_metrics(t), exact_metrics(t)
        assert (m.p_amp, m.e2, m.e4) == (whole.p_amp, whole.e2, whole.e4)

    def test_histogram_holds_the_used_sequences(self):
        for t in itertools.chain(gapped_trellises(), criterion_2_grid()):
            count = 1 << max_shaping_bits(t)
            occ, hist = metrics._occurrences(t, count)
            assert sum(hist.values()) == count
            assert sum(occ.values()) == count * t.params.n_amplitudes

    @pytest.mark.parametrize("n, amps, e_max, band", [
        (3, (1, 3, 5), 27, None), (5, (1, 3, 5, 7), 45, None),
        (6, (1, 3, 5, 7), 70, (3, 1)), *GAPPED,
    ])
    def test_every_limit_matches_enumeration(self, n, amps, e_max, band):
        # any limit, not only 2**k: the first `limit` sequences in
        # lexicographic order, counted one by one
        params = TrellisParams(n, Alphabet(amps), e_max)
        t = (build_band_trellis(params, BandParams(*band)) if band
             else build_full_trellis(params))
        seqs = enumerate_sequences(n, amps, e_max, band)
        for limit in range(len(seqs) + 1):
            energies = {}
            for seq in seqs[:limit]:
                e = sum(a * a for a in seq)
                energies[e] = energies.get(e, 0) + 1
            assert metrics._occurrences(t, limit) == (
                amplitude_occurrences(seqs[:limit], amps), energies)

    def test_n108_codebooks_match_stored_used_subset(self):
        # the used-subset references of the benchmark's codebook_design
        # workload, which a 4,000-sample estimate was checked against
        ess = build_full_trellis(TrellisParams(108, A1357, 860))
        bess = build_band_trellis(TrellisParams(108, A1357, 972), BandParams(11, 0))
        for t, p, e2, e4 in (
            (ess, (0.5252358600045087, 0.32541739700785705,
                   0.12193846210417021, 0.027408280883464038),
             7.8454597489692155, 168.90286623394448),
            (bess, (0.4761753628939398, 0.34346487999126324,
                    0.15071714074041723, 0.029642616374379736),
             8.787776003670347, 193.6669655198328),
        ):
            m = used_metrics(t)
            assert (m.p_amp, m.e2, m.e4) == (p, e2, e4)
            assert m.num_samples == 1 << 162

    def test_exact_metrics_keeps_its_bits(self):
        trellises = itertools.chain(
            criterion_2_grid(), gapped_trellises(),
            (build_full_trellis(TrellisParams(108, A1357, 860)),
             build_band_trellis(TrellisParams(108, A1357, 972), BandParams(11, 0))))
        for t in trellises:
            assert exact_metrics(t) == exact_metrics_reference(t)


def assert_counts_occurrences(params, band):
    """The packed pass against the built trellis's node pass."""
    t = trellis._build(params, band)
    want = metrics._occurrences(t, t.num_sequences)[0]
    assert _count_occurrences(params, band) == (t.num_sequences, want)
    return want


class TestCountOccurrences:
    """The band search's packed count pass: each amplitude's occurrences over
    every sequence, with no trellis built."""

    def test_grid_and_gapped_equal_enumeration(self):
        count = 0
        for t in itertools.chain(criterion_2_grid(), gapped_trellises()):
            p = t.params
            occ = assert_counts_occurrences(p, t.band)
            band = (t.band.height, t.band.width) if t.band else None
            seqs = enumerate_sequences(p.n_amplitudes, p.alphabet.amplitudes, p.e_max, band)
            assert occ == amplitude_occurrences(seqs, p.alphabet.amplitudes)
            count += 1
        assert count == 709 + len(GAPPED)

    def test_full_cube_needs_the_wide_packing(self):
        # every sequence of {1,3}^8: each amplitude occurs 1,024 times, which
        # a width for |A|**n = 256 alone (10 bits) folds mod 1,023
        params = TrellisParams(8, A13, 72)
        assert _count_occurrences(params, None) == (256, {1: 1024, 3: 1024})
        assert assert_counts_occurrences(params, None) == amplitude_occurrences(
            enumerate_sequences(8, (1, 3), 72), (1, 3))

    def test_n108_search_geometries(self, monkeypatch):
        # every geometry the N=108 search scores, at the e_max it scores it
        scored = []
        score = metrics._codebook_metrics

        def spy(params, band):
            scored.append((params, band))
            return score(params, band)

        monkeypatch.setattr(metrics, "_codebook_metrics", spy)
        find_band_operating_point(108, A1357, 162)
        assert len(scored) == 31
        for params, band in scored:
            assert_counts_occurrences(params, band)

    @pytest.mark.parametrize("n, amps, e_max, band", [
        (6, (5, 7), 246, (1, 0)), (5, (1, 3, 5), 45, (1, 1)), (7, (1, 3, 5, 7), 63, (1, 1)),
    ])
    def test_empty_band_raises_as_the_build_does(self, n, amps, e_max, band):
        # the same column empties in both passes: 1, 4 and 6 here
        params, band = TrellisParams(n, Alphabet(amps), e_max), BandParams(*band)
        with pytest.raises(EmptyCodebookError) as built:
            build_band_trellis(params, band)
        with pytest.raises(EmptyCodebookError) as counted:
            _count_occurrences(params, band)
        assert str(counted.value) == str(built.value)


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

    def test_n108_search_builds_nothing(self, monkeypatch):
        builds = []
        build = trellis._build

        def spy(params, band):
            builds.append((params, band))
            return build(params, band)

        monkeypatch.setattr(trellis, "_build", spy)
        op = find_band_operating_point(108, A1357, 162)
        assert builds == []
        assert (op.band, op.e_max) == (BandParams(11, 0), 972)

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
        monkeypatch.setattr(metrics, "_codebook_metrics",
                            lambda params, band: ess if band is None else banded)
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
