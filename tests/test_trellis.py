import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandshape import trellis as trellis_module
from bandshape.codec import decode_index, encode_index
from bandshape.errors import (
    EmptyCodebookError,
    InfeasibleRateError,
    ParameterError,
    TrellisFormatError,
)
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    _build,
    _count_only,
    _level_windows,
    _nodes,
    build_band_trellis,
    build_full_trellis,
    deserialize,
    max_shaping_bits,
    min_emax_for_bits,
    parse_alphabet,
    parse_band,
    serialize,
)

from oracles import (
    band_bounds,
    count_sequences,
    enumerate_sequences,
    min_emax_scan,
    node_table,
)

A135 = Alphabet((1, 3, 5))
A13 = Alphabet((1, 3))
A1357 = Alphabet((1, 3, 5, 7))


def toy_trellis():
    return build_full_trellis(TrellisParams(3, A135, 27))


class TestAlphabet:
    def test_rejects_even(self):
        with pytest.raises(ParameterError):
            Alphabet((1, 2, 3))

    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            Alphabet((3, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            Alphabet((-1, 3))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Alphabet(())

    def test_squares_on_grid(self):
        # odd squares are 1 mod 8, the property the energy grid relies on
        for a in Alphabet((1, 3, 5, 7, 9, 11)).amplitudes:
            assert (a * a) % 8 == 1


class TestParams:
    def test_emax_below_min_energy(self):
        with pytest.raises(ParameterError):
            TrellisParams(3, A135, 2)

    def test_offgrid_emax_rounds_down(self):
        p = TrellisParams(3, A135, 30)
        assert p.e_max == 27

    def test_num_final_levels(self):
        assert TrellisParams(3, A135, 27).num_final_levels == 4

    def test_band_invariants(self):
        with pytest.raises(ParameterError):
            BandParams(0, 0)
        with pytest.raises(ParameterError):
            BandParams(2, -1)

    @pytest.mark.parametrize("make", [
        lambda: Alphabet((1.9, 3)),
        lambda: TrellisParams(3.9, A135, 27),
        lambda: TrellisParams(3, A135, 27.9),
        lambda: TrellisParams(3, A135, "27"),
        lambda: BandParams(2, 1.5),
        lambda: BandParams(2.5, 1),
    ], ids=["amplitude", "n", "e_max", "e_max_text", "band_width", "band_height"])
    def test_non_integers_rejected_not_truncated(self, make):
        with pytest.raises(ParameterError, match="must be an integer"):
            make()

    def test_numpy_integers_accepted(self):
        p = TrellisParams(np.int64(3), Alphabet((np.int32(1), 3, 5)), np.int64(27))
        band = BandParams(np.int64(2), np.int8(1))
        values = (*p.alphabet.amplitudes, p.n_amplitudes, p.e_max,
                  band.height, band.width)
        assert values == (1, 3, 5, 3, 27, 2, 1)
        assert all(type(v) is int for v in values)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300),
           st.sets(st.integers(0, 400).map(lambda i: 2 * i + 1), min_size=1),
           st.integers(0, 10**7))
    def test_snapped_emax_stays_feasible(self, n, amps, extra):
        # odd squares are 1 mod 8, so n * a_min**2 is itself on the grid and
        # snapping any e_max at or above it down cannot pass it
        alphabet = Alphabet(tuple(sorted(amps)))
        floor = n * alphabet.squares[0]
        e_max = TrellisParams(n, alphabet, floor + extra).e_max
        assert (e_max - n) % 8 == 0
        assert floor <= e_max <= floor + extra < e_max + 8


class TestFullTrellis:
    def test_toy_counts(self):
        t = toy_trellis()
        assert t.num_sequences == 11
        assert len(t.levels(3)) == 4
        assert max_shaping_bits(t) == 3

    def test_single_path(self):
        t = build_full_trellis(TrellisParams(1, Alphabet((1,)), 1))
        assert t.num_sequences == 1
        assert max_shaping_bits(t) == 0

    def test_n2_bruteforce(self):
        t = build_full_trellis(TrellisParams(2, A13, 10))
        assert t.num_sequences == 3

    def test_counts_match_enumeration_grid(self):
        for n in (2, 3, 4, 5):
            for alph in (A13, A135, A1357):
                span = n * max(alph.amplitudes) ** 2 - n
                for frac in (0.0, 0.3, 0.6, 1.0):
                    e_max = n + 8 * int(frac * span / 8)
                    t = build_full_trellis(TrellisParams(n, alph, e_max))
                    assert t.num_sequences == count_sequences(
                        n, alph.amplitudes, e_max
                    )

    def test_recurrence_and_conservation(self):
        t = toy_trellis()
        n_len = t.params.n_amplitudes
        for n in range(n_len):
            for e in t.levels(n):
                children = sum(
                    t.back_count(n + 1, e + a * a) for a in t.params.alphabet.amplitudes
                )
                assert t.back_count(n, e) == children
        assert sum(t.fwd_count(n_len, e) for e in t.levels(n_len)) == t.num_sequences

    def test_grid_property(self):
        t = build_full_trellis(TrellisParams(6, A1357, 150))
        for n in range(7):
            for e in t.levels(n):
                assert e % 8 == n % 8
                assert n <= e <= min(n * 49, t.params.e_max - (6 - n))

    def test_final_back_counts_are_one(self):
        t = toy_trellis()
        assert all(t.back_count(3, e) == 1 for e in t.levels(3))

    def test_every_node_carries_a_path(self):
        # pruning soundness: paths through (n,e) = F*T >= 1 and matches enumeration
        t = toy_trellis()
        seqs = enumerate_sequences(3, (1, 3, 5), 27)
        for n in range(4):
            for e in t.levels(n):
                through = t.fwd_count(n, e) * t.back_count(n, e)
                assert through >= 1
                hits = sum(
                    1 for s in seqs if sum(a * a for a in s[:n]) == e
                )
                assert through == hits

    def test_windows_stop_at_reach(self):
        # past the cube maximum 108*49 = 5292, e_max adds no level to any column
        params = TrellisParams(108, A1357, 10**7)
        for m, (lo, hi) in enumerate(_level_windows(params, None), start=1):
            assert lo == 0 and hi <= m * (49 - 1) // 8
        for band in (BandParams(11, 0), BandParams(10**6, 2)):
            for m, (_, hi) in enumerate(_level_windows(params, band), start=1):
                assert hi <= m * (49 - 1) // 8
        cube = TrellisParams(108, A1357, 5292)
        assert table(build_full_trellis(params)) == table(build_full_trellis(cube))

    def test_alphabet_without_one(self):
        t = build_full_trellis(TrellisParams(3, Alphabet((3, 5)), 99))
        assert t.num_sequences == count_sequences(3, (3, 5), 99)

    def test_alphabet_without_one_infeasible(self):
        with pytest.raises(ParameterError):
            build_full_trellis(TrellisParams(3, Alphabet((3, 5)), 11))


class TestBandTrellis:
    def test_narrow_band_membership(self):
        # N=7, E_max=63, h=2, w=1: the flat sequence is in, the spiky one out
        seqs = enumerate_sequences(7, (1, 3, 5, 7), 63, band=(2, 1))
        assert (3, 3, 3, 3, 3, 3, 3) in seqs
        assert (7, 3, 1, 1, 1, 1, 1) not in seqs
        t = build_band_trellis(TrellisParams(7, A1357, 63), BandParams(2, 1))
        assert t.num_sequences == len(seqs)

    def test_full_cover_band_equals_full(self):
        params = TrellisParams(3, A135, 27)
        full = build_full_trellis(params)
        band = build_band_trellis(params, BandParams(4, 3))
        assert band.num_sequences == full.num_sequences
        for n in range(4):
            assert band.levels(n) == full.levels(n)
            for e in full.levels(n):
                assert band.back_count(n, e) == full.back_count(n, e)
                assert band.fwd_count(n, e) == full.fwd_count(n, e)

    def test_single_ramp(self):
        t = build_band_trellis(TrellisParams(3, A135, 27), BandParams(1, 0))
        assert t.num_sequences == 1
        assert t.levels(1) == (9,)
        assert t.levels(2) == (18,)
        assert t.levels(3) == (27,)
        seqs = enumerate_sequences(3, (1, 3, 5), 27, band=(1, 0))
        assert seqs == [(3, 3, 3)]

    def test_band_counts_match_enumeration_grid(self):
        for n in (3, 5, 7):
            for alph in (A135, A1357):
                e_max = n + 8 * ((n * (max(alph.amplitudes) ** 2 - 1) // 2) // 8)
                for h in (1, 2, 3):
                    for w in (0, 1, 2):
                        want = count_sequences(n, alph.amplitudes, e_max, band=(h, w))
                        params = TrellisParams(n, alph, e_max)
                        if want == 0:
                            with pytest.raises(EmptyCodebookError):
                                build_band_trellis(params, BandParams(h, w))
                            continue
                        t = build_band_trellis(params, BandParams(h, w))
                        assert t.num_sequences == want

    def test_band_monotone_in_height(self):
        params = TrellisParams(6, A1357, 150)
        prev = 0
        for h in range(1, 8):
            t = build_band_trellis(params, BandParams(h, 1))
            assert t.num_sequences >= prev
            prev = t.num_sequences

    def test_band_never_exceeds_full(self):
        params = TrellisParams(6, A1357, 150)
        full = build_full_trellis(params).num_sequences
        for h in (1, 2, 4):
            assert build_band_trellis(params, BandParams(h, 1)).num_sequences <= full

    def test_band_bounds_agree_with_oracle(self):
        # DP construction vs the independently coded window formulas
        params = TrellisParams(7, A1357, 63)
        t = build_band_trellis(params, BandParams(2, 1))
        for n in range(8):
            lo, hi = band_bounds(n, 7, 63, 2, 1, 7)
            for e in t.levels(n):
                assert lo <= e <= hi

    def test_tall_band_far_past_the_cube(self):
        # the ramp climbs to a million levels; no path gets past 1 level per column
        t = build_band_trellis(TrellisParams(3, A13, 8000003), BandParams(10**6, 0))
        assert table(t) == node_table(3, (1, 3), 8000003, (10**6, 0))

    def test_width_exceeding_n_rejected(self):
        with pytest.raises(ParameterError):
            build_band_trellis(TrellisParams(3, A135, 27), BandParams(2, 4))

    def test_empty_band(self):
        # alphabet {5,7} cannot land on the 41-per-column ramp at all
        with pytest.raises(EmptyCodebookError):
            build_band_trellis(TrellisParams(6, Alphabet((5, 7)), 246), BandParams(1, 0))


class TestShapingBits:
    def test_toy(self):
        assert max_shaping_bits(toy_trellis()) == 3

    def test_single(self):
        t = build_full_trellis(TrellisParams(2, Alphabet((1,)), 2))
        assert max_shaping_bits(t) == 0

    def test_two_sequences(self):
        t = build_full_trellis(TrellisParams(1, A13, 9))
        assert t.num_sequences == 2
        assert max_shaping_bits(t) == 1

    def test_bracketing(self):
        t = build_full_trellis(TrellisParams(5, A1357, 125))
        k = max_shaping_bits(t)
        assert 2**k <= t.num_sequences < 2 ** (k + 1)


class TestMinEmax:
    def test_toy_point(self):
        assert min_emax_for_bits(3, A135, 3) == 27
        # one grid step below yields only 7 sequences
        assert count_sequences(3, (1, 3, 5), 19) == 7

    def test_trivial(self):
        assert min_emax_for_bits(2, Alphabet((1,)), 0) == 2

    def test_matches_bruteforce_scan(self):
        # (3, 5): packed levels are offsets from a_min**2, not from 1
        for n, alph, k in ((4, A13, 3), (5, A135, 6), (4, A1357, 7),
                           (4, Alphabet((3, 5)), 3)):
            got = min_emax_for_bits(n, alph, k)
            grid = range(n, n * max(alph.amplitudes) ** 2 + 1, 8)
            want = next(
                e for e in grid if count_sequences(n, alph.amplitudes, e) >= 2**k
            )
            assert got == want

    def test_infeasible(self):
        with pytest.raises(InfeasibleRateError):
            min_emax_for_bits(3, A13, 4)  # 2^3 sequences max

    def test_infeasible_k_is_rejected_before_2_to_k_exists(self):
        # 2**(10**9) alone would take 125 MB
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleRateError):
                min_emax_for_bits(3, A13, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_band_variant(self):
        # frozen from the brute-force scan: first grid e_max reaching 8 sequences
        assert min_emax_for_bits(7, A1357, 3, band=BandParams(2, 1)) == 23
        t = build_band_trellis(TrellisParams(7, A1357, 23), BandParams(2, 1))
        assert max_shaping_bits(t) >= 3

    def test_band_variant_infeasible(self):
        # h=2, w=1 tops out at 13 sequences over the whole grid (oracle scan)
        with pytest.raises(InfeasibleRateError):
            min_emax_for_bits(7, A1357, 4, band=BandParams(2, 1))

    def test_offgrid_scan_from_rounds_up(self):
        # the grid for n=12 runs 76, 84, ...; 13 and 76 start the same scan
        band = BandParams(3, 1)
        assert min_emax_for_bits(12, A135, 10, band=band, scan_from=13) == 76
        assert min_emax_for_bits(12, A135, 10, band=band, scan_from=69) == 76
        assert min_emax_for_bits(12, A135, 10, band=band, scan_from=77) == 84

    def test_band_scan_starts_at_sphere_minimum(self, monkeypatch):
        # the sphere holds 2^162 from 860 on, so no band count runs below
        # it: 15 counts instead of 109 from the all-ones energy 108
        band = BandParams(11, 0)
        want = min_emax_scan(108, A1357, 162, band)
        counted = []
        count = trellis_module._count_only

        def record(params, band):
            counted.append(params.e_max)
            return count(params, band)

        monkeypatch.setattr(trellis_module, "_count_only", record)
        assert min_emax_for_bits(108, A1357, 162, band=band) == want == 972
        assert counted == list(range(860, 973, 8))

    def test_band_taller_than_every_column(self):
        # a window taller than any column's level range admits what the
        # ramp and the full-top tail allow, and the search stays as cheap
        band = BandParams(10**9, 1)
        want = min_emax_scan(7, A1357, 3, band)
        assert min_emax_for_bits(7, A1357, 3, band=band) == want == 23

    def test_n108_geometry_table(self):
        # frozen from the point-by-point scan over {1,3,5,7} at k=162, started
        # at the sphere minimum 860; None: the geometry never holds 2^162
        want = {2: (None,) * 3, 3: (None,) * 3, 4: (None,) * 3, 5: (None,) * 3,
                6: (None,) * 3, 7: (1276, 1284, 1300), 8: (1116,) * 3,
                9: (1044,) * 3, 10: (1004, 1004, 996), 11: (972,) * 3,
                12: (972, 972, 964), 13: (956,) * 3, 14: (948,) * 3,
                15: (940,) * 3, 16: (940, 932, 932)}
        got = {}
        for h in want:
            row = []
            for w in range(3):
                try:
                    row.append(min_emax_for_bits(108, A1357, 162,
                                                 band=BandParams(h, w), scan_from=860))
                except InfeasibleRateError:
                    row.append(None)
            got[h] = tuple(row)
        assert got == want


@st.composite
def search_cases(draw, max_n=10):
    """(n, alphabet, k, band, scan_from) over small alphabets drawn from
    {1,3,5,7,9}, any band, every k the cube allows, and scan_from any grid
    point up to one past the all-a_max energy."""
    n = draw(st.integers(1, max_n))
    amps = tuple(sorted(draw(st.sets(st.sampled_from((1, 3, 5, 7, 9)), min_size=1))))
    k = draw(st.integers(0, (len(amps) ** n).bit_length() - 1))
    band = draw(st.builds(BandParams, st.integers(1, n + 1), st.integers(0, n)))
    lo, hi = n * amps[0] ** 2, n * amps[-1] ** 2
    grid_point = st.integers(0, (hi - lo) // 8 + 1).map(lambda i: lo + 8 * i)
    scan_from = draw(st.none() | grid_point)
    return n, Alphabet(amps), k, band, scan_from


def search_outcome(search, n, alphabet, k, band, scan_from):
    try:
        return search(n, alphabet, k, band=band, scan_from=scan_from)
    except InfeasibleRateError:
        return InfeasibleRateError


class TestBandSearch:
    @settings(max_examples=300, deadline=None)
    @given(search_cases())
    def test_matches_point_by_point_scan(self, case):
        want = search_outcome(min_emax_scan, *case)
        assert search_outcome(min_emax_for_bits, *case) == want

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.integers(-20, 20))
    def test_offgrid_scan_from_lands_on_grid(self, case, offset):
        n, alphabet, k, band, scan_from = case
        scan_from = (scan_from or n * alphabet.squares[0]) + offset
        got = search_outcome(min_emax_for_bits, n, alphabet, k, band, scan_from)
        assert got == search_outcome(min_emax_scan, n, alphabet, k, band, scan_from)
        if got is not InfeasibleRateError:
            assert (got - n) % 8 == 0 and got >= scan_from


def table(t):
    """Node set with backward and forward counts, column by column."""
    return [[(e, t.back_count(n, e), t.fwd_count(n, e)) for e in t.levels(n)]
            for n in range(t.params.n_amplitudes + 1)]


def header(params, band):
    alphabet = ",".join(str(a) for a in params.alphabet.amplitudes)
    band_txt = f"{band.height},{band.width}" if band else "none"
    return (f"N={params.n_amplitudes} ALPHABET={alphabet} "
            f"EMAX={params.e_max} BAND={band_txt}")


def relabel(trellis, params, band):
    """The serialized trellis with its parameter line rewritten."""
    lines = serialize(trellis).splitlines()
    lines[1] = header(params, band)
    return "\n".join(lines) + "\n"


def built_or_none(params, band):
    try:
        return _build(params, band)
    except (EmptyCodebookError, ParameterError):
        return None


@st.composite
def count_cases(draw, max_n=14, past=1):
    """Small (params, band) pairs over any grid e_max up to `past` grid
    steps beyond the cube, alphabets drawn from {1,3,5,7,9} including ones
    whose smallest amplitude is not 1."""
    n = draw(st.integers(1, max_n))
    amps = tuple(sorted(draw(st.sets(st.sampled_from((1, 3, 5, 7, 9)), min_size=1))))
    lo, hi = n * amps[0] ** 2, n * amps[-1] ** 2
    e_max = lo + 8 * draw(st.integers(0, (hi - lo) // 8 + past))
    band = draw(st.none() | st.builds(BandParams, st.integers(1, n), st.integers(0, n)))
    return TrellisParams(n, Alphabet(amps), e_max), band


class TestCountOnly:
    @settings(max_examples=300, deadline=None)
    @given(count_cases())
    def test_matches_build(self, case):
        params, band = case
        try:
            want = _build(params, band).num_sequences
        except EmptyCodebookError:
            want = 0
        assert _count_only(params, band) == want

    @settings(max_examples=300, deadline=None)
    @given(count_cases())
    def test_taller_band_nests(self, case):
        # the fact the band search's downward walk over heights rests on
        params, band = case
        if band is None:
            return
        taller = BandParams(band.height + 1, band.width)
        for (lo, hi), (lo_t, hi_t) in zip(_level_windows(params, band),
                                          _level_windows(params, taller)):
            assert hi == hi_t and lo >= lo_t
        assert _count_only(params, band) <= _count_only(params, taller)

    @settings(max_examples=300, deadline=None)
    @given(count_cases(past=10**6))
    def test_band_inside_sphere(self, case):
        # one window rule: a band only raises the sphere's floor and lowers its top
        params, band = case
        if band is None:
            return
        for (lo, hi), (lo_s, hi_s) in zip(_level_windows(params, band),
                                          _level_windows(params, None)):
            assert lo >= lo_s and hi <= hi_s
        assert _count_only(params, band) <= _count_only(params, None)


class TestNodeTable:
    @settings(max_examples=150, deadline=None)
    @given(count_cases(max_n=6))
    def test_matches_enumeration(self, case):
        params, band = case
        t = built_or_none(params, band)
        want = node_table(params.n_amplitudes, params.alphabet.amplitudes, params.e_max,
                          band and (band.height, band.width))
        if t is None:
            assert not any(want)
        else:
            assert table(t) == want

    @settings(max_examples=150, deadline=None)
    @given(count_cases(max_n=6))
    def test_node_masks_match_enumeration(self, case):
        # the one node test: reached from the origin and left for the final column
        params, band = case
        want = node_table(params.n_amplitudes, params.alphabet.amplitudes, params.e_max,
                          band and (band.height, band.width))
        if not any(want):
            for make in (_nodes, _build):
                with pytest.raises(EmptyCodebookError):
                    make(params, band)
            return
        min_sq = params.alphabet.squares[0]
        got = [[m * min_sq + 8 * (base + g) for g in range(mask.bit_length()) if mask >> g & 1]
               for m, (base, mask) in enumerate(_nodes(params, band))]
        assert got == [[e for e, _, _ in column] for column in want]


class TestParseText:
    def test_alphabet(self):
        assert parse_alphabet("1,3,5") == A135
        for bad in ("1,x", "", "2,4", "3,1"):
            with pytest.raises(ParameterError, match="bad alphabet"):
                parse_alphabet(bad)

    def test_band(self):
        assert parse_band("11,0") == BandParams(11, 0)
        for bad in ("11", "1,2,3", "a,0"):
            with pytest.raises(ParameterError, match="expected H,W"):
                parse_band(bad)
        with pytest.raises(ParameterError, match="height"):
            parse_band("0,0")

    def test_header_maps_to_format_error(self):
        text = serialize(toy_trellis())
        for old, new in (("ALPHABET=1,3,5", "ALPHABET=1,x,5"),
                         ("ALPHABET=1,3,5", "ALPHABET=1,4,5"),
                         ("BAND=none", "BAND=2"), ("BAND=none", "BAND=0,1")):
            with pytest.raises(TrellisFormatError) as info:
                deserialize(text.replace(old, new, 1))
            assert isinstance(info.value.__cause__, ParameterError)


def rejection_peak(text, match):
    """Peak traced allocation, in bytes, of a load that must fail with match."""
    tracemalloc.start()
    try:
        with pytest.raises(TrellisFormatError, match=match):
            deserialize(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSerialization:
    def test_round_trip_toy(self):
        t = toy_trellis()
        u = deserialize(serialize(t))
        assert u.params == t.params
        assert u.band == t.band
        for n in range(4):
            assert u.levels(n) == t.levels(n)
            for e in t.levels(n):
                assert u.back_count(n, e) == t.back_count(n, e)
                assert u.fwd_count(n, e) == t.fwd_count(n, e)

    def test_round_trip_band(self):
        t = build_band_trellis(TrellisParams(7, A1357, 63), BandParams(2, 1))
        u = deserialize(serialize(t))
        assert u.num_sequences == t.num_sequences
        assert u.band == BandParams(2, 1)

    def test_truncated_stream(self):
        text = serialize(toy_trellis())
        with pytest.raises(TrellisFormatError):
            deserialize(text[: len(text) // 2])

    def test_version_mismatch(self):
        text = serialize(toy_trellis()).replace("ESSTRELLIS v1", "ESSTRELLIS v9")
        with pytest.raises(TrellisFormatError):
            deserialize(text)

    def test_checksum_failure(self):
        text = serialize(toy_trellis())
        lines = text.splitlines()
        lines[-1] = "END 12"
        with pytest.raises(TrellisFormatError):
            deserialize("\n".join(lines) + "\n")

    def test_malformed_counts(self):
        text = serialize(toy_trellis()).replace(" 11 ", " eleven ", 1)
        with pytest.raises(TrellisFormatError):
            deserialize(text)

    def test_tampered_count_table(self):
        text = serialize(toy_trellis())
        lines = text.splitlines()
        n, e, t_cnt, f_cnt = lines[3].split()
        lines[3] = f"{n} {e} {int(t_cnt) + 1} {f_cnt}"
        with pytest.raises(TrellisFormatError):
            deserialize("\n".join(lines) + "\n")

    def test_emax_relabel_rejected(self):
        # the toy table under a smaller EMAX would hold sequences of energy 27
        t = toy_trellis()
        for e_max in (19, 3):
            with pytest.raises(TrellisFormatError):
                deserialize(relabel(t, TrellisParams(3, A135, e_max), None))

    def test_band_relabel_rejected(self):
        # the whole 4**12 cube relabelled as a band that really holds 1 sequence
        params = TrellisParams(12, A1357, 588)
        t = build_full_trellis(params)
        assert t.num_sequences == 4**12
        assert _build(params, BandParams(2, 0)).num_sequences == 1
        with pytest.raises(TrellisFormatError):
            deserialize(relabel(t, params, BandParams(2, 0)))

    def test_short_file_rejected_before_build(self, monkeypatch):
        def no_build(params, band):
            raise AssertionError("a 3-line file must not trigger a build")

        monkeypatch.setattr(trellis_module, "_build", no_build)
        text = "ESSTRELLIS v1\nN=1000000 ALPHABET=1,3,5 EMAX=1000000 BAND=none\nEND 1\n"
        with pytest.raises(TrellisFormatError, match="truncated"):
            deserialize(text)

    def test_node_cap_stops_rebuild(self):
        # 24 lines whose header defines 246,431 nodes: no packed pass runs
        amps = ",".join(str(a) for a in range(1, 100, 2))
        lines = ["ESSTRELLIS v1", f"N=20 ALPHABET={amps} EMAX=196020 BAND=none"]
        lines += ["0 0 1 1"] * 21 + ["END 1"]
        with pytest.raises(TrellisFormatError, match="over 21 nodes"):
            deserialize("\n".join(lines) + "\n")

    def test_large_amplitude_allocates_little(self):
        # a 90-byte file: no shifted column copy may outgrow the window
        text = ("ESSTRELLIS v1\nN=3 ALPHABET=1,9999 EMAX=27 BAND=none\n"
                + "0 0 1 1\n" * 4 + "END 1\n")
        assert rejection_peak(text, "line 4") < 1 << 20

    def test_tall_band_header_allocates_little(self):
        # a 101-byte file: a band window stops at the reach, not at EMAX
        text = ("ESSTRELLIS v1\nN=3 ALPHABET=1,3 EMAX=8000000003 BAND=10000000,0\n"
                + "0 0 1 1\n" * 4 + "END 1\n")
        assert rejection_peak(text, "no trellis") < 1 << 20

    def test_sparse_alphabet_counts_nodes_before_unpacking(self):
        # a 96-byte file whose windows hold 3 million levels a column
        text = ("ESSTRELLIS v1\nN=3 ALPHABET=1,4999 EMAX=74970003 BAND=none\n"
                + "0 0 1 1\n" * 4 + "END 1\n")
        start = time.perf_counter()
        with pytest.raises(TrellisFormatError, match="over 4 nodes"):
            deserialize(text)
        assert time.perf_counter() - start < 1.0

    def test_dense_alphabet_counts_nodes_before_packed_passes(self):
        # a 732-byte file whose header defines 4.0 million nodes over 100 letters
        amps = ",".join(str(a) for a in range(1, 200, 2))
        text = (f"ESSTRELLIS v1\nN=40 ALPHABET={amps} EMAX={40 * 199**2} BAND=none\n"
                + "0 0 1 1\n" * 42)
        start = time.perf_counter()
        with pytest.raises(TrellisFormatError, match="over 41 nodes"):
            deserialize(text)
        assert time.perf_counter() - start < 0.5
        assert rejection_peak(text, "over 41 nodes") < 50 << 20

    def test_sparse_alphabet_round_trip(self):
        # 10 nodes spread over windows of up to 9.4 million levels
        params = TrellisParams(3, Alphabet((1, 4999)), 74970003)
        start = time.perf_counter()
        t = build_full_trellis(params)
        assert time.perf_counter() - start < 1.0
        text = serialize(t)
        start = time.perf_counter()
        u = deserialize(text)
        assert time.perf_counter() - start < 1.0
        assert len(text) == 186 and t.num_sequences == 8
        assert table(u) == table(t)

    def test_header_without_codebook(self):
        # an empty band and a band wider than N: valid tables, impossible headers
        empty, toy = TrellisParams(6, Alphabet((5, 7)), 246), TrellisParams(3, A135, 27)
        cases = (
            (build_full_trellis(empty), empty, BandParams(1, 0), EmptyCodebookError),
            (toy_trellis(), toy, BandParams(2, 4), ParameterError),
        )
        for t, params, band, cause in cases:
            with pytest.raises(TrellisFormatError) as info:
                deserialize(relabel(t, params, band))
            assert isinstance(info.value.__cause__, cause)

    @settings(max_examples=200, deadline=None)
    @given(count_cases())
    def test_round_trip_property(self, case):
        params, band = case
        t = built_or_none(params, band)
        if t is None:
            return
        u = deserialize(serialize(t))
        assert (u.params, u.band) == (params, band)
        assert table(u) == table(t)

    @settings(max_examples=200, deadline=None)
    @given(count_cases(), st.data())
    def test_relabel_property(self, case, data):
        params, band = case
        t = built_or_none(params, band)
        if t is None:
            return
        n = params.n_amplitudes
        squares = params.alphabet.squares
        if data.draw(st.booleans(), label="relabel EMAX"):
            lo, hi = n * squares[0], n * squares[-1]
            e_max = lo + 8 * data.draw(st.integers(0, (hi - lo) // 8 + 1))
            params = TrellisParams(n, params.alphabet, e_max)
        else:
            band = data.draw(st.none() | st.builds(
                BandParams, st.integers(1, n + 1), st.integers(0, n + 1)))
        text = relabel(t, params, band)
        rebuilt = built_or_none(params, band)
        if rebuilt is None or table(rebuilt) != table(t):
            with pytest.raises(TrellisFormatError):
                deserialize(text)
        else:
            u = deserialize(text)
            assert (u.params, u.band) == (params, band)
            assert table(u) == table(t)

    @settings(max_examples=200, deadline=None)
    @given(count_cases(), st.data())
    def test_encode_decode_bijection(self, case, data):
        params, band = case
        t = built_or_none(params, band)
        if t is None:
            return
        u = deserialize(serialize(t))
        for i in data.draw(st.lists(st.integers(0, t.num_sequences - 1),
                                    min_size=1, max_size=8, unique=True)):
            seq = encode_index(u, i)
            assert sum(a * a for a in seq) <= params.e_max
            assert decode_index(u, seq) == i

    def test_large_block_round_trip(self):
        # rate-1.5 codebook at n=108: counts far past 64 bits survive the trip
        t = build_full_trellis(TrellisParams(108, A1357, 860))
        u = deserialize(serialize(t))
        assert u.num_sequences == t.num_sequences
        assert u.num_sequences >= 1 << 162
