import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    _count_occurrences,
    _count_only,
    _level_windows,
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
    forward_columns,
    min_emax_scan,
    node_lines,
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

    def test_squares_computed_once_and_not_compared(self):
        a, b = Alphabet((1, 3, 5)), Alphabet((1, 3, 5))
        assert a.squares == (1, 9, 25) and a.squares is a.squares
        # a cached squares tuple changes neither equality, hashing nor repr
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert {a: 1}[b] == 1 and a != Alphabet((1, 3, 7))


class TestParams:
    def test_emax_below_min_energy(self):
        with pytest.raises(ParameterError):
            TrellisParams(3, A135, 2)

    def test_no_amplitudes_rejected(self):
        with pytest.raises(ParameterError, match="n_amplitudes must be >= 1"):
            TrellisParams(0, A135, 0)

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
                    t.back_columns[n + 1].get(e + a * a, 0)
                    for a in t.params.alphabet.amplitudes
                )
                assert t.back_columns[n].get(e, 0) == children
        assert sum(forward_columns(t)[n_len].values()) == t.num_sequences

    def test_grid_property(self):
        t = build_full_trellis(TrellisParams(6, A1357, 150))
        for n in range(7):
            for e in t.levels(n):
                assert e % 8 == n % 8
                assert n <= e <= min(n * 49, t.params.e_max - (6 - n))

    def test_final_back_counts_are_one(self):
        t = toy_trellis()
        assert all(t.back_columns[3].get(e, 0) == 1 for e in t.levels(3))

    def test_every_node_carries_a_path(self):
        # pruning soundness: paths through (n,e) = F*T >= 1 and matches enumeration
        t = toy_trellis()
        seqs = enumerate_sequences(3, (1, 3, 5), 27)
        fwd = forward_columns(t)
        for n in range(4):
            for e in t.levels(n):
                through = fwd[n].get(e, 0) * t.back_columns[n].get(e, 0)
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
        band_fwd, full_fwd = forward_columns(band), forward_columns(full)
        for n in range(4):
            assert band.levels(n) == full.levels(n)
            for e in full.levels(n):
                assert band.back_columns[n].get(e, 0) == full.back_columns[n].get(e, 0)
                assert band_fwd[n].get(e, 0) == full_fwd[n].get(e, 0)

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

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 14),
           st.sets(st.sampled_from((1, 3, 5, 7, 9)), min_size=1),
           st.integers(1, 8))
    def test_final_column_floor(self, data, n, amps, h):
        # every sequence ends within 8*(h-1) of e_max, the energy floor that
        # find_band_operating_point prunes on; its searches stay at or below
        # n * a_max**2, where the final window's top is e_max itself
        alphabet = Alphabet(tuple(sorted(amps)))
        lo, hi = n * alphabet.squares[0], n * alphabet.squares[-1]
        e_max = lo + 8 * data.draw(st.integers(0, (hi - lo) // 8), label="level")
        w = data.draw(st.integers(0, n), label="width")
        try:
            t = build_band_trellis(TrellisParams(n, alphabet, e_max), BandParams(h, w))
        except EmptyCodebookError:
            return
        assert min(t.back_columns[-1]) >= e_max - 8 * (h - 1)

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
        assert min_emax_for_bits(np.int64(2), Alphabet((1,)), np.int64(0)) == 2
        for n, k in ((3.0, 0), (2, 2.0)):
            with pytest.raises(ParameterError, match="integer"):
                min_emax_for_bits(n, A135, k)
        with pytest.raises(ParameterError, match="scan_from must be an integer"):
            min_emax_for_bits(7, A1357, 3, BandParams(2, 1), scan_from=7.5)

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

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError, match="k must be >= 0"):
            min_emax_for_bits(3, A13, -1)

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
    fwd = forward_columns(t)
    return [[(e, t.back_columns[n].get(e, 0), fwd[n].get(e, 0)) for e in t.levels(n)]
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

    def test_count_passes_hold_one_column_at_a_time(self):
        # the N=432 sphere's packed columns grow to 361 levels of 874 bits;
        # a count pass that kept every column peaked at 17.5 MB
        params = TrellisParams(432, A1357, min_emax_for_bits(432, A1357, 648))
        assert traced_peak(_count_only, params, None) < 4 << 20
        assert traced_peak(_count_occurrences, params, None) < 4 << 20


class TestNodeTable:
    # examples with reached levels that lead to no final level, which a
    # build drops: 7 nodes of 10 reached levels, then oracles.GAPPED's two
    # banded cases, whose columns have gaps (the second has 1 such level)
    @settings(max_examples=150, deadline=None)
    @given(count_cases(max_n=6))
    @example((TrellisParams(5, A135, 69), BandParams(2, 1)))
    @example((TrellisParams(7, Alphabet((1, 7)), 199), BandParams(13, 1)))
    @example((TrellisParams(6, Alphabet((1, 3, 9)), 86), BandParams(8, 1)))
    def test_matches_enumeration(self, case):
        params, band = case
        t = built_or_none(params, band)
        want = node_table(params.n_amplitudes, params.alphabet.amplitudes, params.e_max,
                          band and (band.height, band.width))
        if t is None:
            assert not any(want)
        else:
            assert table(t) == want


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

    @pytest.mark.parametrize("old, new", [
        ("EMAX=27", "EMAX=28"),  # off the grid: snapped to 27, so line 2 differs
        ("BAND=none", "BAND=none X=1"),
        ("N=3", "N=3 N=3"),
        ("N=3", "N"),
        (" BAND=none", ""),
    ])
    def test_header_rejected(self, old, new):
        # only N, ALPHABET, EMAX and BAND are read; the line compare decides the rest
        with pytest.raises(TrellisFormatError, match="line 2"):
            deserialize(serialize(toy_trellis()).replace(old, new, 1))


def traced_peak(call, *args):
    """Peak traced allocation, in bytes, of call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rejection_peak(text, match):
    """Peak traced allocation, in bytes, of a load that must fail with match."""
    def load():
        with pytest.raises(TrellisFormatError, match=match):
            deserialize(text)
    return traced_peak(load)


# the toy trellis in format v1, whose node lines also held the forward count
TOY_V1 = ("ESSTRELLIS v1\nN=3 ALPHABET=1,3,5 EMAX=27 BAND=none\n"
          "0 0 11 1\n1 1 6 1\n1 9 4 1\n1 25 1 1\n2 2 3 1\n2 10 2 2\n2 18 2 1\n"
          "2 26 1 2\n3 3 1 1\n3 11 1 3\n3 19 1 3\n3 27 1 4\nEND 11\n")
# the same trellis in format v2, whose node lines held the backward count only
TOY_V2 = ("ESSTRELLIS v2\nN=3 ALPHABET=1,3,5 EMAX=27 BAND=none\n"
          "0 0 11\n1 1 6\n1 9 4\n1 25 1\n2 2 3\n2 10 2\n2 18 2\n"
          "2 26 1\n3 3 1\n3 11 1\n3 19 1\n3 27 1\nEND 11\n")

class TestSerialization:
    def test_round_trip_toy(self):
        t = toy_trellis()
        u = deserialize(serialize(t))
        assert u.params == t.params
        assert u.band == t.band
        u_fwd, t_fwd = forward_columns(u), forward_columns(t)
        for n in range(4):
            assert u.levels(n) == t.levels(n)
            for e in t.levels(n):
                assert u.back_columns[n].get(e, 0) == t.back_columns[n].get(e, 0)
                assert u_fwd[n].get(e, 0) == t_fwd[n].get(e, 0)

    def test_round_trip_band(self):
        t = build_band_trellis(TrellisParams(7, A1357, 63), BandParams(2, 1))
        u = deserialize(serialize(t))
        assert u.num_sequences == t.num_sequences
        assert u.band == BandParams(2, 1)

    def test_serialized_toy_is_three_lines(self):
        assert serialize(toy_trellis()) == (
            "ESSTRELLIS v3\nN=3 ALPHABET=1,3,5 EMAX=27 BAND=none\nEND 11\n")

    def test_truncated_stream(self):
        # a missing line: the END line, or everything after the magic
        lines = serialize(toy_trellis()).splitlines()
        for kept in (lines[:2], lines[:1]):
            with pytest.raises(TrellisFormatError, match="a v3 file has 3"):
                deserialize("\n".join(kept) + "\n")

    def test_version_mismatch(self):
        text = serialize(toy_trellis()).replace("ESSTRELLIS v3", "ESSTRELLIS v9")
        with pytest.raises(TrellisFormatError):
            deserialize(text)

    def test_v1_file_rejected(self):
        with pytest.raises(TrellisFormatError, match="expected 'ESSTRELLIS v3'"):
            deserialize(TOY_V1)

    def test_v2_file_rejected(self):
        assert TOY_V2.splitlines()[2:-1] == node_lines(toy_trellis())
        with pytest.raises(TrellisFormatError, match="expected 'ESSTRELLIS v3'"):
            deserialize(TOY_V2)

    # SHA-256 of the format-v1 files of `trellis build --n 108 --alphabet
    # 1,3,5,7 --bits 162`, without and with `--band 11,0`
    @pytest.mark.parametrize("band, v1_sha256", [
        (None, "e29145707fcd70ae87a11b29a478e8dc0d1cb9a23f8bf6c7a01359d203aa6b48"),
        (BandParams(11, 0), "69a0bd2f714fb06fa2fc059917f6f0d0da54a4ae5ee84e1f3c72860882d3e042"),
    ], ids=["ess", "band11,0"])
    def test_n108_files_are_v1_without_forward_counts(self, band, v1_sha256):
        # v1 rebuilt from the v3 header, the node lines of the trellis that
        # header defines and the forward counts over its nodes: a v3 file
        # pins its codebook only through this hash
        e_max = min_emax_for_bits(108, A1357, 162, band=band)
        t = _build(TrellisParams(108, A1357, e_max), band)
        fwd = forward_columns(t)
        lines = serialize(t).splitlines()
        assert len(lines) == 3 and lines[0] == "ESSTRELLIS v3"
        v1 = ["ESSTRELLIS v1", lines[1]]
        for line in node_lines(t):
            n, e, _ = line.split()
            v1.append(f"{line} {fwd[int(n)][int(e)]}")
        v1.append(lines[-1])
        assert hashlib.sha256(("\n".join(v1) + "\n").encode()).hexdigest() == v1_sha256

    def test_checksum_failure(self):
        text = serialize(toy_trellis())
        lines = text.splitlines()
        lines[-1] = "END 12"
        with pytest.raises(TrellisFormatError):
            deserialize("\n".join(lines) + "\n")

    def test_malformed_counts(self):
        for end in ("END eleven", "END 11 11", "END", "END 011"):
            text = serialize(toy_trellis()).replace("END 11", end, 1)
            with pytest.raises(TrellisFormatError, match="line 3"):
                deserialize(text)

    def test_tampered_count_table(self):
        # an extra line: the v2 node table under a v3 header, or one blank line
        t = toy_trellis()
        lines = serialize(t).splitlines()
        for extra in (lines[:2] + node_lines(t) + lines[2:], lines + [""]):
            with pytest.raises(TrellisFormatError, match="a v3 file has 3"):
                deserialize("\n".join(extra) + "\n")

    def test_emax_relabel_rejected(self):
        # the toy file under a smaller EMAX: its END exceeds that header's total
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

    def test_large_amplitude_allocates_little(self):
        # a valid one-sequence file: no shifted column copy may outgrow the window
        text = "ESSTRELLIS v3\nN=3 ALPHABET=1,9999 EMAX=27 BAND=none\nEND 1\n"
        assert traced_peak(deserialize, text) < 1 << 20
        assert deserialize(text).num_sequences == 1

    def test_tall_band_header_allocates_little(self):
        # a 69-byte file: a band window stops at the reach, not at EMAX
        text = "ESSTRELLIS v3\nN=3 ALPHABET=1,3 EMAX=8000000003 BAND=10000000,0\nEND 1\n"
        assert len(text) == 69
        assert rejection_peak(text, "no trellis") < 1 << 20

    def test_load_builds_once(self, monkeypatch):
        # one reach pass and one count walk per load, however the file is checked
        text = serialize(_build(TrellisParams(108, A1357, 972), BandParams(11, 0)))
        calls = {}
        for name in ("_build", "_forward"):
            def counted(*args, _real=getattr(trellis_module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(trellis_module, name, counted)
        assert deserialize(text).num_sequences >= 1 << 162
        assert calls == {"_build": 1, "_forward": 1}

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
        assert len(text) == 64 and t.num_sequences == 8
        assert table(u) == table(t)
        # counts are summed over the nodes, not over every level of a window
        assert traced_peak(build_full_trellis, params) < 16 << 20
        assert traced_peak(deserialize, text) < 16 << 20

    def test_long_alphabet_round_trip(self):
        # 100,000 amplitudes: a node sums its children side by side, so the
        # alphabet's length sets no nesting depth
        params = TrellisParams(1, Alphabet(tuple(range(1, 200000, 2))), 1)
        t = build_full_trellis(params)
        assert [dict(column) for column in t.back_columns] == [{0: 1}, {1: 1}]
        assert table(deserialize(serialize(t))) == table(t)

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
        # the header decides the codebook; only the END total can disagree
        if rebuilt is None or rebuilt.num_sequences != t.num_sequences:
            with pytest.raises(TrellisFormatError):
                deserialize(text)
        else:
            u = deserialize(text)
            assert (u.params, u.band) == (params, band)
            assert table(u) == table(rebuilt)

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
