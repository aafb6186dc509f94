import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandshape.codec import (
    blocks_to_bytes,
    decode_index,
    deshape,
    encode_index,
    shape,
    shape_stream,
)
from bandshape.errors import (
    FramingError,
    IndexRangeError,
    InvalidSequenceError,
    OutOfCodebookError,
    ParameterError,
)
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    max_shaping_bits,
)

from oracles import GAPPED, bits_to_bytes, enumerate_sequences, index_to_bits, node_table

A13 = Alphabet((1, 3))
A135 = Alphabet((1, 3, 5))
A1357 = Alphabet((1, 3, 5, 7))


@pytest.fixture(scope="module")
def toy():
    return build_full_trellis(TrellisParams(3, A135, 27))


@pytest.fixture(scope="module")
def narrow_band():
    return build_band_trellis(TrellisParams(7, A1357, 63), BandParams(2, 1))


class TestEncodeIndex:
    def test_first(self, toy):
        assert encode_index(toy, 0) == (1, 1, 1)

    def test_dashed_path(self, toy):
        seq = encode_index(toy, 7)
        assert seq == (3, 1, 3)
        assert sum(a * a for a in seq) == 19

    def test_last(self, toy):
        assert encode_index(toy, 10) == (5, 1, 1)

    def test_out_of_range(self, toy):
        with pytest.raises(IndexRangeError):
            encode_index(toy, 11)
        with pytest.raises(IndexRangeError):
            encode_index(toy, -1)
        with pytest.raises(ParameterError, match="integer"):
            encode_index(toy, 2.5)  # not read as index 2
        assert encode_index(toy, np.int64(7)) == (3, 1, 3)

    def test_order_matches_enumeration(self, toy):
        want = enumerate_sequences(3, (1, 3, 5), 27)
        got = [encode_index(toy, i) for i in range(toy.num_sequences)]
        assert got == want

    def test_band_order_matches_enumeration(self, narrow_band):
        want = enumerate_sequences(7, (1, 3, 5, 7), 63, band=(2, 1))
        got = [encode_index(narrow_band, i)
               for i in range(narrow_band.num_sequences)]
        assert got == want

    def test_energy_bound(self, toy):
        for i in range(toy.num_sequences):
            assert sum(a * a for a in encode_index(toy, i)) <= toy.params.e_max


class TestDecodeIndex:
    def test_first(self, toy):
        assert decode_index(toy, (1, 1, 1)) == 0

    def test_dashed_path(self, toy):
        assert decode_index(toy, (3, 1, 3)) == 7

    def test_round_trip_all(self, toy):
        for i in range(toy.num_sequences):
            assert decode_index(toy, encode_index(toy, i)) == i

    def test_not_in_band(self, narrow_band):
        with pytest.raises(InvalidSequenceError):
            decode_index(narrow_band, (7, 3, 1, 1, 1, 1, 1))

    def test_energy_overflow(self, toy):
        with pytest.raises(InvalidSequenceError):
            decode_index(toy, (5, 5, 5))

    def test_symbol_outside_alphabet(self, toy):
        with pytest.raises(InvalidSequenceError):
            decode_index(toy, (1, 2, 1))
        with pytest.raises(InvalidSequenceError, match="integers"):
            decode_index(toy, (3.9, 1.2, 3.7))  # not read as (3, 1, 3), index 7

    def test_wrong_length(self, toy):
        with pytest.raises(InvalidSequenceError):
            decode_index(toy, (1, 1))


class TestShapeDeshape:
    def test_zero_block(self, toy):
        assert shape(toy, 0b000) == (1, 1, 1)

    def test_all_ones_block(self, toy):
        assert shape(toy, 0b111) == (3, 1, 3)

    def test_round_trip_every_block(self, toy):
        k = max_shaping_bits(toy)
        for i in range(2**k):
            assert deshape(toy, shape(toy, i)) == i

    def test_out_of_codebook(self, toy):
        with pytest.raises(OutOfCodebookError):
            deshape(toy, (5, 1, 1))  # index 10 >= 2**3

    def test_wrong_block_length(self, toy):
        # 8 needs four bits; k=3, although index 8 is in the trellis
        with pytest.raises(ParameterError):
            shape(toy, 0b1000)

    def test_non_binary_block(self, toy):
        # a block is the value of k bits, so it is never negative
        with pytest.raises(ParameterError):
            shape(toy, -1)
        with pytest.raises(ParameterError, match="integer"):
            shape(toy, 2.5)
        assert shape(toy, np.int64(7)) == (3, 1, 3)


class TestShapeStream:
    def test_two_blocks(self, toy):
        # 24 bits, MSB first: blocks 000, 111, then six 000 blocks
        out = list(shape_stream(toy, bytes([0b00011100, 0, 0])))
        assert out == [(1, 1, 1), (3, 1, 3)] + [(1, 1, 1)] * 6

    def test_empty(self, toy):
        assert list(shape_stream(toy, b"")) == []

    def test_partial_block(self, toy):
        # 8 bits, k=3: two trailing bits, raised when called, before the
        # result is iterated
        with pytest.raises(FramingError):
            shape_stream(toy, b"\x1f")

    def test_many_random_blocks_round_trip(self):
        import random

        trellis = build_full_trellis(TrellisParams(12, A1357, 236))
        k = max_shaping_bits(trellis)
        rng = random.Random(1234)
        blocks = [rng.getrandbits(k) for _ in range(10_000)]
        payload = bits_to_bytes([b for i in blocks for b in index_to_bits(i, k)])
        got = list(shape_stream(trellis, payload))
        assert len(got) == len(blocks)
        for block, seq in zip(blocks, got):
            assert deshape(trellis, seq) == block


# (n, alphabet, e_max, band) of trellises with k = 0, 3 and 5; the last has
# gaps between the nodes of its columns
FRAMED = ((1, (1,), 1, None), (3, (1, 3, 5), 27, None), GAPPED[3])


class TestFraming:
    """shape_stream's framing and its inverse, blocks_to_bytes, against the
    per-bit packers of the oracles."""

    @pytest.fixture(scope="class", params=FRAMED, ids=["k0", "toy", "gapped"])
    def framed(self, request):
        return _gapped_trellis(*request.param)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_whole_bytes_round_trip(self, framed, data):
        k = max_shaping_bits(framed)
        unit = math.lcm(k, 8) // 8  # bytes in the smallest whole-block payload
        payload = data.draw(st.lists(st.binary(min_size=unit, max_size=unit),
                                     max_size=4).map(b"".join))
        blocks = [deshape(framed, seq) for seq in shape_stream(framed, payload)]
        assert len(blocks) * k == 8 * len(payload)
        assert blocks_to_bytes(k, blocks) == payload

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_partial_byte_zero_padded(self, framed, data):
        k = max_shaping_bits(framed)
        blocks = data.draw(st.lists(st.integers(0, (1 << k) - 1), max_size=20))
        sequences = [shape(framed, b) for b in blocks]
        want = bits_to_bytes([bit for b in blocks for bit in index_to_bits(b, k)])
        assert blocks_to_bytes(k, (deshape(framed, s) for s in sequences)) == want

    @pytest.mark.parametrize("k, blocks", [(3, [1, 8]), (3, [-1]), (0, [0, 1])])
    def test_block_outside_k_bits_rejected(self, k, blocks):
        # 8 would take four bits and shift every later block by one
        with pytest.raises(ParameterError, match=f"k={k}"):
            blocks_to_bytes(k, blocks)


class TestBijectivityGrid:
    def test_small_grid(self):
        for n, alph, e_max in ((4, A135, 44), (5, A13, 29), (6, A1357, 102)):
            t = build_full_trellis(TrellisParams(n, alph, e_max))
            seen = set()
            for i in range(t.num_sequences):
                seq = encode_index(t, i)
                assert seq not in seen
                seen.add(seq)
                assert decode_index(t, seq) == i
            assert len(seen) == t.num_sequences


def _gapped_trellis(n, amps, e_max, band):
    params = TrellisParams(n, Alphabet(amps), e_max)
    if band is None:
        return build_full_trellis(params)
    return build_band_trellis(params, BandParams(*band))


class TestGappedColumns:
    @pytest.mark.parametrize("n, amps, e_max, band", GAPPED)
    def test_columns_have_gaps(self, n, amps, e_max, band):
        table = node_table(n, amps, e_max, band)
        assert any(b - a > 8 for column in table
                   for (a, *_), (b, *_) in zip(column, column[1:]))

    @pytest.mark.parametrize("n, amps, e_max, band", GAPPED)
    def test_encode_matches_enumeration(self, n, amps, e_max, band):
        t = _gapped_trellis(n, amps, e_max, band)
        want = enumerate_sequences(n, amps, e_max, band)
        assert [encode_index(t, i) for i in range(t.num_sequences)] == want

    @pytest.mark.parametrize("n, amps, e_max, band", GAPPED)
    def test_decode_round_trips_and_rejects_the_rest(self, n, amps, e_max, band):
        t = _gapped_trellis(n, amps, e_max, band)
        index = {seq: i for i, seq in enumerate(enumerate_sequences(n, amps, e_max, band))}
        for seq in itertools.product(amps, repeat=n):
            if seq in index:
                assert decode_index(t, seq) == index[seq]
            else:
                with pytest.raises(InvalidSequenceError):
                    decode_index(t, seq)

    def test_prefix_between_nodes(self):
        # column 4 holds energies 4, 20, 28 and 36; the prefix 1,1,1,3 lands
        # on 12, a grid level inside the band window that no sequence crosses
        n, amps, e_max, band = 6, (1, 3, 9), 86, (8, 1)
        levels = [e for e, _, _ in node_table(n, amps, e_max, band)[4]]
        assert levels[0] < 12 < levels[-1] and 12 not in levels
        t = _gapped_trellis(n, amps, e_max, band)
        with pytest.raises(InvalidSequenceError, match="column 4"):
            decode_index(t, (1, 1, 1, 3, 1, 1))
