import pytest

from bandshape.codec import (
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

from oracles import bits_to_bytes, enumerate_sequences, index_to_bits

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


class TestShapeStream:
    def test_two_blocks(self, toy):
        # 24 bits, MSB first: blocks 000, 111, then six 000 blocks
        out = []
        n = shape_stream(toy, bytes([0b00011100, 0, 0]), out.append)
        assert n == 8
        assert out == [(1, 1, 1), (3, 1, 3)] + [(1, 1, 1)] * 6

    def test_empty(self, toy):
        out = []
        assert shape_stream(toy, b"", out.append) == 0
        assert out == []

    def test_partial_block(self, toy):
        # 8 bits, k=3: two trailing bits, raised before the two whole blocks
        out = []
        with pytest.raises(FramingError):
            shape_stream(toy, b"\x1f", out.append)
        assert out == []

    def test_many_random_blocks_round_trip(self):
        import random

        trellis = build_full_trellis(TrellisParams(12, A1357, 236))
        k = max_shaping_bits(trellis)
        rng = random.Random(1234)
        blocks = [rng.getrandbits(k) for _ in range(10_000)]
        payload = bits_to_bytes([b for i in blocks for b in index_to_bits(i, k)])
        got = []
        shape_stream(trellis, payload, got.append)
        assert len(got) == len(blocks)
        for block, seq in zip(blocks, got):
            assert deshape(trellis, seq) == block


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
