"""Lexicographic index <-> amplitude-sequence mapping over a trellis.

The same walk serves full and band trellises: at each node the child counts
tell how many sequences start with each candidate amplitude, so an index is
located by skipping whole subtrees in ascending amplitude order. All
arithmetic is integer-exact.

The shaping codebook uses the lexicographically first 2**k sequences. A
k-bit block is carried as its integer value, which is the index of its
sequence; payloads are cut into blocks MSB-first, so integer order equals
bit-string order.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator

from .errors import (
    FramingError,
    IndexRangeError,
    InvalidSequenceError,
    OutOfCodebookError,
    ParameterError,
)
from .trellis import Trellis, _integer, max_shaping_bits


def encode_index(trellis: Trellis, index: int) -> tuple[int, ...]:
    """Sequence at position `index` in lexicographic order (0-based)."""
    index = _integer(index, "index")
    total = trellis.num_sequences
    if not 0 <= index < total:
        raise IndexRangeError(f"index {index} outside [0, {total})")
    alphabet = trellis.params.alphabet
    steps = tuple(zip(alphabet.amplitudes, alphabet.squares))
    remainder = index
    energy = 0
    out = []
    for column in trellis.back_columns[1:]:
        for a, s in steps:
            count = column.get(energy + s)
            if count is None:
                continue
            if remainder < count:
                out.append(a)
                energy += s
                break
            remainder -= count
        else:  # pragma: no cover - children always sum to the parent count
            raise AssertionError("count table inconsistent")
    return tuple(out)


def decode_index(trellis: Trellis, seq) -> int:
    """Inverse of encode_index: sums the counts of all smaller branches."""
    try:  # never truncated from a float (numpy integers pass)
        values = tuple(map(operator.index, seq))
    except TypeError:
        raise InvalidSequenceError(f"amplitudes must be integers, got {seq!r}") from None
    n_len = trellis.params.n_amplitudes
    if len(values) != n_len:
        raise InvalidSequenceError(f"expected {n_len} amplitudes, got {len(values)}")
    amps, squares = trellis.params.alphabet.amplitudes, trellis.params.alphabet.squares
    # each amplitude's square, and the squares of the amplitudes below it
    below = {a: (s, squares[:i]) for i, (a, s) in enumerate(zip(amps, squares))}
    index = 0
    energy = 0
    for n, (v, column) in enumerate(zip(values, trellis.back_columns[1:])):
        if v not in below:
            raise InvalidSequenceError(f"amplitude {v} not in alphabet at position {n}")
        square, smaller = below[v]
        for s in smaller:
            index += column.get(energy + s, 0)
        energy += square
        if energy not in column:
            raise InvalidSequenceError(
                f"prefix {values[: n + 1]} leaves the trellis at column {n + 1}"
            )
    return index


def shape(trellis: Trellis, index: int) -> tuple[int, ...]:
    """Map one k-bit block, given as its integer value, to its sequence."""
    k = max_shaping_bits(trellis)
    if not 0 <= index < 1 << k:
        raise ParameterError(f"block {index} does not fit in k={k} bits")
    return encode_index(trellis, index)


def deshape(trellis: Trellis, seq) -> int:
    """Map an amplitude sequence back to its k-bit block's integer value."""
    k = max_shaping_bits(trellis)
    index = decode_index(trellis, seq)
    if index >= (1 << k):
        raise OutOfCodebookError(
            f"sequence has index {index} >= 2**{k}; in the trellis but unused"
        )
    return index


def shape_stream(trellis: Trellis, data: bytes) -> Iterator[tuple[int, ...]]:
    """Check a payload's framing now, then shape its MSB-first k-bit blocks
    lazily: a trailing partial block raises FramingError; nothing is padded."""
    k = max_shaping_bits(trellis)
    blocks = whole_blocks(k, len(data))
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    return (shape(trellis, int(bits[i * k:(i + 1) * k], 2)) for i in range(blocks))


def blocks_to_bytes(k: int, blocks: Iterable[int]) -> bytes:
    """Pack block values, each in [0, 2**k), MSB-first: shape_stream's framing
    inverted, the last byte zero-padded where the bits do not fill it."""
    values = list(blocks)
    if any(not 0 <= v < 1 << k for v in values):
        raise ParameterError(f"a block does not fit in k={k} bits")
    # format() cannot print zero digits, so a k=0 block needs the branch
    bits = "".join(format(v, f"0{k}b") for v in values) if k else ""
    pad = -len(bits) % 8
    # the leading "0" lets an empty payload parse, to no bytes
    return int("0" + bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")


def whole_blocks(k: int, n_bytes: int) -> int:
    """Number of k-bit blocks in an n_bytes payload.

    Raises FramingError when bits are left over (k = 0: any byte at all).
    """
    k, n_bits = _integer(k, "k"), 8 * _integer(n_bytes, "n_bytes")
    blocks = n_bits // k if k else 0
    trailing = n_bits - blocks * k
    if trailing:
        raise FramingError(f"{trailing} trailing bits do not fill a k={k} block")
    return blocks
