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
from typing import Callable

from .errors import (
    FramingError,
    IndexRangeError,
    InvalidSequenceError,
    OutOfCodebookError,
    ParameterError,
)
from .trellis import Trellis, max_shaping_bits


def encode_index(trellis: Trellis, index: int) -> tuple[int, ...]:
    """Sequence at position `index` in lexicographic order (0-based)."""
    total = trellis.num_sequences
    if not 0 <= index < total:
        raise IndexRangeError(f"index {index} outside [0, {total})")
    amps = trellis.params.alphabet.amplitudes
    squares = trellis.params.alphabet.squares
    remainder = index
    energy = 0
    out = []
    for n in range(trellis.params.n_amplitudes):
        for a, s in zip(amps, squares):
            count = trellis.back_count(n + 1, energy + s)
            if count == 0:
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
    amps = trellis.params.alphabet.amplitudes
    squares = trellis.params.alphabet.squares
    index = 0
    energy = 0
    for n, v in enumerate(values):
        if v not in amps:
            raise InvalidSequenceError(f"amplitude {v} not in alphabet at position {n}")
        for a, s in zip(amps, squares):
            if a == v:
                break
            index += trellis.back_count(n + 1, energy + s)
        energy += v * v
        if not trellis.back_count(n + 1, energy):
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


def shape_stream(trellis: Trellis, data: bytes,
                 block_handler: Callable[[tuple[int, ...]], None]) -> int:
    """Cut a payload into MSB-first k-bit blocks and shape each in order.

    Returns the number of blocks emitted. A trailing partial block raises
    FramingError before any block is emitted; nothing is padded implicitly.
    """
    k = max_shaping_bits(trellis)
    blocks = whole_blocks(k, len(data))
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    for i in range(blocks):
        block_handler(shape(trellis, int(bits[i * k:(i + 1) * k], 2)))
    return blocks


def whole_blocks(k: int, n_bytes: int) -> int:
    """Number of k-bit blocks in an n_bytes payload.

    Raises FramingError when bits are left over (k = 0: any byte at all).
    """
    n_bits = 8 * n_bytes
    blocks = n_bits // k if k else 0
    trailing = n_bits - blocks * k
    if trailing:
        raise FramingError(f"{trailing} trailing bits do not fill a k={k} block")
    return blocks
