"""Amplitude trellises with exact path counts.

A trellis node (n, e) stands for "n amplitudes consumed, accumulated energy
e". Paths from (0, 0) to the final column are exactly the amplitude
sequences whose total energy stays within the configured limit. Counts are
kept as Python integers so codebooks beyond 2**64 sequences stay exact.

Two constructions are provided: the full energy-sphere trellis, and a
band-restricted variant that keeps only a diagonal strip of nodes so that
admitted sequences accumulate energy near-linearly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import zip_longest

from .errors import (
    EmptyCodebookError,
    InfeasibleRateError,
    ParameterError,
    TrellisFormatError,
)

_MAGIC = "ESSTRELLIS v1"


def _integer(value, name: str) -> int:
    """value as an int, never truncated from a float (numpy integers pass)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Alphabet:
    """Ascending positive odd amplitude levels.

    Odd squares are congruent to 1 mod 8, which keeps every column of the
    trellis on an energy grid with spacing 8.
    """

    amplitudes: tuple[int, ...]

    def __post_init__(self):
        amps = tuple(_integer(a, "amplitude") for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if not amps:
            raise ParameterError("alphabet must be nonempty")
        if any(a <= 0 or a % 2 == 0 for a in amps):
            raise ParameterError(f"amplitudes must be positive odd integers: {amps}")
        if any(b <= a for a, b in zip(amps, amps[1:])):
            raise ParameterError(f"amplitudes must be strictly ascending: {amps}")

    @property
    def squares(self) -> tuple[int, ...]:
        return tuple(a * a for a in self.amplitudes)

    def __len__(self):
        return len(self.amplitudes)


@dataclass(frozen=True)
class TrellisParams:
    """Sequence length, alphabet, and maximum total energy.

    An off-grid e_max is rounded down to the largest value with
    (e_max - n) divisible by 8; callers that care (the CLI) compare against
    what they asked for and warn.
    """

    n_amplitudes: int
    alphabet: Alphabet
    e_max: int

    def __post_init__(self):
        n = _integer(self.n_amplitudes, "n_amplitudes")
        e = _integer(self.e_max, "e_max")
        object.__setattr__(self, "n_amplitudes", n)
        if n < 1:
            raise ParameterError("n_amplitudes must be >= 1")
        min_energy = n * self.alphabet.squares[0]
        if e < min_energy:
            raise ParameterError(
                f"e_max={e} cannot fit the minimum-energy sequence ({min_energy})"
            )
        e -= (e - n) % 8  # stops at or above min_energy, itself on the grid
        object.__setattr__(self, "e_max", e)

    @property
    def num_final_levels(self) -> int:
        """Final-column level count of the full trellis, (e_max - n)/8 + 1."""
        return (self.e_max - self.n_amplitudes) // 8 + 1


@dataclass(frozen=True)
class BandParams:
    """Band geometry: window height in energy levels, and how many final
    transitions ride the full-trellis top."""

    height: int
    width: int

    def __post_init__(self):
        object.__setattr__(self, "height", _integer(self.height, "band height"))
        object.__setattr__(self, "width", _integer(self.width, "band width"))
        if self.height < 1:
            raise ParameterError("band height must be >= 1")
        if self.width < 0:
            raise ParameterError("band width must be >= 0")


class Trellis:
    """Immutable node set with backward and forward path counts.

    back_count(n, e) is the number of ways to reach the final column from
    (n, e); fwd_count(n, e) the number of ways to arrive at (n, e) from the
    origin. Inactive nodes report 0 for both.
    """

    def __init__(self, params: TrellisParams, band: BandParams | None,
                 back: list[dict[int, int]], fwd: list[dict[int, int]]):
        self.params = params
        self.band = band
        self._back = tuple(back)
        self._fwd = tuple(fwd)
        self._levels = tuple(tuple(col) for col in back)

    def levels(self, n: int) -> tuple[int, ...]:
        return self._levels[n]

    def back_count(self, n: int, e: int) -> int:
        return self._back[n].get(e, 0)

    def fwd_count(self, n: int, e: int) -> int:
        return self._fwd[n].get(e, 0)

    @property
    def num_sequences(self) -> int:
        return self._back[0][0]

    def __repr__(self):
        p = self.params
        band = f", band=({self.band.height},{self.band.width})" if self.band else ""
        return (f"Trellis(n={p.n_amplitudes}, alphabet={p.alphabet.amplitudes}, "
                f"e_max={p.e_max}{band}, sequences={self.num_sequences})")


def _packing(n_amplitudes: int, alphabet: Alphabet) -> tuple[int, tuple[int, ...]]:
    """Bits per energy level of a packed column, and each amplitude's shift.

    A packed column of path counts is one integer whose bits
    [W*g, W*(g+1)) hold the count at level g, the energy m*a_min**2 + 8*g of
    column m. No count reaches |alphabet|**n < 2**(W-1), so a level never
    carries into the next one and the sum over all levels stays below
    2**W - 1. W is a whole number of bytes, so a column unpacks through
    to_bytes. Appending amplitude a to every path moves each count up
    (a**2 - a_min**2)/8 levels, a left shift by the returned bit count; one
    trellis step is the product with the polynomial sum(1 << shift).
    """
    width = -(-((len(alphabet) ** n_amplitudes).bit_length() + 1) // 8) * 8
    squares = alphabet.squares
    return width, tuple(width * ((s - squares[0]) // 8) for s in squares)


def _level_windows(params: TrellisParams, band: BandParams | None):
    """Admitted levels (lo, hi) of columns 1 through n, one column at a time.

    One rule for both trellises. The upper boundary follows the full-trellis
    top, min(m*a_max**2, e_max - n + m), over the last `width` columns;
    elsewhere it is a straight ramp of slope e_max/n snapped down onto the
    column's mod-8 grid. The lower boundary trails it by 8*(height-1),
    floored at the all-ones energy, so only lo depends on the height, and a
    taller band's windows contain a lower one's. The sphere is the band
    with no floor (the drop is e_max, below every level) whose full-top
    tail covers all n columns. Every window's top is then cut at
    min(m*reach, top): the reach (a_max**2 - a_min**2)/8 per column is the
    highest level any path attains, and the tail bound top the last level
    that leaves room for an all-a_min completion within e_max. lo comes from
    the uncut boundary, so the cut admits nothing new, and a window costs
    no more than the levels a path can reach, however large e_max or the
    height is. hi < lo marks a column that admits nothing.
    Lazy, so a count that stops at an empty column computes no later window.
    """
    n_len, e_max = params.n_amplitudes, params.e_max
    if band is not None and band.width > n_len:
        raise ParameterError(f"band width {band.width} exceeds n={n_len}")
    min_sq, max_sq = params.alphabet.squares[0], params.alphabet.squares[-1]
    top, reach, cap = (e_max - n_len * min_sq) // 8, (max_sq - min_sq) // 8, 0
    drop, tail = (8 * (band.height - 1), n_len - band.width) if band else (e_max, 0)
    # inline conditionals, and a running cap instead of m*reach: the band
    # search calls this thousands of times; e_max >= n also keeps the ramp
    # m*e_max//n >= m
    for m in range(1, n_len + 1):
        cap += reach
        if m < tail:
            hi = m * e_max // n_len
            hi -= (hi - m) % 8
        else:
            hi = m * max_sq
            if hi > e_max - n_len + m:
                hi = e_max - n_len + m
        lo = hi - drop if hi - drop > m else m
        hi = (hi - m * min_sq) // 8
        if hi > cap:
            hi = cap
        yield (lo - m * min_sq) // 8, hi if hi < top else top


def _forward(windows, width: int, shifts: tuple[int, ...], op) -> list[tuple[int, int]]:
    """Packed per-column values of the paths from the origin, as (base, column)
    pairs: path counts with op = operator.add at W bits per level (see _packing),
    reachability with op = operator.or_ at 1 bit per level.

    Each step combines one shifted copy of the column per amplitude (the step
    polynomial is sparse, so this beats a big-integer multiply), then cuts
    the column to its admitted levels; base is the level held in the lowest
    W bits, and never drops. The first copy is the column itself (a_min's
    shift is 0). A copy that would land wholly above hi is never made, so
    the result reaches at most twice as far above base as hi does, however
    large a_max is. The list ends before the first empty column.
    """
    col, base = 1, 0
    cols = [(base, col)]
    rest = shifts[1:]
    masks: dict[int, int] = {}  # levels kept -> their bit mask; band spans repeat
    for lo, hi in windows:
        nxt, limit = col, width * (hi - base)
        for s in rest:  # ascending, so every later copy lands higher still
            if s > limit:
                break
            nxt = op(nxt, col << s)
        col = nxt
        if lo > base:
            col >>= width * (lo - base)
            base = lo
        if hi < base:
            break
        span = hi - base + 1
        if span not in masks:
            masks[span] = (1 << (width * span)) - 1
        col &= masks[span]
        if not col:
            break
        cols.append((base, col))
    return cols


def _backward(windows, cols, width: int, shifts: tuple[int, ...], op) -> list[int]:
    """Packed per-column values of the paths to the final column, on the
    forward pass's bases (no lower level is reached from the origin).

    The steps of _forward undone with right shifts, from a 1 at every
    admitted level of the final column; windows include column 0's (0, 0).
    """
    spans = [hi - base + 1 for (_, hi), (base, _) in zip(windows, cols)]
    col = ((1 << (width * spans[-1])) - 1) // ((1 << width) - 1)
    back_cols = [col]
    rest = shifts[1:]
    for m in range(len(cols) - 2, -1, -1):
        col <<= width * (cols[m + 1][0] - cols[m][0])
        nxt = col
        for s in rest:
            nxt = op(nxt, col >> s)
        col = nxt & ((1 << (width * spans[m])) - 1)
        back_cols.append(col)
    back_cols.reverse()
    return back_cols


def _count_only(params: TrellisParams, band: BandParams | None) -> int:
    """Sequence count without building the trellis; 0 for an empty band.

    The last column of the forward pass, summed over its levels (see _packing).
    """
    width, shifts = _packing(params.n_amplitudes, params.alphabet)
    cols = _forward(_level_windows(params, band), width, shifts, operator.add)
    return cols[-1][1] % ((1 << width) - 1) if len(cols) > params.n_amplitudes else 0


def _nodes(params: TrellisParams, band: BandParams | None) -> list[tuple[int, int]]:
    """Per column, (base, mask): bit g of mask is set where level base + g
    is a node, a level that a path from the origin reaches and leaves for
    the final column.

    Both passes run at 1 bit per level with OR in place of +, so they cost
    W times less than the packed count passes, and a node is exactly a
    level whose forward and backward counts are both nonzero.
    """
    n_len, squares = params.n_amplitudes, params.alphabet.squares
    offsets = tuple((s - squares[0]) // 8 for s in squares)
    windows = [(0, 0), *_level_windows(params, band)]
    reach = _forward(windows[1:], 1, offsets, operator.or_)
    if len(reach) <= n_len:
        raise EmptyCodebookError(
            f"no admissible node at column {len(reach)}; band too narrow"
        )
    leave = _backward(windows, reach, 1, offsets, operator.or_)
    return [(base, mask & out) for (base, mask), out in zip(reach, leave)]


def _build(params: TrellisParams, band: BandParams | None) -> Trellis:
    """The nodes of _nodes with their counts from both packed passes.

    Each column is unpacked one run of adjacent nodes at a time, so a load
    visits the levels its file holds and skips the gaps between them. The
    forward counts need no pruning: every parent of a node that reaches
    the final column reaches it too.
    """
    nodes = _nodes(params, band)
    width, shifts = _packing(params.n_amplitudes, params.alphabet)
    windows = [(0, 0), *_level_windows(params, band)]
    fwd_cols = _forward(windows[1:], width, shifts, operator.add)
    back_cols = _backward(windows, fwd_cols, width, shifts, operator.add)
    size, min_sq = width // 8, params.alphabet.squares[0]
    back: list[dict[int, int]] = []
    fwd: list[dict[int, int]] = []
    for m, ((base, mask), (_, f_col), b_col, (_, hi)) in enumerate(
            zip(nodes, fwd_cols, back_cols, windows)):
        f_raw, b_raw = (c.to_bytes((hi - base + 1) * size, "little") for c in (f_col, b_col))
        b_nodes, f_nodes = {}, {}
        bits = format(mask, "b")[::-1] + "0"  # bit g of mask at index g, then a stop
        start = bits.find("1")
        while start >= 0:
            stop = bits.find("0", start)
            e = m * min_sq + 8 * (base + start)
            for at in range(start * size, stop * size, size):
                b_nodes[e] = int.from_bytes(b_raw[at:at + size], "little")
                f_nodes[e] = int.from_bytes(f_raw[at:at + size], "little")
                e += 8
            start = bits.find("1", stop)
        back.append(b_nodes)
        fwd.append(f_nodes)
    return Trellis(params, band, back, fwd)


def build_full_trellis(params: TrellisParams) -> Trellis:
    """Trellis over every sequence with total energy <= e_max."""
    return _build(params, None)


def build_band_trellis(params: TrellisParams, band: BandParams) -> Trellis:
    """Band-restricted trellis; raises EmptyCodebookError if nothing survives."""
    return _build(params, band)


def max_shaping_bits(trellis: Trellis) -> int:
    """Largest k with 2**k <= num_sequences."""
    return trellis.num_sequences.bit_length() - 1


def min_emax_for_bits(n_amplitudes: int, alphabet: Alphabet, k: int,
                      band: BandParams | None = None,
                      scan_from: int | None = None) -> int:
    """Smallest grid e_max whose trellis holds at least 2**k sequences.

    The full-trellis count at e_max is the energy distribution of all
    length-n sequences (the n-th power of _packing's step polynomial) summed
    up to e_max, so that case sums one distribution level by level up to
    2**k. A band trellis shifts its whole window as e_max grows and its
    count is not monotone, so the band case counts the grid points in order
    and returns the first that reaches 2**k; a band that never does scans
    the whole grid before InfeasibleRateError. scan_from, when given, must
    be a known lower bound on the answer, and is rounded up onto the grid.
    The full-trellis minimum always is one, since a band never holds more
    sequences than its sphere, and a band search without scan_from starts
    there. So is the answer for a taller band of the same width: at every
    e_max, the windows of height h nest inside those of height h+1 (see
    find_band_operating_point).
    """
    if k < 0:
        raise ParameterError("k must be >= 0")
    squares = alphabet.squares
    lo = n_amplitudes * squares[0]
    hi = n_amplitudes * squares[-1]
    # compare exponents first: 1 << k alone can take gigabytes
    if k > (len(alphabet) ** n_amplitudes).bit_length() - 1:
        raise InfeasibleRateError(
            f"k={k} exceeds the {len(alphabet)}-ary cube of length {n_amplitudes}"
        )
    target = 1 << k
    if band is None:
        width, shifts = _packing(n_amplitudes, alphabet)
        dist = sum(1 << s for s in shifts) ** n_amplitudes
        mask = (1 << width) - 1
        total, e = 0, lo
        # terminates by e = hi: the levels sum to |alphabet|**n >= target
        while True:
            total += dist & mask
            if total >= target:
                return e
            dist >>= width
            e += 8
    if scan_from is None:
        scan_from = min_emax_for_bits(n_amplitudes, alphabet, k)
    lo = max(lo, scan_from + (n_amplitudes - scan_from) % 8)

    for e_max in range(lo, hi + 1, 8):
        if _count_only(TrellisParams(n_amplitudes, alphabet, e_max), band) >= target:
            return e_max
    raise InfeasibleRateError(
        f"band h={band.height}, w={band.width} never reaches k={k}"
    )


def _lines(trellis: Trellis):
    """The file format, one line at a time: magic, parameter line, one
    `n e T F` line per node, and an END line repeating the total count."""
    p = trellis.params
    band = trellis.band
    alphabet = ",".join(str(a) for a in p.alphabet.amplitudes)
    band_txt = f"{band.height},{band.width}" if band else "none"
    yield _MAGIC
    yield f"N={p.n_amplitudes} ALPHABET={alphabet} EMAX={p.e_max} BAND={band_txt}"
    for n in range(p.n_amplitudes + 1):
        for e in trellis.levels(n):
            yield f"{n} {e} {trellis.back_count(n, e)} {trellis.fwd_count(n, e)}"
    yield f"END {trellis.num_sequences}"


def serialize(trellis: Trellis) -> str:
    """Versioned line format, as produced by _lines."""
    return "\n".join(_lines(trellis)) + "\n"


def parse_alphabet(text: str) -> Alphabet:
    """An alphabet from its comma-separated amplitudes, e.g. "1,3,5"."""
    try:
        return Alphabet(tuple(int(a) for a in text.split(",")))
    except ValueError as exc:
        raise ParameterError(f"bad alphabet {text!r}") from exc


def parse_band(text: str) -> BandParams:
    """A band geometry from its "HEIGHT,WIDTH" text."""
    try:
        h, w = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad band spec {text!r}, expected H,W") from exc
    return BandParams(h, w)


def _parse_params_line(line: str):
    fields = {}
    for token in line.split():
        key, _, value = token.partition("=")
        if not value:
            raise TrellisFormatError(f"bad parameter token {token!r}")
        fields[key] = value
    try:
        n = int(fields["N"])
        alphabet = parse_alphabet(fields["ALPHABET"])
        e_max = int(fields["EMAX"])
        band_txt = fields["BAND"]
    except (KeyError, ValueError) as exc:  # ParameterError is a ValueError
        raise TrellisFormatError(f"bad parameter line: {line!r}") from exc
    band = None
    if band_txt != "none":
        try:
            band = parse_band(band_txt)
        except ParameterError as exc:
            raise TrellisFormatError(f"bad band spec {band_txt!r}") from exc
    try:
        params = TrellisParams(n, alphabet, e_max)
    except ParameterError as exc:
        raise TrellisFormatError(str(exc)) from exc
    if params.e_max != e_max:
        raise TrellisFormatError(f"EMAX={e_max} is not on the energy grid")
    return params, band


def deserialize(data: str | bytes) -> Trellis:
    """Load a serialized trellis by rebuilding it from its own header.

    The parameter line fixes the whole codebook, so the file is accepted
    only if it equals, line for line, the serialization of the trellis that
    line defines; the rebuilt trellis is returned.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TrellisFormatError(f"not a UTF-8 text file: {exc}") from exc
    lines = data.splitlines()
    if not lines or lines[0] != _MAGIC:
        got = lines[0] if lines else "<empty>"
        raise TrellisFormatError(f"unsupported header {got!r}, expected {_MAGIC!r}")
    if len(lines) < 2:
        raise TrellisFormatError("truncated stream")
    params, band = _parse_params_line(lines[1])
    # at least one node line per column: a short file cannot ask for a big build
    if len(lines) < params.n_amplitudes + 4:
        raise TrellisFormatError(
            f"truncated stream: {len(lines)} lines cannot hold N={params.n_amplitudes}"
        )
    try:
        nodes = sum(mask.bit_count() for _, mask in _nodes(params, band))
    except (EmptyCodebookError, ParameterError) as exc:
        raise TrellisFormatError(f"header defines no trellis: {exc}") from exc
    # a valid file has exactly one line per node
    if nodes > len(lines) - 3:
        raise TrellisFormatError(
            f"the header defines over {len(lines) - 3} nodes, "
            f"more than the file has node lines for"
        )
    trellis = _build(params, band)
    for number, (got, want) in enumerate(zip_longest(lines, _lines(trellis)), 1):
        if got != want:
            raise TrellisFormatError(
                f"line {number} is {got!r}, the header defines {want!r}"
            )
    return trellis


def save_trellis(trellis: Trellis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(trellis))


def load_trellis(path) -> Trellis:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
