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

from dataclasses import dataclass
from itertools import zip_longest

from .errors import (
    EmptyCodebookError,
    InfeasibleRateError,
    ParameterError,
    TrellisFormatError,
)

_MAGIC = "ESSTRELLIS v1"


@dataclass(frozen=True)
class Alphabet:
    """Ascending positive odd amplitude levels.

    Odd squares are congruent to 1 mod 8, which keeps every column of the
    trellis on an energy grid with spacing 8.
    """

    amplitudes: tuple[int, ...]

    def __post_init__(self):
        amps = tuple(int(a) for a in self.amplitudes)
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
        n = int(self.n_amplitudes)
        e = int(self.e_max)
        object.__setattr__(self, "n_amplitudes", n)
        if n < 1:
            raise ParameterError("n_amplitudes must be >= 1")
        min_energy = n * self.alphabet.squares[0]
        if e < min_energy:
            raise ParameterError(
                f"e_max={e} cannot fit the minimum-energy sequence ({min_energy})"
            )
        e -= (e - n) % 8
        if e < min_energy:
            raise ParameterError(
                f"e_max={self.e_max} snaps to {e}, below the minimum energy {min_energy}"
            )
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
        self._levels = tuple(tuple(sorted(col)) for col in back)

    def levels(self, n: int) -> tuple[int, ...]:
        return self._levels[n]

    def back_count(self, n: int, e: int) -> int:
        return self._back[n].get(e, 0)

    def fwd_count(self, n: int, e: int) -> int:
        return self._fwd[n].get(e, 0)

    def is_active(self, n: int, e: int) -> bool:
        return e in self._back[n]

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

    The band's upper boundary follows the full-trellis top over the last
    `width` columns; elsewhere it is a straight ramp of slope e_max/n
    snapped down onto the column's mod-8 grid. Its lower boundary trails by
    8*(height-1), floored at the all-ones energy. Every column is also cut
    at the tail bound top, the last level that leaves room for an all-a_min
    completion within e_max; a full column also at its reach
    m*(a_max**2 - a_min**2)/8, the highest level any path attains, so the
    cost of a full trellis stops growing once e_max covers the whole cube.
    hi < lo marks a column that admits nothing.
    Lazy, so a count that stops at an empty column computes no later window.
    """
    n_len, e_max = params.n_amplitudes, params.e_max
    if band is not None and band.width > n_len:
        raise ParameterError(f"band width {band.width} exceeds n={n_len}")
    min_sq, max_sq = params.alphabet.squares[0], params.alphabet.squares[-1]
    top = (e_max - n_len * min_sq) // 8
    if band is None:
        reach = (max_sq - min_sq) // 8
        yield from ((0, min(m * reach, top)) for m in range(1, n_len + 1))
        return
    # inline conditionals instead of min/max: the band search calls this
    # thousands of times; e_max >= n also keeps the ramp cap m*e_max//n >= m
    drop, tail = 8 * (band.height - 1), n_len - band.width
    for m in range(1, n_len + 1):
        if m < tail:
            hi = m * e_max // n_len
            hi -= (hi - m) % 8
        else:
            hi = m * max_sq
            if hi > e_max - n_len + m:
                hi = e_max - n_len + m
        lo = hi - drop if hi - drop > m else m
        hi = (hi - m * min_sq) // 8
        yield (lo - m * min_sq) // 8, hi if hi < top else top


def _forward(windows, width: int, shifts: tuple[int, ...]) -> list[tuple[int, int]]:
    """Packed paths-from-origin counts per column, as (base, column) pairs.

    Each step adds one shifted copy of the column per amplitude (the step
    polynomial is sparse, so this beats a big-integer multiply), then cuts
    the column to its admitted levels; base is the level held in the lowest
    W bits, and never drops. The list ends before the first empty column.
    """
    col, base = 1, 0
    cols = [(base, col)]
    masks: dict[int, int] = {}  # levels kept -> their bit mask; band spans repeat
    for lo, hi in windows:
        nxt = 0
        for s in shifts:
            nxt += col << s
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


def _count_only(params: TrellisParams, band: BandParams | None) -> int:
    """Sequence count without building the trellis; 0 for an empty band.

    The last column of the forward pass, summed over its levels (see _packing).
    """
    width, shifts = _packing(params.n_amplitudes, params.alphabet)
    cols = _forward(_level_windows(params, band), width, shifts)
    return cols[-1][1] % ((1 << width) - 1) if len(cols) > params.n_amplitudes else 0


def _slope_bound(n_amplitudes: int, alphabet: Alphabet, band: BandParams,
                 e_low: int, e_high: int) -> int:
    """Upper bound on the band count of every grid e_max in [e_low, e_high],
    for a range inside one slope class (e_max - n) // (8n).

    Off the full-top columns, the window top of _level_windows sits at level
    floor(m*s) - m*c, with s = (e_max - n)/(8n) and c = (a_min**2 - 1)/8, so
    from one column to the next it moves up by floor(s) - c or that plus 1,
    and floor(s) is the class. On a full-top column the move lies between
    the tops of the range's two ends. Counting paths by how far below the
    top they sit, one step of a given move is a fixed linear map with
    nonnegative entries; taking, level by level, the largest result over the
    column's possible moves bounds every e_max's counts from above at every
    column, so the final sum bounds its sequence count. Windows are taken as
    the full height below their top, never smaller than _level_windows
    makes them. One pass costs about height * |alphabet| additions per
    column, and covers the class's n grid points.
    """
    squares = alphabet.squares
    steps = [(s - squares[0]) // 8 for s in squares]
    reach = steps[-1]
    tops = []
    for e_max in (e_low, e_high):
        params = TrellisParams(n_amplitudes, alphabet, e_max)
        tops.append([0, *(hi for _, hi in _level_windows(params, band))])
    ramp = (e_low - n_amplitudes) // (8 * n_amplitudes) - (squares[0] - 1) // 8
    # no path sits further below its window top than the top's own level
    height = min(band.height, (e_high - n_amplitudes * squares[0]) // 8 + 1)
    tail = n_amplitudes - band.width
    counts = [1] + [0] * (height - 1)  # paths 0, 1, ... levels below the top
    for m in range(1, n_amplitudes + 1):
        if m < tail:
            moves = range(ramp, ramp + 2)
        else:
            moves = range(max(tops[0][m] - tops[1][m - 1], -height),
                          min(tops[1][m] - tops[0][m - 1], height + reach) + 1)
        # stepped[height + reach + j]: paths landing j levels below the old top
        stepped = [0] * (3 * height + 2 * reach)
        for below, paths in enumerate(counts):
            if paths:
                for d in steps:
                    stepped[height + reach + below - d] += paths
        nxt = [0] * height
        for move in moves:
            start = height + reach - move
            nxt = list(map(max, nxt, stepped[start:start + height]))
        counts = nxt
    return sum(counts)


def _build(params: TrellisParams, band: BandParams | None,
           max_nodes: int | None = None) -> Trellis:
    """Both packed passes, then every node whose two counts are nonzero.

    The backward pass undoes the forward steps with right shifts, from a 1
    at every admitted level of the final column, on the forward pass's
    bases (no lower level holds a forward count). The forward counts need
    no pruning: every parent of a node that reaches the final column
    reaches it too. Unpacking stops with TrellisFormatError once more than
    max_nodes nodes are found (the node lines of a file being loaded).
    """
    n_len = params.n_amplitudes
    width, shifts = _packing(n_len, params.alphabet)
    windows = [(0, 0), *_level_windows(params, band)]
    fwd_cols = _forward(windows[1:], width, shifts)
    if len(fwd_cols) <= n_len:
        raise EmptyCodebookError(
            f"no admissible node at column {len(fwd_cols)}; band too narrow"
        )
    spans = [hi - base + 1 for (_, hi), (base, _) in zip(windows, fwd_cols)]
    col = ((1 << (width * spans[-1])) - 1) // ((1 << width) - 1)
    back_cols = [col]
    for m in range(n_len - 1, -1, -1):
        col <<= width * (fwd_cols[m + 1][0] - fwd_cols[m][0])
        nxt = 0
        for s in shifts:
            nxt += col >> s
        col = nxt & ((1 << (width * spans[m])) - 1)
        back_cols.append(col)
    back_cols.reverse()

    size, min_sq = width // 8, params.alphabet.squares[0]
    back: list[dict[int, int]] = []
    fwd: list[dict[int, int]] = []
    nodes = 0
    for m, ((base, f_col), b_col, span) in enumerate(zip(fwd_cols, back_cols, spans)):
        f_raw, b_raw = (c.to_bytes(span * size, "little") for c in (f_col, b_col))
        back.append({})
        fwd.append({})
        for g in range(span):
            b = int.from_bytes(b_raw[g * size:(g + 1) * size], "little")
            f = int.from_bytes(f_raw[g * size:(g + 1) * size], "little")
            if b and f:
                e = m * min_sq + 8 * (base + g)
                back[m][e], fwd[m][e] = b, f
        nodes += len(back[m])
        if max_nodes is not None and nodes > max_nodes:
            raise TrellisFormatError(
                f"the header defines over {max_nodes} nodes, "
                f"more than the file has node lines for"
            )
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
    count is not monotone, so the band case returns the first grid point
    that reaches 2**k, from the bottom up. The grid splits into slope
    classes of n points, the e_max with one (e_max - n) // (8n);
    _slope_bound bounds every count of a class in one pass, and a class
    whose bound stays below 2**k is skipped. The points of every other
    class are counted exactly, in order. That returns the first hit of a
    point-by-point scan, and proves a low band infeasible without counting
    its points. scan_from, when given, must be a known lower bound on the
    answer (the full-trellis minimum always is, since a band never holds
    more sequences than its sphere); it is rounded up onto the grid.
    """
    if k < 0:
        raise ParameterError("k must be >= 0")
    squares = alphabet.squares
    lo = n_amplitudes * squares[0]
    hi = n_amplitudes * squares[-1]
    target = 1 << k
    if len(alphabet) ** n_amplitudes < target:
        raise InfeasibleRateError(
            f"k={k} exceeds the {len(alphabet)}-ary cube of length {n_amplitudes}"
        )
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
    if scan_from is not None:
        lo = max(lo, scan_from + (n_amplitudes - scan_from) % 8)

    span = 8 * n_amplitudes  # the energy range of one slope class, n grid points
    for first in range(lo - (lo - n_amplitudes) % span, hi + 1, span):
        e_low, e_high = max(lo, first), min(hi, first + span - 8)
        if _slope_bound(n_amplitudes, alphabet, band, e_low, e_high) < target:
            continue
        for e_max in range(e_low, e_high + 1, 8):
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
        trellis = _build(params, band, max_nodes=len(lines) - 3)
    except (EmptyCodebookError, ParameterError) as exc:
        raise TrellisFormatError(f"header defines no trellis: {exc}") from exc
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
