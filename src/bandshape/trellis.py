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
from functools import cached_property
from itertools import repeat

from .errors import (
    EmptyCodebookError,
    InfeasibleRateError,
    ParameterError,
    TrellisFormatError,
)

_MAGIC = "ESSTRELLIS v3"


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

    @cached_property  # not a field: equality and hashing see amplitudes only
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
    """Immutable node set with its backward path counts.

    back_columns[n] maps the energy e of every node of column n, ascending,
    to the number of ways to reach the final column from (n, e). No other
    level has an entry. The codec and the metrics walk these dicts
    directly, so the tuple and its dicts are read-only.
    """

    def __init__(self, params: TrellisParams, band: BandParams | None,
                 back: list[dict[int, int]]):
        self.params = params
        self.band = band
        self.back_columns = tuple(back)

    def levels(self, n: int) -> tuple[int, ...]:
        return tuple(self.back_columns[n])

    @property
    def num_sequences(self) -> int:
        return self.back_columns[0][0]

    def __repr__(self):
        p = self.params
        band = f", band=({self.band.height},{self.band.width})" if self.band else ""
        return (f"Trellis(n={p.n_amplitudes}, alphabet={p.alphabet.amplitudes}, "
                f"e_max={p.e_max}{band}, sequences={self.num_sequences})")


def _packing(n_amplitudes: int, alphabet: Alphabet) -> tuple[int, tuple[int, ...]]:
    """Bits per energy level of a packed column, and each amplitude's shift.

    A packed column of path counts is one integer whose bits
    [W*g, W*(g+1)) hold the count at level g, the energy m*a_min**2 + 8*g of
    column m. No packed value, a path count or an amplitude's occurrences
    over those paths (see _count_occurrences), reaches
    n*|alphabet|**n < 2**(W-1), so a level never carries into the next one
    and the sum over all levels stays below 2**W - 1: one width serves every
    packed pass. Appending amplitude a to every path moves each count up
    (a**2 - a_min**2)/8 levels, a left shift by the returned bit count; one
    trellis step is the product with the polynomial sum(1 << shift).
    """
    width = (n_amplitudes * len(alphabet) ** n_amplitudes).bit_length() + 1
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
    reachability, the levels _build sums counts over, with op = operator.or_
    at 1 bit per level, W times cheaper.

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


def _count_only(params: TrellisParams, band: BandParams | None) -> int:
    """Sequence count without building the trellis; 0 for an empty band.

    The last column of the forward pass, summed over its levels (see _packing).
    """
    width, shifts = _packing(params.n_amplitudes, params.alphabet)
    cols = _forward(_level_windows(params, band), width, shifts, operator.add)
    return cols[-1][1] % ((1 << width) - 1) if len(cols) > params.n_amplitudes else 0


def _count_occurrences(params: TrellisParams,
                       band: BandParams | None) -> tuple[int, dict[int, int]]:
    """Sequence count and each amplitude's occurrences over all sequences,
    from one packed forward pass, without building the trellis; raises
    EmptyCodebookError where _build does.

    f is _forward's column of prefix counts. Column g of amplitude a_i holds
    the same prefixes, each weighted by how often a_i occurs in it:
    appending any amplitude keeps a prefix's weight, and appending a_i adds
    the prefix once more, so g' = sum_b g << s_b + f << s_i, cut to the
    window as f is. Each final column summed over its levels (see _packing)
    is the count or an amplitude's occurrences. a_min takes no column: a
    sequence holds n amplitudes, so its occurrences are n*count less the
    others'. The cost is window levels, not nodes, like _count_only's.
    """
    width, shifts = _packing(params.n_amplitudes, params.alphabet)
    rest = shifts[1:]
    f, gs, base = 1, [0] * len(rest), 0
    masks: dict[int, int] = {}
    for m, (lo, hi) in enumerate(_level_windows(params, band), 1):
        limit = width * (hi - base)
        steps = [s for s in rest if s <= limit]  # as _forward skips them
        nxt_f, nxt_gs = f, []
        for s in steps:
            nxt_f += f << s
        for g, own in zip(gs, rest):
            out = g if own > limit else g + (f << own)
            for s in steps:
                out += g << s
            nxt_gs.append(out)
        f, gs = nxt_f, nxt_gs
        if lo > base:
            cut = width * (lo - base)
            f >>= cut
            gs = [g >> cut for g in gs]
            base = lo
        span = max(hi - base + 1, 0)  # 0: the window lies below every level held
        if span not in masks:
            masks[span] = (1 << (width * span)) - 1
        f &= masks[span]
        if not f:
            raise EmptyCodebookError(f"no admissible node at column {m}; band too narrow")
        gs = [g & masks[span] for g in gs]
    fold = (1 << width) - 1
    count = f % fold
    occ = [g % fold for g in gs]
    amps = params.alphabet.amplitudes
    return count, dict(zip(amps, [params.n_amplitudes * count - sum(occ), *occ]))


def _build(params: TrellisParams, band: BandParams | None) -> Trellis:
    """The nodes with their backward counts.

    One reachability pass marks the levels that a path from the origin
    reaches. Their counts are summed from the final column down, one run of
    adjacent reached levels at a time, each run read straight from the
    column's mask, lowest first. A level's count is the sum of its
    children's, and a child absent from the next column's dict counts 0. A
    node is a reached level that leads to the final column, one whose count
    is not 0, so dropping the zeros leaves each dict holding the nodes
    alone. The children are summed side by side, not through one map per
    amplitude chained onto the last: a chain nests as deep as the alphabet
    is long, and a long enough alphabet overflows the C stack.
    """
    squares = params.alphabet.squares
    offsets = tuple((s - squares[0]) // 8 for s in squares)
    reach = _forward(_level_windows(params, band), 1, offsets, operator.or_)
    if len(reach) <= params.n_amplitudes:
        raise EmptyCodebookError(
            f"no admissible node at column {len(reach)}; band too narrow"
        )
    back, get = [], None
    for m, (base, mask) in reversed(list(enumerate(reach))):
        e0, counts = m * squares[0] + 8 * base, {}
        while mask:
            low = mask & -mask
            end = mask + low  # the carry clears the run and sets the bit above it
            mask &= end
            lo = e0 + 8 * (low.bit_length() - 1)
            hi = e0 + 8 * ((end & -end).bit_length() - 1)
            if get is None:  # the final column
                counts.update(dict.fromkeys(range(lo, hi, 8), 1))
                continue
            children = [map(get, range(lo + s, hi + s, 8), repeat(0)) for s in squares]
            counts.update(zip(range(lo, hi, 8), map(sum, zip(*children))))
        if not all(counts.values()):
            counts = {e: c for e, c in counts.items() if c}
        back.append(counts)
        get = counts.get
    back.reverse()
    return Trellis(params, band, back)


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
    n_amplitudes, k = _integer(n_amplitudes, "n_amplitudes"), _integer(k, "k")
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
    scan_from = (min_emax_for_bits(n_amplitudes, alphabet, k) if scan_from is None
                 else _integer(scan_from, "scan_from"))
    lo = max(lo, scan_from + (n_amplitudes - scan_from) % 8)

    for e_max in range(lo, hi + 1, 8):
        if _count_only(TrellisParams(n_amplitudes, alphabet, e_max), band) >= target:
            return e_max
    raise InfeasibleRateError(
        f"band h={band.height}, w={band.width} never reaches k={k}"
    )


def _lines(trellis: Trellis) -> list[str]:
    """The file format: magic, parameter line, and an END line with the
    total count."""
    p = trellis.params
    band = trellis.band
    alphabet = ",".join(str(a) for a in p.alphabet.amplitudes)
    band_txt = f"{band.height},{band.width}" if band else "none"
    return [_MAGIC,
            f"N={p.n_amplitudes} ALPHABET={alphabet} EMAX={p.e_max} BAND={band_txt}",
            f"END {trellis.num_sequences}"]


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


def deserialize(data: str | bytes) -> Trellis:
    """Load a serialized trellis by rebuilding it from its own header.

    The parameter line fixes the whole codebook, so the file is accepted
    only if it equals, line for line, the serialization of the trellis that
    line defines; the rebuilt trellis is returned. A load costs one build.
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
    if len(lines) != 3:
        raise TrellisFormatError(f"a v3 file has 3 lines, this one has {len(lines)}")
    try:
        fields = dict(field.partition("=")[::2] for field in lines[1].split())
        params = TrellisParams(int(fields["N"]), parse_alphabet(fields["ALPHABET"]),
                               int(fields["EMAX"]))
        band = None if fields["BAND"] == "none" else parse_band(fields["BAND"])
        trellis = _build(params, band)
    except (KeyError, ValueError, EmptyCodebookError) as exc:  # ParameterError is a ValueError
        raise TrellisFormatError(f"line 2 {lines[1]!r} defines no trellis: {exc!r}") from exc
    for number, (got, want) in enumerate(zip(lines, _lines(trellis)), 1):
        if got != want:
            raise TrellisFormatError(f"line {number} is {got!r}, the header defines {want!r}")
    return trellis


def save_trellis(trellis: Trellis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(trellis))


def load_trellis(path) -> Trellis:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
