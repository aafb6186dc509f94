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


def _band_window(params: TrellisParams, band: BandParams, col: int) -> tuple[int, int]:
    """Active energy window [lo, hi] of the band at a column.

    The upper boundary follows the full-trellis top over the last `width`
    columns; elsewhere it is a straight ramp of slope e_max/n snapped down
    onto the column's mod-8 grid. The lower boundary trails it by
    8*(height-1), floored at the all-ones energy.
    """
    n_len, e_max = params.n_amplitudes, params.e_max
    if col == 0:
        return 0, 0
    if col >= n_len - band.width:
        hi = min(col * params.alphabet.squares[-1], e_max - (n_len - col))
    else:
        cap = max(col, (col * e_max) // n_len)
        hi = cap - ((cap - col) % 8)
    return max(col, hi - 8 * (band.height - 1)), hi


def _reachable_columns(params: TrellisParams, band: BandParams | None):
    """Forward-reachable energy sets per column, restricted to the band and
    to nodes that can still be completed within e_max."""
    n_len, e_max = params.n_amplitudes, params.e_max
    squares = params.alphabet.squares
    min_sq = squares[0]
    windows = None
    if band is not None:
        if band.width > n_len:
            raise ParameterError(f"band width {band.width} exceeds n={n_len}")
        windows = [_band_window(params, band, n) for n in range(n_len + 1)]
    cols: list[set[int]] = [set() for _ in range(n_len + 1)]
    cols[0].add(0)
    for n in range(n_len):
        tail = (n_len - n - 1) * min_sq
        nxt = cols[n + 1]
        window = windows[n + 1] if windows else None
        for e in cols[n]:
            for s in squares:
                child = e + s
                if child + tail > e_max:
                    break
                if window and not window[0] <= child <= window[1]:
                    continue
                nxt.add(child)
        if not nxt:
            raise EmptyCodebookError(
                f"no admissible node at column {n + 1}; band too narrow"
            )
    return cols


def _backward_counts(params: TrellisParams, cols) -> list[dict[int, int]]:
    """Paths-to-final per node; nodes with no completion are dropped."""
    n_len = params.n_amplitudes
    squares = params.alphabet.squares
    back: list[dict[int, int]] = [dict() for _ in range(n_len + 1)]
    back[n_len] = {e: 1 for e in sorted(cols[n_len])}
    for n in range(n_len - 1, -1, -1):
        nxt = back[n + 1]
        cur = back[n]
        for e in sorted(cols[n]):
            c = 0
            for s in squares:
                c += nxt.get(e + s, 0)
            if c:
                cur[e] = c
    return back


def _forward_counts(params: TrellisParams, back) -> list[dict[int, int]]:
    n_len = params.n_amplitudes
    squares = params.alphabet.squares
    fwd: list[dict[int, int]] = [dict() for _ in range(n_len + 1)]
    fwd[0][0] = 1
    for n in range(n_len):
        alive = back[n + 1]
        nxt = fwd[n + 1]
        for e, paths in fwd[n].items():
            for s in squares:
                child = e + s
                if child in alive:
                    nxt[child] = nxt.get(child, 0) + paths
    return fwd


def _build(params: TrellisParams, band: BandParams | None) -> Trellis:
    cols = _reachable_columns(params, band)
    back = _backward_counts(params, cols)
    if 0 not in back[0]:
        raise EmptyCodebookError("band admits no complete sequence")
    fwd = _forward_counts(params, back)
    # backward pruning cannot orphan a survivor, so the two node sets agree
    assert all(set(fwd[n]) == set(back[n]) for n in range(params.n_amplitudes + 1))
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


def _packing(n_amplitudes: int, alphabet: Alphabet) -> tuple[int, tuple[int, ...]]:
    """Bits per energy level of a packed column, and each amplitude's shift.

    A packed column of path counts is one integer whose bits
    [W*g, W*(g+1)) hold the count at level g, the energy m*a_min**2 + 8*g of
    column m. No count reaches |alphabet|**n < 2**(W-1), so a level never
    carries into the next one and the sum over all levels stays below
    2**W - 1. Appending amplitude a to every path moves each count up
    (a**2 - a_min**2)/8 levels, a left shift by the returned bit count; one
    trellis step is the product with the polynomial sum(1 << shift).
    """
    width = (len(alphabet) ** n_amplitudes).bit_length() + 1
    squares = alphabet.squares
    return width, tuple(width * ((s - squares[0]) // 8) for s in squares)


def _count_only(params: TrellisParams, band: BandParams | None) -> int:
    """Sequence count without building the trellis; 0 for an empty band.

    One forward pass over packed columns (see _packing). Each step adds one
    shifted copy of the column per amplitude (the step polynomial is sparse,
    so this beats a big-integer multiply), then cuts the column to the
    levels that both the band window and the tail bound admit. The tail
    bound, room for an all-a_min completion, is the same level in every
    column.
    """
    n_len = params.n_amplitudes
    if band is not None and band.width > n_len:
        raise ParameterError(f"band width {band.width} exceeds n={n_len}")
    width, shifts = _packing(n_len, params.alphabet)
    min_sq = params.alphabet.squares[0]
    top = (params.e_max - n_len * min_sq) // 8
    col, base = 1, 0  # base: the level held in the lowest W bits of col
    for m in range(1, n_len + 1):
        nxt = 0
        for s in shifts:
            nxt += col << s
        col = nxt
        hi = top
        if band is not None:
            e_lo, e_hi = _band_window(params, band, m)
            lo = (e_lo - m * min_sq) // 8
            hi = min(hi, (e_hi - m * min_sq) // 8)
            if lo > base:
                col >>= width * (lo - base)
                base = lo
        if hi < base:
            return 0
        col &= (1 << (width * (hi - base + 1))) - 1
        if not col:
            return 0
    return col % ((1 << width) - 1)


def min_emax_for_bits(n_amplitudes: int, alphabet: Alphabet, k: int,
                      band: BandParams | None = None,
                      scan_from: int | None = None) -> int:
    """Smallest grid e_max whose trellis holds at least 2**k sequences.

    The full-trellis count at e_max is the energy distribution of all
    length-n sequences (the n-th power of _packing's step polynomial) summed
    up to e_max, so that case sums one distribution level by level up to
    2**k. A band trellis shifts its whole window as e_max grows and
    its count is not monotone, so the band case scans the grid from the
    bottom and returns the first hit. scan_from, when given, must be a known
    lower bound on the answer (the full-trellis minimum always is, since a
    band never holds more sequences than its sphere).
    """
    if k < 0:
        raise ParameterError("k must be >= 0")
    squares = Alphabet(alphabet.amplitudes).squares
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
        lo = max(lo, scan_from)
    for e in range(lo, hi + 1, 8):
        if _count_only(TrellisParams(n_amplitudes, alphabet, e), band) >= target:
            return e
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


def _parse_params_line(line: str):
    fields = {}
    for token in line.split():
        key, _, value = token.partition("=")
        if not value:
            raise TrellisFormatError(f"bad parameter token {token!r}")
        fields[key] = value
    try:
        n = int(fields["N"])
        alphabet = Alphabet(tuple(int(a) for a in fields["ALPHABET"].split(",")))
        e_max = int(fields["EMAX"])
        band_txt = fields["BAND"]
    except (KeyError, ValueError) as exc:
        raise TrellisFormatError(f"bad parameter line: {line!r}") from exc
    band = None
    if band_txt != "none":
        try:
            h, w = (int(x) for x in band_txt.split(","))
            band = BandParams(h, w)
        except (ValueError, ParameterError) as exc:
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
        trellis = _build(params, band)
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
