#!/usr/bin/env python3
"""Trellis load times and the CLI parser's cost, measured in one process.

    PYTHONPATH=src python3 tools/build_timing.py [--rounds 21]

Writes one trellis file per geometry below to a temporary directory, then
runs --rounds rounds. Each round times one `load_trellis` of every file
(a load is one build), one `cli.build_parser()` call as `cli.main` makes
it, and one construction of the parser, in an order that rotates from
round to round, so a change in the host's speed spreads over every item.
Prints one JSON line per item: its median and quartiles in milliseconds.
Standard library only.

It times the one tree on its import path. Do not compare two trees by
running it once per tree: a host's speed drifts between processes, and
identical code has read 39% slower that way. A two-tree comparison needs
both packages loaded in one process, with their calls alternated (ROADMAP
item 29).
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bandshape import cli
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    load_trellis,
    min_emax_for_bits,
    save_trellis,
)

A1357 = Alphabet((1, 3, 5, 7))
# (label, n, alphabet, e_max, band); e_max None takes the 162-bit minimum
GEOMETRIES = (
    ("ess_108", 108, A1357, None, None),
    ("band_11_0_108", 108, A1357, None, BandParams(11, 0)),
    ("toy_3", 3, Alphabet((1, 3, 5)), 27, None),
    # runs of one level: 214 of the 215 runs of reached levels
    ("band_3_1_108", 108, A1357, 2708, BandParams(3, 1)),
    # 28,598 runs of one level each, lone nodes in wide windows
    ("lone_400", 400, Alphabet((1, 101)), 800000, None),
    ("sparse_3", 3, Alphabet((1, 4999)), 74970003, None),
    # 10 reached levels, of which 3 lead to no final level
    ("dead_5", 5, Alphabet((1, 3, 5)), 69, BandParams(2, 1)),
    ("ess_432", 432, A1357, 3312, None),
)


def _write(directory: Path, label, n, alphabet, e_max, band) -> Path:
    if e_max is None:
        e_max = min_emax_for_bits(n, alphabet, 162, band=band)
    params = TrellisParams(n, alphabet, e_max)
    trellis = build_band_trellis(params, band) if band else build_full_trellis(params)
    path = directory / f"{label}.trellis"
    save_trellis(trellis, path)
    return path


def _summary(name: str, seconds: list[float]) -> dict:
    ms = [1e3 * s for s in seconds]
    # quantiles needs two points; one round's quartiles are its median
    q1, median, q3 = statistics.quantiles(ms * 2 if len(ms) == 1 else ms, n=4,
                                          method="inclusive")
    return {"item": name, "rounds": len(ms), "median_ms": round(median, 4),
            "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=21)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        items = [(f"load_trellis {label}",
                  functools.partial(load_trellis, _write(Path(tmp), label, *rest)))
                 for label, *rest in GEOMETRIES]
        # what each `cli.main` call pays for its parser, and the parser's
        # construction past any per-process cache
        items.append(("cli.build_parser", cli.build_parser))
        items.append(("cli.build_parser uncached",
                      getattr(cli.build_parser, "__wrapped__", cli.build_parser)))
        times: dict[str, list[float]] = {name: [] for name, _ in items}
        for r in range(args.rounds):
            turn = r % len(items)
            for name, call in items[turn:] + items[:turn]:
                start = time.perf_counter()
                call()
                times[name].append(time.perf_counter() - start)
    for name, seconds in times.items():
        print(json.dumps(_summary(name, seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
