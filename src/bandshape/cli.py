"""Command-line interface.

Subcommands: trellis build/info, shape, deshape, stats, compare, simulate.
Machine-readable results go to files or stdout; warnings and progress go to
stderr. CSV outputs start with '# key=value' lines echoing the effective
configuration (readers should skip '#' lines).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .codec import deshape, shape_stream, whole_blocks
from .errors import BandshapeError, ParameterError
from .fibersim import FiberParams, LinkParams, run_sweep
from .metrics import compare_trellises, exact_metrics, sampled_metrics
from .trellis import (
    Trellis,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    load_trellis,
    max_shaping_bits,
    min_emax_for_bits,
    parse_alphabet,
    parse_band,
    save_trellis,
)

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 12345


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_powers(text: str) -> list[float]:
    """start:step:stop inclusive, or a single value; the sweep ends at the
    last whole step from start that does not pass stop."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ParameterError(f"bad power sweep {text!r}, expected start:step:stop")
    try:
        values = [float(x) for x in parts]
    except ValueError as exc:
        raise ParameterError(f"bad power sweep {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"power sweep {text!r} must be finite")
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0:
        raise ParameterError("power sweep step must be positive")
    # the slack keeps float error in the quotient from dropping stop itself
    count = math.floor((stop - start) / step + 1e-9) + 1
    if count < 1:
        raise ParameterError(f"empty power sweep {text!r}")
    return [start + i * step for i in range(count)]


def _summary_lines(trellis: Trellis) -> list[str]:
    p = trellis.params
    band = f"{trellis.band.height},{trellis.band.width}" if trellis.band else "none"
    return [
        f"n={p.n_amplitudes}",
        f"alphabet={','.join(str(a) for a in p.alphabet.amplitudes)}",
        f"emax={p.e_max}",
        f"band={band}",
        f"final_levels={p.num_final_levels}",
        f"sequences={trellis.num_sequences}",
        f"bits={max_shaping_bits(trellis)}",
    ]


def _metric_lines(m, prefix: str) -> list[str]:
    """Amplitude probabilities and moments of exact or sampled metrics."""
    lines = [f"{prefix}p_{a}={pa!r}" for a, pa in zip(m.alphabet, m.p_amp)]
    return lines + [f"{prefix}{key}={getattr(m, key)!r}"
                    for key in ("e2", "e4", "var_e", "kurtosis")]


def cmd_trellis(args) -> int:
    if args.action == "info":
        trellis = load_trellis(args.file)
        for line in _summary_lines(trellis) + _metric_lines(exact_metrics(trellis), ""):
            print(line)
        return 0
    alphabet = parse_alphabet(args.alphabet)
    band = parse_band(args.band) if args.band else None
    if args.bits is not None:
        e_max = min_emax_for_bits(args.n, alphabet, args.bits)
        if band:
            e_max = min_emax_for_bits(args.n, alphabet, args.bits, band=band,
                                      scan_from=e_max)
    else:
        e_max = args.emax
    params = TrellisParams(args.n, alphabet, e_max)
    if params.e_max != e_max:
        _log(f"warning: e_max={e_max} is off the energy grid, snapped down "
             f"to {params.e_max}")
    trellis = (build_band_trellis(params, band) if band
               else build_full_trellis(params))
    save_trellis(trellis, args.out)
    _log(f"wrote {args.out}")
    for line in _summary_lines(trellis):
        print(line)
    return 0


def cmd_shape(args) -> int:
    trellis = load_trellis(args.trellis)
    with open(args.infile, "rb") as fh:
        payload = fh.read()
    # frame before opening --out, so a payload that does not frame leaves
    # no partial amplitude file behind
    whole_blocks(max_shaping_bits(trellis), len(payload))
    with open(args.out, "w", encoding="utf-8") as fh:
        def emit(seq: tuple[int, ...]) -> None:
            fh.write(" ".join(str(v) for v in seq) + "\n")

        blocks = shape_stream(trellis, payload, emit)
    _log(f"shaped {blocks} blocks from {len(payload)} bytes")
    return 0


def cmd_deshape(args) -> int:
    trellis = load_trellis(args.trellis)
    k = max_shaping_bits(trellis)
    indices: list[int] = []
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"not a UTF-8 text file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            seq = tuple(int(v) for v in line.split())
            indices.append(deshape(trellis, seq))
        except (ValueError, BandshapeError) as exc:
            raise ParameterError(f"line {lineno}: {exc}") from exc
    # format() cannot print zero digits, so a k=0 block needs the branch
    bits = "".join(format(i, f"0{k}b") for i in indices) if k else ""
    pad = -len(bits) % 8
    # the leading "0" lets an empty payload parse, to no bytes
    data = int("0" + bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")
    with open(args.out, "wb") as fh:
        fh.write(data)
    if pad:
        _log(f"note: {len(bits)} bits zero-padded to a byte boundary")
    _log(f"deshaped {len(indices)} sequences")
    return 0


def cmd_stats(args) -> int:
    trellis = load_trellis(args.trellis)
    k = max_shaping_bits(trellis)
    exact = exact_metrics(trellis)
    sampled = sampled_metrics(trellis, args.samples, args.seed)
    print(f"sequences={trellis.num_sequences}")
    print(f"bits={k}")
    for line in _metric_lines(exact, "exact_") + _metric_lines(sampled, "sampled_"):
        print(line)
    print(f"sampled_se_e2={sampled.se_e2!r}")
    print(f"sampled_num_samples={sampled.num_samples}")
    print(f"sampled_seed={sampled.seed}")
    print(f"sampled_exhaustive={sampled.exhaustive}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(f"# trellis={args.trellis} samples={sampled.num_samples} "
                     f"seed={sampled.seed} exhaustive={sampled.exhaustive}\n")
            fh.write("row,v1,v2,v3,v4\n")
            for a, pe, ps in zip(exact.alphabet, exact.p_amp, sampled.p_amp):
                fh.write(f"p,{a},{pe!r},{ps!r},\n")
            fh.write(f"moments,{exact.e2!r},{exact.e4!r},{exact.var_e!r},"
                     f"{exact.kurtosis!r}\n")
    return 0


def cmd_compare(args) -> int:
    a = load_trellis(args.a)
    b = load_trellis(args.b)
    report = compare_trellises(a, b)
    for key, value in report.items():
        if key == "alphabet":
            value = ",".join(str(x) for x in value)
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    if args.csv:
        keys = [k for k in report if k != "alphabet"]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(f"# a={args.a} b={args.b}\n")
            fh.write(",".join(keys) + "\n")
            fh.write(",".join(repr(float(report[k])) for k in keys) + "\n")
    return 0


_SIM_DEFAULTS = {
    "baud": 50.0, "rolloff": 0.1, "nf": 5.0, "sps": 16, "step_km": 0.1,
    "burst": 16384, "guard": 512, "filter_span": 64, "alpha": 0.2,
    "dispersion": 17.0, "gamma": 1.3, "length": 205.0, "wavelength": 1550.0,
    "seed": 0, "seeds": 1,
}


def _sim_setting(key: str, value):
    """A simulate setting converted to the type of its default, as the flags
    are; a boolean, or a fraction where a whole number is due, is an error
    rather than a silent truncation."""
    kind = type(_SIM_DEFAULTS[key])
    if isinstance(value, bool):
        raise ParameterError(f"{key}={value!r} is not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ParameterError(f"{key}={value!r} must be a whole number")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{key}={value!r} is not a number") from exc


def cmd_simulate(args) -> int:
    cfg = dict(_SIM_DEFAULTS)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:  # also a file that is not UTF-8
                raise ParameterError(f"--config is not JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ParameterError("--config must hold a JSON object of settings")
        unknown = set(overrides) - set(cfg)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(overrides)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ParameterError("no schemes requested")
    trellis_by_scheme: dict[str, Trellis] = {}
    for scheme in schemes:
        path = getattr(args, f"trellis_{scheme}", None)
        if path is None:
            raise ParameterError(
                f"scheme {scheme!r} needs --trellis-{scheme} (known: ess, bess)"
            )
        trellis_by_scheme[scheme] = load_trellis(path)
    powers = _parse_powers(args.powers)

    settings = {key: _sim_setting(key, value) for key, value in cfg.items()}
    link = LinkParams(
        baud_rate_gbd=settings["baud"], rrc_rolloff=settings["rolloff"],
        edfa_nf_db=settings["nf"], launch_power_dbm=powers[0],
        sps=settings["sps"], step_km=settings["step_km"],
        seed=settings["seed"], burst_symbols=settings["burst"],
        filter_span_symbols=settings["filter_span"],
        guard_symbols=settings["guard"],
    )
    fiber = FiberParams(
        alpha_db_per_km=settings["alpha"],
        dispersion_ps_nm_km=settings["dispersion"],
        gamma_per_w_km=settings["gamma"], length_km=settings["length"],
        ref_wavelength_nm=settings["wavelength"],
    )
    _log(f"sweep: schemes={schemes} powers={powers} seeds={settings['seeds']}")
    rows = run_sweep(trellis_by_scheme, powers, settings["seeds"], link, fiber)
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w",
                                                          encoding="utf-8")
    try:
        for key in sorted(settings):
            out.write(f"# {key}={settings[key]}\n")
        out.write(f"# schemes={','.join(schemes)} "
                  f"powers={args.powers}\n")
        out.write("scheme,launch_power_dbm,snr_db,seed,step_km,sps,burst_symbols\n")
        for r in rows:
            out.write(f"{r['scheme']},{r['launch_power_dbm']!r},{r['snr_db']!r},"
                      f"{r['seed']},{r['step_km']!r},{r['sps']},"
                      f"{r['burst_symbols']}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandshape",
        description="Sphere-shaping codec (full and band-restricted trellises) "
                    "with a desk-scale single-span fiber simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trellis = sub.add_parser("trellis", help="build or inspect trellis files")
    tsub = trellis.add_subparsers(dest="action", required=True)
    build = tsub.add_parser("build", help="construct a trellis and write it out")
    build.add_argument("--n", type=int, required=True, help="sequence length")
    build.add_argument("--alphabet", required=True,
                       help="comma-separated odd amplitudes, e.g. 1,3,5")
    group = build.add_mutually_exclusive_group(required=True)
    group.add_argument("--emax", type=int, help="maximum sequence energy")
    group.add_argument("--bits", type=int,
                       help="pick the smallest e_max reaching this many bits")
    build.add_argument("--band", help="band restriction HEIGHT,WIDTH")
    build.add_argument("--out", required=True, help="output trellis file")
    info = tsub.add_parser("info", help="print parameters, counts, and metrics")
    info.add_argument("file")

    shape_p = sub.add_parser("shape", help="bit file -> amplitude file")
    shape_p.add_argument("--trellis", required=True)
    shape_p.add_argument("--in", dest="infile", required=True)
    shape_p.add_argument("--out", required=True)

    deshape_p = sub.add_parser("deshape", help="amplitude file -> bit file")
    deshape_p.add_argument("--trellis", required=True)
    deshape_p.add_argument("--in", dest="infile", required=True)
    deshape_p.add_argument("--out", required=True)

    stats = sub.add_parser("stats", help="exact and sampled shaping metrics")
    stats.add_argument("--trellis", required=True)
    stats.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="Monte-Carlo sample count; at 2^k or more, every "
                            "used index is swept instead")
    stats.add_argument("--seed", type=int, default=DEFAULT_SEED)
    stats.add_argument("--csv", help="also write a CSV report")

    compare = sub.add_parser("compare", help="side-by-side metrics of two trellises")
    compare.add_argument("--a", required=True)
    compare.add_argument("--b", required=True)
    compare.add_argument("--csv", help="also write a CSV report")

    simulate = sub.add_parser("simulate", help="launch-power sweep over the fiber")
    simulate.add_argument("--trellis-ess", dest="trellis_ess")
    simulate.add_argument("--trellis-bess", dest="trellis_bess")
    simulate.add_argument("--schemes", default="ess",
                          help="comma list drawn from: ess, bess")
    simulate.add_argument("--powers", default="-2:1:8",
                          help="launch power dBm sweep start:step:stop, inclusive "
                               "(write --powers=-2:1:8 when start is negative)")
    simulate.add_argument("--config", help="JSON file with parameter defaults "
                                           "(flags still win)")
    simulate.add_argument("--out", help="CSV output path (default stdout)")
    for key, default in _SIM_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        simulate.add_argument(flag, dest=key, type=type(default), default=None,
                              help=f"default {default}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "trellis": cmd_trellis,
        "shape": cmd_shape,
        "deshape": cmd_deshape,
        "stats": cmd_stats,
        "compare": cmd_compare,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (BandshapeError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
